//! Helpers shared by the journal integration suites.

use semex_journal::segment::FORMAT_VERSION;
use semex_store::Store;
use std::path::Path;

/// Make `dir` a legacy journal space: an epoch-0 snapshot of `store` in
/// the JSON encoding older builds wrote (a meta line, then the store's
/// JSON), with no segments yet. Recovery still reads this format, and the
/// space turns binary at its next compaction.
pub fn write_legacy_json_space(dir: &Path, store: &Store) {
    std::fs::create_dir_all(dir).unwrap();
    let meta = format!("{{\"journal_version\":{FORMAT_VERSION},\"epoch\":0,\"seq\":0}}");
    let contents = format!("{meta}\n{}", store.to_json().unwrap());
    std::fs::write(dir.join("snapshot-0000000000.json"), contents).unwrap();
}

//! Exhaustive failure-point sweep (SQLite/TigerBeetle style).
//!
//! A scripted workload — open → commit → commit → compact → commit →
//! recover — is first run fault-free to count its I/O operations and
//! compute the reference state. Each sweep then re-runs the workload once
//! per operation index with a fault injected there, and asserts the
//! journal's durability contract after recovery:
//!
//! * every acked commit is present;
//! * no partial commit is visible — the recovered state is always a commit
//!   boundary (an *unacked but fully durable* commit may legitimately
//!   survive when the fault hit after its final write, so the allowed set
//!   is the boundary states between the last ack and the last attempt);
//! * the store round-trips byte-identically through a second recovery.
//!
//! Three fault families are swept: crashes (torn write, then everything
//! down), transient errors (EINTR / timeout / short write — the journal's
//! bounded retry must absorb them), and a full disk (permanent `ENOSPC`
//! until space clears, after which the journal must converge).
//!
//! The same three families are also swept over the first compaction of a
//! legacy JSON-snapshot space, the step that turns it binary: whichever
//! epoch survives, recovery must yield the pre-compaction state.
//!
//! Both crash sweeps are run once more with the replication exporter as an
//! oracle: what a fresh follower would be shipped from the crashed
//! directory must be exactly what recovery then opens.

mod common;

use semex_journal::{
    export_bootstrap, recover_with_io, FaultIo, FaultPlan, Journal, JournalConfig, JournalError,
    JournalIo, RealIo, RecoveryReport,
};
use semex_model::names::{assoc, attr, class};
use semex_model::Value;
use semex_store::{SourceInfo, SourceKind, Store, StoreEvent};
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

static SCRATCH_N: AtomicU64 = AtomicU64::new(0);

fn scratch(tag: &str) -> PathBuf {
    let n = SCRATCH_N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("semex-sweep-{tag}-{}-{n}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Sweep config: fsync on (sync ops are fault points too), no backoff
/// sleeping.
fn cfg() -> JournalConfig {
    JournalConfig {
        fsync: true,
        retry_backoff: Duration::ZERO,
        ..JournalConfig::default()
    }
}

/// The three event batches of the scripted workload, recorded once from a
/// live store so they replay deterministically.
fn batches() -> [Vec<StoreEvent>; 3] {
    let mut st = Store::with_builtin_model();
    st.enable_events();
    let person = st.model().class(class::PERSON).unwrap();
    let publication = st.model().class(class::PUBLICATION).unwrap();
    let authored = st.model().assoc(assoc::AUTHORED_BY).unwrap();
    let name = st.model().attr(attr::NAME).unwrap();
    let title = st.model().attr(attr::TITLE).unwrap();
    let email = st.model().attr(attr::EMAIL).unwrap();

    let src = st.register_source(SourceInfo::new("inbox", SourceKind::Synthetic));
    let ann = st.add_object(person);
    let smith = st.add_object(person);
    st.add_attr(ann, name, Value::from("Ann Smith")).unwrap();
    st.add_attr(smith, name, Value::from("A. Smith")).unwrap();
    let batch1 = st.take_events();

    let paper = st.add_object(publication);
    st.add_attr(paper, title, Value::from("On Journals"))
        .unwrap();
    st.add_triple(paper, authored, smith, src).unwrap();
    let batch2 = st.take_events();

    st.merge(ann, smith).unwrap();
    st.add_attr(ann, email, Value::from("ann@example.org"))
        .unwrap();
    let batch3 = st.take_events();

    assert!(!batch1.is_empty() && !batch2.is_empty() && !batch3.is_empty());
    [batch1, batch2, batch3]
}

/// Boundary states (as snapshot JSON) after 0, 1, 2, 3 acked batches.
fn boundary_states() -> [String; 4] {
    let b = batches();
    let mut st = Store::with_builtin_model();
    let mut states = vec![st.to_json().unwrap()];
    for batch in &b {
        for e in batch {
            st.apply_event(e).unwrap();
        }
        states.push(st.to_json().unwrap());
    }
    states.try_into().unwrap()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StepOutcome {
    Ok,
    Failed,
    Skipped,
}

struct WorkloadRun {
    append_outcomes: [StepOutcome; 3],
    attempted_appends: usize,
    compact_ok: Option<bool>,
    final_recover: Option<(Store, RecoveryReport)>,
}

/// Run the scripted workload against `io`. Steps stop at the first failed
/// append, the way a real application would. `retry_transient_steps`
/// re-runs a failed *recovery* step once when its error is transient (the
/// workload-level analog of the journal's internal retry, for the one
/// operation class that has none).
fn run_workload(dir: &Path, io: Arc<dyn JournalIo>, retry_transient_steps: bool) -> WorkloadRun {
    let b = batches();
    let mut run = WorkloadRun {
        append_outcomes: [StepOutcome::Skipped; 3],
        attempted_appends: 0,
        compact_ok: None,
        final_recover: None,
    };

    let Some((_, mut j, _)) = recover_step(dir, &io, retry_transient_steps) else {
        return run;
    };

    let mut mirror = Store::with_builtin_model();
    for (i, events) in b.iter().enumerate() {
        run.attempted_appends = i + 1;
        match j.append_commit(events) {
            Ok(_) => {
                run.append_outcomes[i] = StepOutcome::Ok;
                for e in events {
                    mirror.apply_event(e).unwrap();
                }
            }
            Err(_) => {
                run.append_outcomes[i] = StepOutcome::Failed;
                break;
            }
        }
        // Compact between batch 2 and 3, with the exact acked state. A
        // failed compaction leaves the journal usable in its old epoch;
        // keep going.
        if i == 1 {
            run.compact_ok = Some(j.compact(&mirror).is_ok());
        }
    }
    drop(j);

    run.final_recover = recover_step(dir, &io, retry_transient_steps).map(|(s, _, r)| (s, r));
    run
}

/// One recovery of the workload. `retry_transient_steps` re-runs it once
/// when its error is transient.
fn recover_step(
    dir: &Path,
    io: &Arc<dyn JournalIo>,
    retry_transient_steps: bool,
) -> Option<(Store, Journal, RecoveryReport)> {
    match recover_with_io(dir, cfg(), io.clone()) {
        Ok(v) => Some(v),
        Err(e) if retry_transient_steps && e.is_transient() => {
            recover_with_io(dir, cfg(), io.clone()).ok()
        }
        Err(_) => None,
    }
}

/// Fault-free pass: returns the workload's total I/O op count and the
/// reference final state.
fn fault_free_op_count() -> (u64, String) {
    let dir = scratch("ref");
    let io = FaultIo::new(FaultPlan::None);
    let run = run_workload(&dir, Arc::new(io.clone()), false);
    assert_eq!(run.append_outcomes, [StepOutcome::Ok; 3]);
    assert_eq!(run.compact_ok, Some(true));
    let (store, rep) = run.final_recover.expect("fault-free run must recover");
    assert!(rep.damage.is_none(), "{rep:?}");
    let reference = store.to_json().unwrap();
    assert_eq!(reference, boundary_states()[3]);
    std::fs::remove_dir_all(&dir).ok();
    (io.op_count(), reference)
}

#[test]
fn sweep_crash_at_every_op_preserves_acked_commits() {
    let (total_ops, _) = fault_free_op_count();
    let boundaries = boundary_states();
    assert!(
        total_ops > 20,
        "workload too small to be a meaningful sweep"
    );
    let mut survived = 0u64;
    for at in 0..total_ops {
        let dir = scratch("crash");
        let io = FaultIo::new(FaultPlan::Crash { at });
        let run = run_workload(&dir, Arc::new(io.clone()), false);

        let acked = run
            .append_outcomes
            .iter()
            .take_while(|o| **o == StepOutcome::Ok)
            .count();
        let attempted = run.attempted_appends.max(acked);

        // Power comes back: recovery must land on a commit boundary no
        // earlier than the last ack.
        io.clear_faults();
        let (store, _, rep) = recover_with_io(&dir, cfg(), Arc::new(io.clone()))
            .unwrap_or_else(|e| panic!("recovery after crash at op {at} failed: {e}"));
        let recovered = store.to_json().unwrap();
        let allowed = &boundaries[acked..=attempted];
        assert!(
            allowed.contains(&recovered),
            "crash at op {at}: recovered state is not a commit boundary in \
             [acked {acked}, attempted {attempted}] (report {rep:?})"
        );
        // Repair round-trips byte-identically and cleanly.
        let (store2, _, rep2) = recover_with_io(&dir, cfg(), Arc::new(io.clone())).unwrap();
        assert!(
            rep2.damage.is_none(),
            "crash at op {at}: damage survived repair: {rep2:?} (first: {rep:?})"
        );
        assert_eq!(store2.to_json().unwrap(), recovered, "crash at op {at}");
        survived += 1;
        std::fs::remove_dir_all(&dir).ok();
    }
    println!("fault sweep [crash]: {total_ops} ops swept, {survived} recoveries verified");
    assert_eq!(survived, total_ops);
}

#[test]
fn sweep_transient_fault_at_every_op_is_absorbed() {
    let (total_ops, reference) = fault_free_op_count();
    let mut survived = 0u64;
    let mut injected = 0u64;
    for at in 0..total_ops {
        for plan in [
            FaultPlan::ErrorOnce {
                at,
                kind: ErrorKind::Interrupted,
            },
            FaultPlan::ErrorOnce {
                at,
                kind: ErrorKind::TimedOut,
            },
            FaultPlan::ShortWrite { at },
        ] {
            let dir = scratch("transient");
            let io = FaultIo::new(plan);
            let run = run_workload(&dir, Arc::new(io.clone()), true);
            assert_eq!(
                run.append_outcomes,
                [StepOutcome::Ok; 3],
                "transient {plan:?} must be absorbed"
            );
            assert_eq!(
                run.compact_ok,
                Some(true),
                "transient {plan:?}: compaction must absorb it"
            );
            let (store, rep) = run
                .final_recover
                .unwrap_or_else(|| panic!("transient {plan:?}: no final recovery"));
            assert!(rep.damage.is_none(), "transient {plan:?}: {rep:?}");
            assert_eq!(store.to_json().unwrap(), reference, "transient {plan:?}");
            injected += io.faults_injected();
            survived += 1;
            std::fs::remove_dir_all(&dir).ok();
        }
    }
    println!(
        "fault sweep [transient]: {total_ops} ops × 3 kinds swept, \
         {survived} runs converged, {injected} faults injected"
    );
    assert_eq!(survived, total_ops * 3);
}

#[test]
fn sweep_disk_full_at_every_op_converges_after_space_clears() {
    let (total_ops, reference) = fault_free_op_count();
    let boundaries = boundary_states();
    let b = batches();
    let mut survived = 0u64;
    for at in 0..total_ops {
        let dir = scratch("full");
        let io = FaultIo::new(FaultPlan::DiskFull { at });
        let run = run_workload(&dir, Arc::new(io.clone()), false);
        let acked = run
            .append_outcomes
            .iter()
            .take_while(|o| **o == StepOutcome::Ok)
            .count();
        let attempted = run.attempted_appends.max(acked);

        // Operator frees space; the journal must converge to the reference.
        io.clear_faults();
        let (store, mut j, _) = recover_with_io(&dir, cfg(), Arc::new(io.clone()))
            .unwrap_or_else(|e| panic!("disk-full at op {at}: recovery failed: {e}"));
        let recovered = store.to_json().unwrap();
        let allowed = &boundaries[acked..=attempted];
        assert!(
            allowed.contains(&recovered),
            "disk-full at op {at}: recovered state is not an allowed boundary"
        );
        let progress = boundaries.iter().position(|s| *s == recovered).unwrap();
        for events in &b[progress..] {
            j.append_commit(events)
                .unwrap_or_else(|e| panic!("disk-full at op {at}: re-append failed: {e}"));
        }
        drop(j);
        let (fin, _, rep) = recover_with_io(&dir, cfg(), Arc::new(io.clone())).unwrap();
        assert!(rep.damage.is_none(), "disk-full at op {at}: {rep:?}");
        assert_eq!(fin.to_json().unwrap(), reference, "disk-full at op {at}");
        survived += 1;
        std::fs::remove_dir_all(&dir).ok();
    }
    println!("fault sweep [disk-full]: {total_ops} ops swept, {survived} runs converged");
    assert_eq!(survived, total_ops);
}

// ------------------------------------------- legacy JSON space migration --

/// A legacy space holding boundary state 2: batch 1 folded into its JSON
/// snapshot and batch 2 in its epoch-0 log. Written without faults.
fn legacy_space(tag: &str) -> PathBuf {
    let dir = scratch(tag);
    let b = batches();
    let mut base = Store::with_builtin_model();
    for e in &b[0] {
        base.apply_event(e).unwrap();
    }
    common::write_legacy_json_space(&dir, &base);
    let (_, mut j, _) = recover_with_io(&dir, cfg(), Arc::new(RealIo)).unwrap();
    j.append_commit(&b[1]).unwrap();
    dir
}

/// Open a legacy space and run its first compaction, the one that writes
/// a binary snapshot. `None` when the open failed, else whether the
/// compaction was acknowledged.
fn migrate(dir: &Path, io: &Arc<dyn JournalIo>, retry_transient_steps: bool) -> Option<bool> {
    let (store, mut j, _) = recover_step(dir, io, retry_transient_steps)?;
    Some(j.compact(&store).is_ok())
}

/// Number of I/O ops a fault-free migration makes.
fn migration_op_count() -> u64 {
    let dir = legacy_space("migrate-ref");
    let io = FaultIo::new(FaultPlan::None);
    assert_eq!(
        migrate(&dir, &(Arc::new(io.clone()) as _), false),
        Some(true)
    );
    std::fs::remove_dir_all(&dir).ok();
    io.op_count()
}

/// After a faulted migration: recovery yields the pre-compaction state
/// from whichever epoch survived, a second recovery is clean and
/// identical, and the space stays writable and ends up binary only.
/// Returns the epoch the first recovery landed on.
fn assert_migration_recovers(dir: &Path, io: &FaultIo, what: &str) -> u64 {
    let boundaries = boundary_states();
    let io: Arc<dyn JournalIo> = Arc::new(io.clone());
    let (store, j, rep) = recover_with_io(dir, cfg(), io.clone())
        .unwrap_or_else(|e| panic!("{what}: recovery failed: {e}"));
    assert_eq!(
        store.to_json().unwrap(),
        boundaries[2],
        "{what}: recovered state is not the pre-compaction state (report {rep:?})"
    );
    assert!(rep.epoch <= 1, "{what}: {rep:?}");
    drop(j);

    let (store2, mut j, rep2) = recover_with_io(dir, cfg(), io.clone()).unwrap();
    assert!(rep2.damage.is_none(), "{what}: {rep2:?}");
    assert_eq!(store2.to_json().unwrap(), boundaries[2], "{what}");
    j.append_commit(&batches()[2])
        .unwrap_or_else(|e| panic!("{what}: append after recovery failed: {e}"));
    let mut expected = store2;
    for e in &batches()[2] {
        expected.apply_event(e).unwrap();
    }
    j.compact(&expected)
        .unwrap_or_else(|e| panic!("{what}: compaction after recovery failed: {e}"));
    drop(j);

    let (fin, _, rep3) = recover_with_io(dir, cfg(), io).unwrap();
    assert!(rep3.damage.is_none(), "{what}: {rep3:?}");
    assert_eq!(fin.to_json().unwrap(), boundaries[3], "{what}");
    let snapshots: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| n.starts_with("snapshot-"))
        .collect();
    assert_eq!(
        snapshots,
        vec![semex_journal::segment::snapshot_file_name(rep3.epoch)],
        "{what}: the space must end up binary only"
    );
    rep.epoch
}

#[test]
fn sweep_crash_during_migration_recovers_pre_compaction_state() {
    let total_ops = migration_op_count();
    assert!(
        total_ops > 5,
        "migration too small to be a meaningful sweep"
    );
    let mut on_epoch = [0u64; 2];
    for at in 0..total_ops {
        let dir = legacy_space("migrate-crash");
        let io = FaultIo::new(FaultPlan::Crash { at });
        let acked = migrate(&dir, &(Arc::new(io.clone()) as _), false) == Some(true);
        io.clear_faults();
        let what = format!("crash at migration op {at}");
        let epoch = assert_migration_recovers(&dir, &io, &what);
        if acked {
            assert_eq!(epoch, 1, "{what}: an acked compaction must survive");
        }
        on_epoch[epoch as usize] += 1;
        std::fs::remove_dir_all(&dir).ok();
    }
    println!(
        "fault sweep [migration crash]: {total_ops} ops swept, {} recovered from JSON, \
         {} from binary",
        on_epoch[0], on_epoch[1]
    );
    assert_eq!(on_epoch[0] + on_epoch[1], total_ops);
}

#[test]
fn sweep_transient_fault_during_migration_is_absorbed() {
    let total_ops = migration_op_count();
    let mut survived = 0u64;
    for at in 0..total_ops {
        for plan in [
            FaultPlan::ErrorOnce {
                at,
                kind: ErrorKind::Interrupted,
            },
            FaultPlan::ErrorOnce {
                at,
                kind: ErrorKind::TimedOut,
            },
            FaultPlan::ShortWrite { at },
        ] {
            let dir = legacy_space("migrate-transient");
            let io = FaultIo::new(plan);
            let what = format!("transient {plan:?} during migration");
            assert_eq!(
                migrate(&dir, &(Arc::new(io.clone()) as _), true),
                Some(true),
                "{what} must be absorbed"
            );
            io.clear_faults();
            assert_eq!(assert_migration_recovers(&dir, &io, &what), 1, "{what}");
            survived += 1;
            std::fs::remove_dir_all(&dir).ok();
        }
    }
    println!("fault sweep [migration transient]: {total_ops} ops × 3 kinds, {survived} converged");
    assert_eq!(survived, total_ops * 3);
}

#[test]
fn sweep_disk_full_during_migration_converges_after_space_clears() {
    let total_ops = migration_op_count();
    let mut survived = 0u64;
    for at in 0..total_ops {
        let dir = legacy_space("migrate-full");
        let io = FaultIo::new(FaultPlan::DiskFull { at });
        let acked = migrate(&dir, &(Arc::new(io.clone()) as _), false) == Some(true);
        io.clear_faults();
        let what = format!("disk-full at migration op {at}");
        let epoch = assert_migration_recovers(&dir, &io, &what);
        if acked {
            assert_eq!(epoch, 1, "{what}: an acked compaction must survive");
        }
        survived += 1;
        std::fs::remove_dir_all(&dir).ok();
    }
    println!("fault sweep [migration disk-full]: {total_ops} ops swept, {survived} converged");
    assert_eq!(survived, total_ops);
}

// ------------------------------------------ export equals recovery --

/// Export `dir` for a follower that holds nothing, then recover it, and
/// assert the two readers agree: the shipped snapshot with every shipped
/// batch applied is byte-identical to the recovered store, and the
/// export's head is the recovered journal's next sequence number.
///
/// Every damage kind recovery repairs is covered except
/// [`DamageKind::Apply`](semex_journal::DamageKind::Apply), which is
/// excluded by design: only recovery applies events, so only recovery can
/// find a sealed batch that does not apply (and these workloads' batches
/// always do). Returns false when there was no journal to export.
fn assert_export_equals_recovery(dir: &Path, io: &FaultIo, what: &str) -> bool {
    let io: Arc<dyn JournalIo> = Arc::new(io.clone());
    let exported = export_bootstrap(dir, io.as_ref());
    let (store, journal, rep) =
        recover_with_io(dir, cfg(), io).unwrap_or_else(|e| panic!("{what}: recovery failed: {e}"));
    let tail = match exported {
        Ok(tail) => tail,
        // No snapshot landed before the crash: there is nothing to export,
        // and recovery initializes a fresh journal.
        Err(e) => {
            assert!(
                rep.initialized,
                "{what}: export failed ({e}) but recovery found a journal: {rep:?}"
            );
            return false;
        }
    };
    let (base_seq, mut replica) = tail
        .snapshot
        .unwrap_or_else(|| panic!("{what}: a bootstrap export ships its snapshot"));
    assert_eq!(base_seq, rep.base_seq, "{what}: {rep:?}");
    for batch in &tail.batches {
        for event in &batch.events {
            replica
                .apply_event(event)
                .unwrap_or_else(|e| panic!("{what}: exported event did not apply: {e}"));
        }
    }
    assert!(
        replica.to_binary().unwrap() == store.to_binary().unwrap(),
        "{what}: exported state differs from the recovered one (report {rep:?})"
    );
    assert_eq!(tail.head, journal.next_seq(), "{what}: {rep:?}");
    true
}

#[test]
fn sweep_crash_at_every_op_exports_what_recovery_opens() {
    let (total_ops, _) = fault_free_op_count();
    let mut compared = 0u64;
    for at in 0..total_ops {
        let dir = scratch("export-crash");
        let io = FaultIo::new(FaultPlan::Crash { at });
        run_workload(&dir, Arc::new(io.clone()), false);
        io.clear_faults();
        compared += u64::from(assert_export_equals_recovery(
            &dir,
            &io,
            &format!("crash at op {at}"),
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
    println!(
        "fault sweep [export = recovery, crash]: {total_ops} ops swept, {compared} exports \
         compared"
    );
    // Only a crash inside the very first open leaves no snapshot behind.
    assert!(
        compared * 2 > total_ops,
        "too few crash points left a journal"
    );
}

#[test]
fn sweep_crash_during_migration_exports_what_recovery_opens() {
    let total_ops = migration_op_count();
    for at in 0..total_ops {
        let dir = legacy_space("export-migrate");
        let io = FaultIo::new(FaultPlan::Crash { at });
        migrate(&dir, &(Arc::new(io.clone()) as _), false);
        io.clear_faults();
        let what = format!("crash at migration op {at}");
        assert!(
            assert_export_equals_recovery(&dir, &io, &what),
            "{what}: a legacy space always has a journal to export"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
    println!("fault sweep [export = recovery, migration crash]: {total_ops} ops swept");
}

// ------------------------------------------------- retry & wedge units --

#[test]
fn transient_append_fault_is_retried_and_absorbed() {
    let dir = scratch("retry");
    let io = FaultIo::new(FaultPlan::None);
    let arc: Arc<dyn JournalIo> = Arc::new(io.clone());
    let (_, mut j, _) = recover_with_io(&dir, cfg(), arc).unwrap();
    let b = batches();
    j.append_commit(&b[0]).unwrap();
    assert_eq!(j.retry_count(), 0);

    // Fault the next I/O op (a write inside the second commit).
    io.set_plan(FaultPlan::ErrorOnce {
        at: io.op_count(),
        kind: ErrorKind::Interrupted,
    });
    j.append_commit(&b[1]).unwrap();
    assert_eq!(j.retry_count(), 1);
    assert_eq!(io.faults_injected(), 1);
    drop(j);

    io.clear_faults();
    let (rs, _, rep) = recover_with_io(&dir, cfg(), Arc::new(io)).unwrap();
    assert!(rep.damage.is_none(), "{rep:?}");
    assert_eq!(rs.to_json().unwrap(), boundary_states()[2]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn permanent_fault_mid_commit_wedges_and_reopen_recovers() {
    let dir = scratch("wedge");
    let io = FaultIo::new(FaultPlan::None);
    let arc: Arc<dyn JournalIo> = Arc::new(io.clone());
    let (_, mut j, _) = recover_with_io(&dir, cfg(), arc).unwrap();
    let b = batches();
    j.append_commit(&b[0]).unwrap();

    // Disk fills mid-append: the write fails AND the rollback fails.
    io.set_plan(FaultPlan::DiskFull { at: io.op_count() });
    let err = j.append_commit(&b[1]).unwrap_err();
    assert!(!err.is_transient(), "ENOSPC must classify permanent");
    assert!(j.is_wedged(), "failed rollback must wedge the journal");
    match j.append_commit(&b[1]) {
        Err(JournalError::Wedged { .. }) => {}
        other => panic!("expected Wedged, got {other:?}"),
    }

    // Space frees up: reopen repairs the tail; the failed commit must not
    // be visible, and the backlog can be re-appended.
    io.clear_faults();
    let (recovered, rep) = j.reopen().unwrap();
    assert!(!j.is_wedged());
    assert_eq!(
        recovered.to_json().unwrap(),
        boundary_states()[1],
        "failed commit leaked into recovery: {rep:?}"
    );
    j.append_commit(&b[1]).unwrap();
    drop(j);

    let (rs, _, rep) = recover_with_io(&dir, cfg(), Arc::new(io)).unwrap();
    assert!(rep.damage.is_none(), "{rep:?}");
    assert_eq!(rs.to_json().unwrap(), boundary_states()[2]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unsealed_tail_is_discarded_on_recovery() {
    use std::io::Write;
    let dir = scratch("unsealed");
    let (_, mut j, _) = recover_with_io(&dir, cfg(), Arc::new(semex_journal::RealIo)).unwrap();
    let b = batches();
    j.append_commit(&b[0]).unwrap();
    drop(j);

    // Append a valid event record with no commit marker after it — the
    // shape a crash between append and acknowledgment leaves behind.
    let seg = dir.join(semex_journal::segment::segment_file_name(0, 0));
    let len_sealed = std::fs::metadata(&seg).unwrap().len();
    let mut extra = Vec::new();
    let payload = serde_json::to_vec(&b[1][0]).unwrap();
    semex_journal::record::encode(&payload, &mut extra);
    let mut f = std::fs::OpenOptions::new().append(true).open(&seg).unwrap();
    f.write_all(&extra).unwrap();
    drop(f);

    let (rs, _, rep) = recover_with_io(&dir, cfg(), Arc::new(semex_journal::RealIo)).unwrap();
    let damage = rep.damage.expect("unsealed tail must be reported");
    assert_eq!(damage.kind, semex_journal::DamageKind::Uncommitted);
    assert_eq!(damage.offset, len_sealed);
    assert_eq!(rs.to_json().unwrap(), boundary_states()[1]);

    // Repaired: second recovery is clean, the file is back to sealed size.
    let (rs2, _, rep2) = recover_with_io(&dir, cfg(), Arc::new(semex_journal::RealIo)).unwrap();
    assert!(rep2.damage.is_none(), "{rep2:?}");
    assert_eq!(rs2.to_json().unwrap(), rs.to_json().unwrap());
    assert_eq!(std::fs::metadata(&seg).unwrap().len(), len_sealed);
    std::fs::remove_dir_all(&dir).ok();
}

//! JSON snapshot persistence.

use crate::{Object, SourceInfo, Store, Triple};
use semex_model::DomainModel;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::{Path, PathBuf};

/// Errors raised while loading or saving snapshots.
#[derive(Debug)]
pub enum SnapshotError {
    /// Malformed snapshot JSON.
    Json(serde_json::Error),
    /// File I/O failure, with the path involved.
    Io {
        /// The file being read or written.
        path: PathBuf,
        /// The underlying I/O error.
        error: std::io::Error,
    },
    /// The snapshot was written by an incompatible format version.
    Version {
        /// The version recorded in the file.
        found: u32,
        /// The version this build understands.
        expected: u32,
    },
    /// Malformed binary snapshot image.
    Binary(crate::BinaryError),
}

impl SnapshotError {
    /// Wrap an I/O error with the path it occurred on.
    pub fn io(path: impl Into<PathBuf>, error: std::io::Error) -> Self {
        SnapshotError::Io {
            path: path.into(),
            error,
        }
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Json(e) => write!(f, "snapshot JSON error: {e}"),
            SnapshotError::Io { path, error } => {
                write!(f, "snapshot I/O error on {}: {error}", path.display())
            }
            SnapshotError::Version { found, expected } => {
                write!(
                    f,
                    "snapshot version {found} is not supported (expected {expected})"
                )
            }
            SnapshotError::Binary(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Json(e) => Some(e),
            SnapshotError::Io { error, .. } => Some(error),
            SnapshotError::Version { .. } => None,
            SnapshotError::Binary(e) => Some(e),
        }
    }
}

impl From<serde_json::Error> for SnapshotError {
    fn from(e: serde_json::Error) -> Self {
        SnapshotError::Json(e)
    }
}

impl From<crate::BinaryError> for SnapshotError {
    fn from(e: crate::BinaryError) -> Self {
        SnapshotError::Binary(e)
    }
}

/// On-disk representation: the model plus raw (pre-merge) objects and
/// triples; adjacency indexes are rebuilt on load.
#[derive(Serialize, Deserialize)]
struct Snapshot {
    /// Format version, bumped on incompatible change.
    version: u32,
    model: DomainModel,
    objects: Vec<Object>,
    triples: Vec<Triple>,
    sources: Vec<SourceInfo>,
}

const SNAPSHOT_VERSION: u32 = 1;

impl Store {
    /// Serialize the store (model, objects including merge aliases, triples
    /// with original provenance, sources) to JSON. Serialization failure is
    /// a typed error, not a panic, so save paths degrade gracefully.
    pub fn to_json(&self) -> Result<String, SnapshotError> {
        let (model, objects, triples, sources) = self.parts();
        let snap = Snapshot {
            version: SNAPSHOT_VERSION,
            model: model.clone(),
            objects: objects.iter().cloned().collect(),
            triples: triples.iter().cloned().collect(),
            sources: sources.iter().cloned().collect(),
        };
        Ok(serde_json::to_string(&snap)?)
    }

    /// Load a store from a JSON snapshot, rebuilding all indexes. A snapshot
    /// written by an incompatible format version surfaces as
    /// [`SnapshotError::Version`] rather than a generic JSON error.
    pub fn from_json(json: &str) -> Result<Store, SnapshotError> {
        /// The version field alone, probed before the full parse so that a
        /// future-format file produces a precise error.
        #[derive(Deserialize)]
        struct VersionProbe {
            version: u32,
        }
        let probe: VersionProbe = serde_json::from_str(json)?;
        if probe.version != SNAPSHOT_VERSION {
            return Err(SnapshotError::Version {
                found: probe.version,
                expected: SNAPSHOT_VERSION,
            });
        }
        let snap: Snapshot = serde_json::from_str(json)?;
        Ok(Store::from_parts(
            snap.model,
            snap.objects,
            snap.triples,
            snap.sources,
        ))
    }

    /// Write a snapshot to a file.
    pub fn save(&self, path: &Path) -> Result<(), SnapshotError> {
        use std::io::Write;
        let file = std::fs::File::create(path).map_err(|e| SnapshotError::io(path, e))?;
        let mut f = std::io::BufWriter::new(file);
        f.write_all(self.to_json()?.as_bytes())
            .and_then(|()| f.flush())
            .map_err(|e| SnapshotError::io(path, e))?;
        Ok(())
    }

    /// Load a snapshot from a file.
    pub fn load(path: &Path) -> Result<Store, SnapshotError> {
        let json = std::fs::read_to_string(path).map_err(|e| SnapshotError::io(path, e))?;
        Store::from_json(&json)
    }
}

#[cfg(test)]
mod tests {
    use crate::{SourceInfo, SourceKind, Store};
    use semex_model::names::{assoc, attr, class};
    use semex_model::Value;

    #[test]
    fn roundtrip_preserves_everything() {
        let mut st = Store::with_builtin_model();
        let person = st.model().class(class::PERSON).unwrap();
        let publication = st.model().class(class::PUBLICATION).unwrap();
        let authored = st.model().assoc(assoc::AUTHORED_BY).unwrap();
        let name = st.model().attr(attr::NAME).unwrap();
        let src = st.register_source(SourceInfo::new("t", SourceKind::Synthetic));
        let p1 = st.add_object(person);
        let p2 = st.add_object(person);
        st.add_attr(p1, name, Value::from("Ann")).unwrap();
        st.add_attr(p2, name, Value::from("A. Smith")).unwrap();
        let pb = st.add_object(publication);
        st.add_triple(pb, authored, p2, src).unwrap();
        st.merge(p1, p2).unwrap();

        let json = st.to_json().unwrap();
        let st2 = Store::from_json(&json).unwrap();
        assert_eq!(st2.object_count(), st.object_count());
        assert_eq!(st2.alias_count(), 1);
        assert_eq!(st2.resolve(p2), p1);
        assert_eq!(st2.neighbors(pb, authored), &[p1]);
        assert_eq!(st2.object(p1).strs(name).count(), 2);
        assert_eq!(st2.source(src).unwrap().name, "t");
        assert_eq!(st2.model().class(class::PERSON), Some(person));
    }

    #[test]
    fn file_roundtrip() {
        let mut st = Store::with_builtin_model();
        let person = st.model().class(class::PERSON).unwrap();
        st.add_object(person);
        let dir = std::env::temp_dir().join("semex-snapshot-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.json");
        st.save(&path).unwrap();
        let st2 = Store::load(&path).unwrap();
        assert_eq!(st2.object_count(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_json_is_an_error() {
        assert!(Store::from_json("{not json").is_err());
        assert!(Store::from_json("{}").is_err());
    }

    #[test]
    fn version_mismatch_is_distinct() {
        let st = Store::with_builtin_model();
        let future = st
            .to_json()
            .unwrap()
            .replacen("\"version\":1", "\"version\":2", 1);
        match Store::from_json(&future) {
            Err(crate::SnapshotError::Version {
                found: 2,
                expected: 1,
            }) => {}
            other => panic!("expected version error, got {other:?}"),
        }
    }

    #[test]
    fn io_error_names_the_path() {
        let missing = std::path::Path::new("/nonexistent/semex/store.json");
        match Store::load(missing) {
            Err(e @ crate::SnapshotError::Io { .. }) => {
                assert!(
                    e.to_string().contains("/nonexistent/semex/store.json"),
                    "{e}"
                );
            }
            other => panic!("expected io error, got {other:?}"),
        }
    }
}

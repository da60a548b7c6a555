//! Typed store mutation events and the store's sequenced event log.
//!
//! Every mutating operation on a [`Store`] can be described by a
//! [`StoreEvent`]. When recording is enabled ([`Store::enable_events`]) the
//! store appends one event per *effective* mutation (no-ops such as
//! duplicate attribute values emit nothing) to its event log. Each event
//! gets an absolute sequence number; [`Store::event_head`] is the number the
//! next one gets.
//!
//! Replaying a recorded sequence against a store in the same starting state
//! reproduces the mutations exactly ([`Store::apply_event`]): object ids are
//! dense indices handed out in creation order, so the ids allocated during
//! replay coincide with the recorded ones.
//!
//! Consumers do not drain the log. Each keeps a high-water mark and reads
//! [`Store::events_since`] its mark; the log's owner drops a prefix every
//! consumer has passed with [`Store::release_events`]. In a SEMEX platform
//! the consumers are the write-ahead journal, the keyword index and the
//! reconciliation state, and one publish step in the facade advances them
//! all. A journaled store numbers its events with the journal's sequence,
//! so a journal position and a log position are the same number.

use crate::{ObjectId, SourceId, SourceInfo, Store, StoreError};
use semex_model::{AssocId, AttrId, ClassId, DomainModel, Value};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One effective mutation of a [`Store`].
///
/// The variants mirror the store's mutating API one-to-one. Events carry the
/// *original* argument ids (pre-merge-resolution); resolution is
/// deterministic given the preceding events, so replay lands on the same
/// live objects.
// `SyncModel` dwarfs the other variants, but events are moved into a
// `Vec` and replayed once — they are never held in bulk long-term, so
// boxing the model would buy nothing and cost an allocation per sync.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum StoreEvent {
    /// A provenance source was registered ([`Store::register_source`]).
    RegisterSource {
        /// The source metadata.
        info: SourceInfo,
    },
    /// A fresh object was created ([`Store::add_object`]).
    AddObject {
        /// The new object's class.
        class: ClassId,
    },
    /// An attribute value was added ([`Store::add_attr`]; only emitted when
    /// the value was new).
    AddAttr {
        /// The object written to (pre-resolution id).
        object: ObjectId,
        /// The attribute.
        attr: AttrId,
        /// The value.
        value: Value,
    },
    /// A provenance source was recorded on an object
    /// ([`Store::add_source_to`]; only emitted when the source was new).
    AddSource {
        /// The object written to (pre-resolution id).
        object: ObjectId,
        /// The source.
        source: SourceId,
    },
    /// An association triple was asserted ([`Store::add_triple`]; only
    /// emitted when the fact was new).
    AddTriple {
        /// The subject (pre-resolution id).
        subject: ObjectId,
        /// The association type.
        assoc: AssocId,
        /// The object (pre-resolution id).
        object: ObjectId,
        /// Provenance of the fact.
        source: SourceId,
    },
    /// Two objects were merged ([`Store::merge`]).
    Merge {
        /// The surviving object.
        winner: ObjectId,
        /// The object that became an alias.
        loser: ObjectId,
    },
    /// The domain model was extended and re-synced ([`Store::sync_model`]).
    /// Carries the complete post-extension model: model growth is rare and
    /// monotonic, so shipping the whole registry keeps replay trivial.
    SyncModel {
        /// The full model after the extension.
        model: DomainModel,
    },
}

impl StoreEvent {
    /// A short tag naming the variant (logging, metrics).
    pub fn kind(&self) -> &'static str {
        match self {
            StoreEvent::RegisterSource { .. } => "register_source",
            StoreEvent::AddObject { .. } => "add_object",
            StoreEvent::AddAttr { .. } => "add_attr",
            StoreEvent::AddSource { .. } => "add_source",
            StoreEvent::AddTriple { .. } => "add_triple",
            StoreEvent::Merge { .. } => "merge",
            StoreEvent::SyncModel { .. } => "sync_model",
        }
    }

    /// The object (pre-resolution id) whose indexed text this event may
    /// change, if any: a new indexed string attribute value, or a merge
    /// winner whose document now pools the loser's surface forms. An
    /// incremental indexer re-tokenizes these objects (after resolving
    /// against the post-mutation store).
    pub fn retokenizes(&self, model: &DomainModel) -> Option<ObjectId> {
        match self {
            StoreEvent::AddAttr {
                object,
                attr,
                value,
            } if model.attr_def(*attr).indexed && value.as_str().is_some() => Some(*object),
            StoreEvent::Merge { winner, .. } => Some(*winner),
            _ => None,
        }
    }

    /// The object (pre-resolution id) this event removes from the live set,
    /// if any: a merge's loser stops being an independent document. Note
    /// the id is the *original* merge argument — consumers tracking the
    /// post-mutation store must also drop any aliases on its chain.
    pub fn tombstones(&self) -> Option<ObjectId> {
        match self {
            StoreEvent::Merge { loser, .. } => Some(*loser),
            _ => None,
        }
    }
}

impl fmt::Display for StoreEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreEvent::RegisterSource { info } => write!(f, "register_source({})", info.name),
            StoreEvent::AddObject { class } => write!(f, "add_object({class})"),
            StoreEvent::AddAttr { object, attr, .. } => write!(f, "add_attr({object}, {attr})"),
            StoreEvent::AddSource { object, source } => {
                write!(f, "add_source({object}, {source})")
            }
            StoreEvent::AddTriple {
                subject,
                assoc,
                object,
                ..
            } => write!(f, "add_triple({subject} -{assoc}-> {object})"),
            StoreEvent::Merge { winner, loser } => write!(f, "merge({winner} <- {loser})"),
            StoreEvent::SyncModel { .. } => write!(f, "sync_model"),
        }
    }
}

/// The store's sequenced event log: every recorded event has an absolute
/// sequence number, and the log holds the events from the oldest one not
/// yet released up to its head.
#[derive(Debug, Default)]
pub(crate) struct EventLog {
    /// Whether mutations are recorded.
    pub(crate) on: bool,
    /// Sequence number of `events[0]`.
    base: u64,
    events: Vec<StoreEvent>,
}

/// A copy of a store (a published snapshot, a test twin) has none of the
/// original's subscribers, so it carries no events: its log starts empty at
/// the original's head.
impl Clone for EventLog {
    fn clone(&self) -> Self {
        EventLog {
            on: self.on,
            base: self.base + self.events.len() as u64,
            events: Vec::new(),
        }
    }
}

impl Store {
    /// Start recording mutation events. Idempotent: a log already
    /// recording is kept as it is.
    pub fn enable_events(&mut self) {
        self.recorder.on = true;
    }

    /// Start (or restart) recording with an empty log whose next event
    /// gets sequence number `seq`. A journaled store records at the
    /// journal's sequence this way.
    pub fn enable_events_at(&mut self, seq: u64) {
        self.recorder = EventLog {
            on: true,
            base: seq,
            events: Vec::new(),
        };
    }

    /// The sequence number the next recorded event gets.
    pub fn event_head(&self) -> u64 {
        self.recorder.base + self.recorder.events.len() as u64
    }

    /// The recorded events from sequence number `seq` up to the head;
    /// empty when `seq` is at or past the head.
    ///
    /// # Panics
    ///
    /// When `seq` names an event already released: a subscriber asking
    /// for it has fallen behind the log, which is a bug in its owner.
    pub fn events_since(&self, seq: u64) -> &[StoreEvent] {
        let log = &self.recorder;
        assert!(seq >= log.base, "event {seq} was released");
        let from = (seq - log.base).min(log.events.len() as u64);
        &log.events[from as usize..]
    }

    /// Drop the recorded events before sequence number `seq` (every
    /// subscriber has consumed them). Sequence numbers are kept; `seq`
    /// past the head releases everything.
    pub fn release_events(&mut self, seq: u64) {
        let log = &mut self.recorder;
        let n = seq.saturating_sub(log.base).min(log.events.len() as u64);
        log.events.drain(..n as usize);
        log.base += n;
        if log.events.is_empty() {
            log.events = Vec::new(); // free what a burst allocated
        }
    }

    /// Release every recorded event and return them. Recording stays as it
    /// is.
    pub fn take_events(&mut self) -> Vec<StoreEvent> {
        self.recorder.base = self.event_head();
        std::mem::take(&mut self.recorder.events)
    }

    /// Internal: append an event when recording is enabled.
    pub(crate) fn record(&mut self, event: StoreEvent) {
        if self.recorder.on {
            self.recorder.events.push(event);
        }
    }

    /// Re-apply a recorded event to this store (journal replay, a
    /// replicated batch). The store must be in the state that preceded the
    /// event — dense id allocation then reproduces the recorded ids
    /// exactly. When recording is enabled the event itself is logged, so
    /// every applied event advances [`Store::event_head`] by exactly one
    /// and a replica's log position stays its journal position.
    ///
    /// An event naming an object, class, attribute, association or source
    /// the store does not have is refused with a typed [`StoreError`] and
    /// changes nothing: events arrive from disk and from the network.
    pub fn apply_event(&mut self, event: &StoreEvent) -> Result<(), StoreError> {
        self.check_event(event)?;
        let on = std::mem::replace(&mut self.recorder.on, false);
        let applied = self.apply_unrecorded(event);
        self.recorder.on = on;
        applied?;
        self.record(event.clone());
        Ok(())
    }

    /// Every id `event` names must exist in this store.
    fn check_event(&self, event: &StoreEvent) -> Result<(), StoreError> {
        let model = self.model();
        let obj = |o: &ObjectId| {
            self.object_raw(*o)
                .map(drop)
                .ok_or(StoreError::UnknownObject(*o))
        };
        let src = |s: &SourceId| {
            self.source(*s)
                .map(drop)
                .ok_or(StoreError::UnknownSource(*s))
        };
        match event {
            StoreEvent::RegisterSource { .. } | StoreEvent::SyncModel { .. } => Ok(()),
            StoreEvent::AddObject { class } if class.index() >= model.class_count() => {
                Err(StoreError::UnknownClass(*class))
            }
            StoreEvent::AddObject { .. } => Ok(()),
            StoreEvent::AddAttr { attr, .. } if attr.index() >= model.attr_count() => {
                Err(StoreError::UnknownAttr(*attr))
            }
            StoreEvent::AddAttr { object, .. } => obj(object),
            StoreEvent::AddSource { object, source } => obj(object).and(src(source)),
            StoreEvent::AddTriple { assoc, .. } if assoc.index() >= model.assoc_count() => {
                Err(StoreError::UnknownAssoc(*assoc))
            }
            StoreEvent::AddTriple {
                subject,
                object,
                source,
                ..
            } => obj(subject).and(obj(object)).and(src(source)),
            StoreEvent::Merge { winner, loser } => obj(winner).and(obj(loser)),
        }
    }

    fn apply_unrecorded(&mut self, event: &StoreEvent) -> Result<(), StoreError> {
        match event {
            StoreEvent::RegisterSource { info } => {
                self.register_source(info.clone());
            }
            StoreEvent::AddObject { class } => {
                self.add_object(*class);
            }
            StoreEvent::AddAttr {
                object,
                attr,
                value,
            } => {
                self.add_attr(*object, *attr, value.clone())?;
            }
            StoreEvent::AddSource { object, source } => {
                self.add_source_to(*object, *source);
            }
            StoreEvent::AddTriple {
                subject,
                assoc,
                object,
                source,
            } => {
                self.add_triple(*subject, *assoc, *object, *source)?;
            }
            StoreEvent::Merge { winner, loser } => {
                self.merge(*winner, *loser)?;
            }
            StoreEvent::SyncModel { model } => {
                self.replace_model(model.clone());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SourceKind;
    use semex_model::names::{assoc, attr, class};

    /// Record every mutation of a small session, replay it onto a fresh
    /// store, and check the replica is identical slot by slot.
    #[test]
    fn record_and_replay_reproduce_store() {
        let mut st = Store::with_builtin_model();
        st.enable_events();
        let person = st.model().class(class::PERSON).unwrap();
        let publication = st.model().class(class::PUBLICATION).unwrap();
        let authored = st.model().assoc(assoc::AUTHORED_BY).unwrap();
        let name = st.model().attr(attr::NAME).unwrap();
        let src = st.register_source(SourceInfo::new("t", SourceKind::Synthetic));
        let p1 = st.add_object(person);
        let p2 = st.add_object(person);
        st.add_attr(p1, name, Value::from("Ann")).unwrap();
        st.add_attr(p2, name, Value::from("A. Smith")).unwrap();
        st.add_source_to(p1, src);
        let pb = st.add_object(publication);
        st.add_triple(pb, authored, p2, src).unwrap();
        st.merge(p1, p2).unwrap();
        // No-ops do not record.
        st.add_attr(p1, name, Value::from("Ann")).unwrap();
        st.add_source_to(p1, src);
        st.add_triple(pb, authored, p1, src).unwrap();

        let events = st.take_events();
        assert!(st.take_events().is_empty());
        assert_eq!(events.len(), 9, "{events:?}");

        let mut replica = Store::with_builtin_model();
        for e in &events {
            replica.apply_event(e).unwrap();
        }
        assert_eq!(replica.slot_count(), st.slot_count());
        assert_eq!(replica.object_count(), st.object_count());
        assert_eq!(replica.triples_raw(), st.triples_raw());
        for i in 0..st.slot_count() {
            let id = ObjectId(i as u64);
            assert_eq!(replica.object_raw(id), st.object_raw(id), "slot {i}");
        }
        assert_eq!(replica.resolve(p2), p1);
        assert_eq!(replica.neighbors(pb, authored), &[p1]);
    }

    #[test]
    fn model_extension_is_recorded_and_replayable() {
        let mut st = Store::with_builtin_model();
        st.enable_events();
        let person = st.model().class(class::PERSON).unwrap();
        let p = st.add_object(person);
        let badge = st
            .model_mut()
            .add_class(semex_model::ClassDef::new("Badge"))
            .unwrap();
        let wears = st
            .model_mut()
            .add_assoc(semex_model::AssocDef::new("Wears", person, badge, "WornBy"))
            .unwrap();
        st.sync_model();
        let src = st.register_source(SourceInfo::new("t", SourceKind::Synthetic));
        let b = st.add_object(badge);
        st.add_triple(p, wears, b, src).unwrap();

        let events = st.take_events();
        assert!(events
            .iter()
            .any(|e| matches!(e, StoreEvent::SyncModel { .. })));
        let mut replica = Store::with_builtin_model();
        for e in &events {
            replica.apply_event(e).unwrap();
        }
        assert_eq!(replica.model().class("Badge"), Some(badge));
        assert_eq!(replica.neighbors(p, wears), &[b]);
    }

    #[test]
    fn disabled_recording_buffers_nothing() {
        let mut st = Store::with_builtin_model();
        let person = st.model().class(class::PERSON).unwrap();
        st.add_object(person);
        assert!(st.take_events().is_empty());
        assert_eq!(st.event_head(), 0);
        st.enable_events();
        st.add_object(person);
        st.enable_events(); // idempotent: the log is kept
        assert_eq!(st.events_since(0).len(), 1);
    }

    #[test]
    fn the_log_numbers_events_and_releases_consumed_prefixes() {
        let mut st = Store::with_builtin_model();
        let person = st.model().class(class::PERSON).unwrap();
        st.enable_events_at(40);
        assert_eq!(st.event_head(), 40);
        let p = st.add_object(person);
        st.add_object(person);
        st.merge(p, ObjectId(1)).unwrap();
        assert_eq!(st.event_head(), 43);
        assert_eq!(st.events_since(41).len(), 2);
        assert!(st.events_since(43).is_empty());
        assert!(st.events_since(99).is_empty());
        st.release_events(42);
        assert!(matches!(st.events_since(42), [StoreEvent::Merge { .. }]));
        // A copy carries no events but keeps numbering from the same head.
        let mut copy = st.clone();
        assert_eq!(copy.event_head(), 43);
        copy.add_object(person);
        assert_eq!(copy.take_events().len(), 1);
        // Every replayed event is logged once, whether or not its mutator
        // records (a model sync replays without one).
        let mut replica = Store::with_builtin_model();
        replica.enable_events();
        let model = replica.model().clone();
        replica
            .apply_event(&StoreEvent::AddObject { class: person })
            .unwrap();
        replica
            .apply_event(&StoreEvent::SyncModel { model })
            .unwrap();
        assert_eq!(replica.event_head(), 2);
        assert!(matches!(
            replica.events_since(0),
            [StoreEvent::AddObject { .. }, StoreEvent::SyncModel { .. }]
        ));
        st.release_events(u64::MAX);
        assert!(st.events_since(43).is_empty());
        assert_eq!(st.event_head(), 43);
    }

    #[test]
    #[should_panic(expected = "was released")]
    fn reading_a_released_event_is_a_bug() {
        let mut st = Store::with_builtin_model();
        st.enable_events();
        let person = st.model().class(class::PERSON).unwrap();
        st.add_object(person);
        st.take_events();
        st.events_since(0);
    }

    /// Events naming ids the store does not have are refused with a typed
    /// error and leave the store and its log untouched: they arrive from
    /// the journal and from replication peers.
    #[test]
    fn hostile_events_are_typed_errors() {
        let mut st = Store::with_builtin_model();
        let person = st.model().class(class::PERSON).unwrap();
        let name = st.model().attr(attr::NAME).unwrap();
        let authored = st.model().assoc(assoc::AUTHORED_BY).unwrap();
        let publication = st.model().class(class::PUBLICATION).unwrap();
        let src = st.register_source(SourceInfo::new("t", SourceKind::Synthetic));
        let p = st.add_object(person);
        let pb = st.add_object(publication);
        st.enable_events();
        let (ghost, bad_source) = (ObjectId(77), SourceId(9));
        let cases = [
            (
                StoreEvent::AddObject {
                    class: ClassId(999),
                },
                StoreError::UnknownClass(ClassId(999)),
            ),
            (
                StoreEvent::AddAttr {
                    object: ghost,
                    attr: name,
                    value: Value::from("x"),
                },
                StoreError::UnknownObject(ghost),
            ),
            (
                StoreEvent::AddAttr {
                    object: p,
                    attr: AttrId(999),
                    value: Value::from("x"),
                },
                StoreError::UnknownAttr(AttrId(999)),
            ),
            (
                StoreEvent::AddSource {
                    object: ghost,
                    source: src,
                },
                StoreError::UnknownObject(ghost),
            ),
            (
                StoreEvent::AddSource {
                    object: p,
                    source: bad_source,
                },
                StoreError::UnknownSource(bad_source),
            ),
            (
                StoreEvent::AddTriple {
                    subject: pb,
                    assoc: authored,
                    object: ghost,
                    source: src,
                },
                StoreError::UnknownObject(ghost),
            ),
            (
                StoreEvent::AddTriple {
                    subject: pb,
                    assoc: AssocId(999),
                    object: p,
                    source: src,
                },
                StoreError::UnknownAssoc(AssocId(999)),
            ),
            (
                StoreEvent::AddTriple {
                    subject: pb,
                    assoc: authored,
                    object: p,
                    source: bad_source,
                },
                StoreError::UnknownSource(bad_source),
            ),
            (
                StoreEvent::Merge {
                    winner: ghost,
                    loser: p,
                },
                StoreError::UnknownObject(ghost),
            ),
            (
                StoreEvent::Merge {
                    winner: p,
                    loser: ghost,
                },
                StoreError::UnknownObject(ghost),
            ),
        ];
        let before = st.to_json().unwrap();
        for (event, want) in cases {
            assert_eq!(st.apply_event(&event), Err(want), "{event}");
        }
        assert_eq!(st.to_json().unwrap(), before);
        assert_eq!(st.event_head(), 0, "refused events record nothing");
    }

    #[test]
    fn index_relevance_helpers() {
        let st = Store::with_builtin_model();
        let model = st.model();
        let name = model.attr(attr::NAME).unwrap();
        let named = StoreEvent::AddAttr {
            object: ObjectId(4),
            attr: name,
            value: Value::from("Ann"),
        };
        assert_eq!(named.retokenizes(model), Some(ObjectId(4)));
        assert_eq!(named.tombstones(), None);
        let merged = StoreEvent::Merge {
            winner: ObjectId(1),
            loser: ObjectId(2),
        };
        assert_eq!(merged.retokenizes(model), Some(ObjectId(1)));
        assert_eq!(merged.tombstones(), Some(ObjectId(2)));
        let created = StoreEvent::AddObject {
            class: model.class(class::PERSON).unwrap(),
        };
        assert_eq!(created.retokenizes(model), None);
        assert_eq!(created.tombstones(), None);
    }

    #[test]
    fn events_serialize_round_trip() {
        let e = StoreEvent::AddTriple {
            subject: ObjectId(1),
            assoc: AssocId(2),
            object: ObjectId(3),
            source: SourceId(0),
        };
        let json = serde_json::to_string(&e).unwrap();
        let back: StoreEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        assert_eq!(e.kind(), "add_triple");
        assert!(e.to_string().contains("o1"));
    }
}

//! Slot-indexed adjacency: one packed edge record per object slot.

use crate::ObjectId;
use semex_model::AssocId;

/// Which end of an edge a record stores it at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Dir {
    /// The slot is the edge's subject; the run lists objects.
    Out,
    /// The slot is the edge's object; the run lists subjects.
    In,
}

/// One slot's edges, packed into one vector: for each (association,
/// direction) the slot has edges in, a header word holding the run's key
/// and length, then the run's neighbour ids in the order they were added.
/// A slot with edges over a few associations costs one small allocation;
/// finding a run scans the headers, so every operation is O(the slot's
/// degree).
#[derive(Debug, Clone, Default)]
pub(crate) struct EdgeRecord {
    words: Vec<ObjectId>,
}

fn key(assoc: AssocId, dir: Dir) -> u64 {
    u64::from(assoc.0) << 1 | u64::from(dir == Dir::In)
}

fn header(key: u64, len: usize) -> ObjectId {
    ObjectId(key << 32 | len as u64)
}

impl EdgeRecord {
    /// `(key, header position, run length)` of every run, in record order.
    fn runs(&self) -> impl Iterator<Item = (u64, usize, usize)> + '_ {
        let mut at = 0;
        std::iter::from_fn(move || {
            let h = self.words.get(at)?.0;
            let run = (h >> 32, at, (h & u64::from(u32::MAX)) as usize);
            at += 1 + run.2;
            Some(run)
        })
    }

    /// `(header position, run length)` of a run.
    fn find(&self, key: u64) -> Option<(usize, usize)> {
        self.runs()
            .find(|&(k, _, _)| k == key)
            .map(|(_, at, len)| (at, len))
    }

    /// The neighbours over `assoc` in direction `dir`.
    pub(crate) fn run(&self, assoc: AssocId, dir: Dir) -> &[ObjectId] {
        match self.find(key(assoc, dir)) {
            Some((at, len)) => &self.words[at + 1..at + 1 + len],
            None => &[],
        }
    }

    /// Append `id` to a run, creating the run when the slot has none.
    /// Returns false (and changes nothing) when the run already holds it.
    pub(crate) fn insert(&mut self, assoc: AssocId, dir: Dir, id: ObjectId) -> bool {
        let k = key(assoc, dir);
        match self.find(k) {
            Some((at, len)) => {
                if self.words[at + 1..at + 1 + len].contains(&id) {
                    return false;
                }
                self.words.insert(at + 1 + len, id);
                self.words[at] = header(k, len + 1);
            }
            None => {
                self.words.push(header(k, 1));
                self.words.push(id);
            }
        }
        true
    }

    /// Remove `id` from a run; returns whether it was there.
    pub(crate) fn remove(&mut self, assoc: AssocId, dir: Dir, id: ObjectId) -> bool {
        let k = key(assoc, dir);
        let Some((at, len)) = self.find(k) else {
            return false;
        };
        let Some(i) = self.words[at + 1..at + 1 + len]
            .iter()
            .position(|&w| w == id)
        else {
            return false;
        };
        self.words.remove(at + 1 + i);
        if len == 1 {
            self.words.remove(at);
        } else {
            self.words[at] = header(k, len - 1);
        }
        true
    }

    /// Remove a whole run and return its ids.
    pub(crate) fn take(&mut self, assoc: AssocId, dir: Dir) -> Vec<ObjectId> {
        match self.find(key(assoc, dir)) {
            Some((at, len)) => {
                let ids = self.words.drain(at..at + 1 + len).skip(1).collect();
                if self.words.is_empty() {
                    self.words = Vec::new();
                }
                ids
            }
            None => Vec::new(),
        }
    }

    /// The associations the slot has edges over, in either direction,
    /// ascending.
    pub(crate) fn assocs(&self) -> Vec<AssocId> {
        let mut out: Vec<AssocId> = self
            .runs()
            .map(|(k, _, _)| AssocId((k >> 1) as u16))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_keep_insertion_order_per_key() {
        let (a, b) = (AssocId(0), AssocId(3));
        let mut r = EdgeRecord::default();
        assert!(r.insert(b, Dir::Out, ObjectId(9)));
        assert!(r.insert(a, Dir::In, ObjectId(4)));
        assert!(r.insert(b, Dir::Out, ObjectId(2)));
        assert!(!r.insert(b, Dir::Out, ObjectId(9)), "duplicates refused");
        assert!(r.insert(b, Dir::In, ObjectId(9)));
        assert_eq!(r.run(b, Dir::Out), &[ObjectId(9), ObjectId(2)]);
        assert_eq!(r.run(a, Dir::In), &[ObjectId(4)]);
        assert_eq!(r.run(a, Dir::Out), &[]);
        assert_eq!(r.assocs(), vec![a, b]);
        assert!(r.remove(b, Dir::Out, ObjectId(9)));
        assert!(!r.remove(b, Dir::Out, ObjectId(9)));
        assert_eq!(r.run(b, Dir::Out), &[ObjectId(2)]);
        assert_eq!(r.take(a, Dir::In), vec![ObjectId(4)]);
        assert_eq!(r.run(b, Dir::In), &[ObjectId(9)], "other runs intact");
        assert!(r.remove(b, Dir::Out, ObjectId(2)));
        assert_eq!(r.assocs(), vec![b]);
    }
}

//! The binary index sidecar format: a persisted search index image that
//! lets a durable open skip the full rebuild.
//!
//! A sidecar is written next to each journal snapshot and is *advisory*: it
//! records the `(epoch, seq)` of the store state it was built from, and a
//! loader uses it only when those match the recovered journal position
//! exactly (any journal tail is then folded in with
//! [`SearchIndex::apply_events`], which is equivalence-tested against a
//! scratch build). Any damage — torn write, bit flip, wrong epoch — is a
//! typed error and the caller falls back to rebuilding from the store.
//!
//! Layout (same section discipline as the store snapshot format, shared
//! via [`semex_store::binary`]):
//!
//! ```text
//! offset  size  field
//! 0       8     magic "SEMEXIDX"
//! 8       4     sidecar version (u32 LE, currently 1)
//! 12      8     epoch (u64 LE)      — store epoch this index reflects
//! 20      8     seq (u64 LE)        — journal seq this index reflects
//! 28      4     section count
//! 32      24×n  section table (id, offset, len, crc32 per section)
//! ...     4     header CRC32, then contiguous sections
//! ```
//!
//! Sections: `1 TERMS` (string arena, arena index == term id), `2 POSTINGS`
//! (u32 offset table, then per list: live, max_tf, n, varint-delta doc ids
//! with weighted tf), `3 DOCS` (fixed-width 15-byte records: object u64,
//! class u16, len f32, live u8), `4 DOCTERMS` (forward index per doc slot),
//! `5 STATS` (live docs, total length, BM25 parameters).

use crate::postings::{Posting, PostingList};
use crate::search::SearchIndex;
use crate::{Bm25Params, TermDict};
use semex_model::ClassId;
use semex_store::binary::{
    write_varint, ArenaReader, ArenaWriter, BinaryError, Cursor, SectionWriter, Sections,
};
use semex_store::{ChunkVec, ObjectId};

/// Magic bytes opening an index sidecar image.
pub const SIDECAR_MAGIC: &[u8; 8] = b"SEMEXIDX";

/// Sidecar format version.
pub const SIDECAR_VERSION: u32 = 1;

const SEC_TERMS: u32 = 1;
const SEC_POSTINGS: u32 = 2;
const SEC_DOCS: u32 = 3;
const SEC_DOCTERMS: u32 = 4;
const SEC_STATS: u32 = 5;

/// Fixed-width doc record: object u64 + class u16 + len f32 + live u8.
const DOC_RECORD: usize = 15;

/// A decoded sidecar: the index plus the journal position it reflects.
pub struct Sidecar {
    /// Store epoch the index was serialized at.
    pub epoch: u64,
    /// Journal sequence number the index was serialized at.
    pub seq: u64,
    /// The reassembled index.
    pub index: SearchIndex,
}

/// Lazy, borrowing view of a sidecar image: header and CRCs verified on
/// open, term strings and posting lists resolved on demand from offsets.
pub struct PostingsReader<'a> {
    epoch: u64,
    seq: u64,
    terms: ArenaReader<'a>,
    list_count: usize,
    list_offsets: &'a [u8],
    list_records: &'a [u8],
    doc_count: usize,
    doc_records: &'a [u8],
    docterms: &'a [u8],
    stats: &'a [u8],
}

impl<'a> PostingsReader<'a> {
    /// Open a sidecar image: verify magic, version, header CRC, section
    /// layout and per-section CRCs; parse nothing else.
    pub fn open(buf: &'a [u8]) -> Result<PostingsReader<'a>, BinaryError> {
        let sections = Sections::open(buf, SIDECAR_MAGIC, SIDECAR_VERSION, 16)?;
        if sections.len() != 5 {
            return Err(BinaryError::Sections {
                detail: "expected exactly 5 sections",
            });
        }
        let extra = sections.extra();
        let epoch = u64::from_le_bytes(extra[..8].try_into().unwrap());
        let seq = u64::from_le_bytes(extra[8..16].try_into().unwrap());

        let terms = ArenaReader::open(sections.get(SEC_TERMS, "terms")?, "terms")?;

        let post = sections.get(SEC_POSTINGS, "postings")?;
        let mut c = Cursor::new(post, "postings");
        let list_count = c.u32()? as usize;
        let list_offsets = c.bytes(list_count.checked_mul(4).ok_or(BinaryError::Malformed {
            section: "postings",
            detail: "count overflow",
        })?)?;
        let list_records = c.rest();

        let docs = sections.get(SEC_DOCS, "docs")?;
        let mut c = Cursor::new(docs, "docs");
        let doc_count = c.u32()? as usize;
        let doc_records = c.bytes(doc_count.checked_mul(DOC_RECORD).ok_or(
            BinaryError::Malformed {
                section: "docs",
                detail: "count overflow",
            },
        )?)?;
        if !c.at_end() {
            return Err(BinaryError::Malformed {
                section: "docs",
                detail: "trailing doc bytes",
            });
        }

        Ok(PostingsReader {
            epoch,
            seq,
            terms,
            list_count,
            list_offsets,
            list_records,
            doc_count,
            doc_records,
            docterms: sections.get(SEC_DOCTERMS, "docterms")?,
            stats: sections.get(SEC_STATS, "stats")?,
        })
    }

    /// Store epoch this sidecar reflects.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Journal sequence number this sidecar reflects.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Number of term ids (== number of posting lists).
    pub fn term_count(&self) -> usize {
        self.list_count
    }

    /// Number of doc slots (tombstones included).
    pub fn doc_count(&self) -> usize {
        self.doc_count
    }

    /// Resolve the term string for `id`, borrowing from the buffer.
    pub fn term(&self, id: u32) -> Result<&'a str, BinaryError> {
        self.terms.get(u64::from(id))
    }

    /// Decode the posting list of term `id` on demand from its offset.
    pub fn posting_list(&self, id: u32) -> Result<PostingList, BinaryError> {
        let i = usize::try_from(id)
            .ok()
            .filter(|&i| i < self.list_count)
            .ok_or(BinaryError::Malformed {
                section: "postings",
                detail: "term id out of range",
            })?;
        let start =
            u32::from_le_bytes(self.list_offsets[i * 4..i * 4 + 4].try_into().unwrap()) as usize;
        if start > self.list_records.len() {
            return Err(BinaryError::Malformed {
                section: "postings",
                detail: "list offset out of bounds",
            });
        }
        let mut c = Cursor::new(&self.list_records[start..], "postings");
        let live = u32::try_from(c.varint()?).map_err(|_| BinaryError::Malformed {
            section: "postings",
            detail: "live count does not fit",
        })?;
        let max_tf = c.f32()?;
        let n = c.index()?;
        if n > self.list_records.len() {
            return Err(BinaryError::Malformed {
                section: "postings",
                detail: "posting count exceeds section",
            });
        }
        if (live as usize) > n {
            return Err(BinaryError::Malformed {
                section: "postings",
                detail: "live exceeds posting count",
            });
        }
        let mut postings = Vec::with_capacity(n);
        let mut doc: u64 = 0;
        for k in 0..n {
            let delta = c.varint()?;
            doc = if k == 0 {
                delta
            } else {
                // Strictly ascending: delta is stored minus one.
                doc.checked_add(delta)
                    .and_then(|d| d.checked_add(1))
                    .ok_or(BinaryError::Malformed {
                        section: "postings",
                        detail: "doc id overflow",
                    })?
            };
            let d = u32::try_from(doc)
                .ok()
                .filter(|&d| (d as usize) < self.doc_count)
                .ok_or(BinaryError::Malformed {
                    section: "postings",
                    detail: "doc id out of range",
                })?;
            postings.push(Posting {
                doc: d,
                weighted_tf: c.f32()?,
            });
        }
        Ok(PostingList {
            postings,
            live,
            max_tf,
        })
    }

    /// Decode doc slot `i` (fixed-width record, O(1)).
    fn doc(&self, i: usize) -> Result<crate::search::DocEntry, BinaryError> {
        debug_assert!(i < self.doc_count);
        let r = &self.doc_records[i * DOC_RECORD..(i + 1) * DOC_RECORD];
        let live = match r[14] {
            0 => false,
            1 => true,
            _ => {
                return Err(BinaryError::Malformed {
                    section: "docs",
                    detail: "bad live flag",
                })
            }
        };
        Ok(crate::search::DocEntry {
            object: ObjectId(u64::from_le_bytes(r[..8].try_into().unwrap())),
            class: ClassId(u16::from_le_bytes(r[8..10].try_into().unwrap())),
            len: f32::from_le_bytes(r[10..14].try_into().unwrap()),
            live,
        })
    }

    /// Materialize the full [`SearchIndex`]. Cross-section invariants
    /// (forward index parallel to docs, term/doc ids in range, live flags
    /// consistent with empty forward lists) are all typed errors.
    pub fn read_index(&self) -> Result<SearchIndex, BinaryError> {
        let mut dict = TermDict::with_capacity(self.list_count);
        for id in 0..self.list_count {
            let term = self.terms.get(id as u64)?;
            if dict.intern(term) != id as u32 {
                return Err(BinaryError::Malformed {
                    section: "terms",
                    detail: "duplicate term",
                });
            }
        }

        let postings = (0..self.list_count)
            .map(|id| self.posting_list(id as u32))
            .collect::<Result<ChunkVec<_>, _>>()?;
        let docs = (0..self.doc_count)
            .map(|i| self.doc(i))
            .collect::<Result<ChunkVec<_>, _>>()?;

        let mut c = Cursor::new(self.docterms, "docterms");
        let ndocs = c.u32()? as usize;
        if ndocs != self.doc_count {
            return Err(BinaryError::Malformed {
                section: "docterms",
                detail: "forward index not parallel to docs",
            });
        }
        let mut doc_terms = ChunkVec::new();
        for doc in docs.iter().take(ndocs) {
            let n = c.index()?;
            if n > self.docterms.len() {
                return Err(BinaryError::Malformed {
                    section: "docterms",
                    detail: "term count exceeds section",
                });
            }
            if n > 0 && !doc.live {
                return Err(BinaryError::Malformed {
                    section: "docterms",
                    detail: "tombstoned doc has forward terms",
                });
            }
            let mut fwd = Vec::with_capacity(n);
            for _ in 0..n {
                let tid = u32::try_from(c.varint()?)
                    .ok()
                    .filter(|&t| (t as usize) < self.list_count)
                    .ok_or(BinaryError::Malformed {
                        section: "docterms",
                        detail: "term id out of range",
                    })?;
                fwd.push((tid, c.f32()?));
            }
            doc_terms.push(fwd);
        }
        if !c.at_end() {
            return Err(BinaryError::Malformed {
                section: "docterms",
                detail: "trailing forward-index bytes",
            });
        }

        let mut c = Cursor::new(self.stats, "stats");
        let live_docs = usize::try_from(c.u64()?).map_err(|_| BinaryError::Malformed {
            section: "stats",
            detail: "live docs does not fit",
        })?;
        let total_len = c.f64()?;
        let params = Bm25Params {
            k1: c.f64()?,
            b: c.f64()?,
            all_terms_boost: c.f64()?,
        };
        if !c.at_end() {
            return Err(BinaryError::Malformed {
                section: "stats",
                detail: "trailing stats bytes",
            });
        }
        if live_docs != docs.iter().filter(|d| d.live).count() {
            return Err(BinaryError::Malformed {
                section: "stats",
                detail: "live doc count inconsistent",
            });
        }

        Ok(SearchIndex::from_sidecar_parts(
            dict, postings, docs, doc_terms, live_docs, total_len, params,
        ))
    }
}

impl SearchIndex {
    /// Serialize this index to a binary sidecar image stamped with the
    /// journal position (`epoch`, `seq`) it reflects.
    pub fn to_sidecar(&self, epoch: u64, seq: u64) -> Vec<u8> {
        let (dict, postings, docs, doc_terms, live_docs, total_len, params) = self.sidecar_parts();

        let mut terms = ArenaWriter::new();
        for id in 0..dict.len() {
            terms.intern(dict.term(id as u32));
        }

        let mut list_records: Vec<u8> = Vec::new();
        let mut list_offsets: Vec<u32> = Vec::with_capacity(postings.len());
        for list in postings.iter() {
            list_offsets.push(u32::try_from(list_records.len()).expect("postings over 4 GiB"));
            write_varint(u64::from(list.live), &mut list_records);
            list_records.extend_from_slice(&list.max_tf.to_le_bytes());
            write_varint(list.postings.len() as u64, &mut list_records);
            let mut prev: u64 = 0;
            for (k, p) in list.postings.iter().enumerate() {
                let doc = u64::from(p.doc);
                // First doc id plain; the rest strictly ascending, minus one.
                let delta = if k == 0 { doc } else { doc - prev - 1 };
                write_varint(delta, &mut list_records);
                prev = doc;
                list_records.extend_from_slice(&p.weighted_tf.to_le_bytes());
            }
        }
        let mut post_section = Vec::with_capacity(4 + list_offsets.len() * 4 + list_records.len());
        post_section.extend_from_slice(&(list_offsets.len() as u32).to_le_bytes());
        for o in &list_offsets {
            post_section.extend_from_slice(&o.to_le_bytes());
        }
        post_section.extend_from_slice(&list_records);

        let mut doc_section = Vec::with_capacity(4 + docs.len() * DOC_RECORD);
        doc_section.extend_from_slice(&(docs.len() as u32).to_le_bytes());
        for d in docs.iter() {
            doc_section.extend_from_slice(&d.object.0.to_le_bytes());
            doc_section.extend_from_slice(&d.class.0.to_le_bytes());
            doc_section.extend_from_slice(&d.len.to_le_bytes());
            doc_section.push(u8::from(d.live));
        }

        let mut fwd_section = Vec::new();
        fwd_section.extend_from_slice(&(doc_terms.len() as u32).to_le_bytes());
        for fwd in doc_terms.iter() {
            write_varint(fwd.len() as u64, &mut fwd_section);
            for (tid, tf) in fwd {
                write_varint(u64::from(*tid), &mut fwd_section);
                fwd_section.extend_from_slice(&tf.to_le_bytes());
            }
        }

        let mut stats = Vec::with_capacity(40);
        stats.extend_from_slice(&(live_docs as u64).to_le_bytes());
        stats.extend_from_slice(&total_len.to_le_bytes());
        stats.extend_from_slice(&params.k1.to_le_bytes());
        stats.extend_from_slice(&params.b.to_le_bytes());
        stats.extend_from_slice(&params.all_terms_boost.to_le_bytes());

        let mut extra = Vec::with_capacity(16);
        extra.extend_from_slice(&epoch.to_le_bytes());
        extra.extend_from_slice(&seq.to_le_bytes());
        let mut w = SectionWriter::new(SIDECAR_MAGIC, SIDECAR_VERSION, extra);
        w.section(SEC_TERMS, terms.finish());
        w.section(SEC_POSTINGS, post_section);
        w.section(SEC_DOCS, doc_section);
        w.section(SEC_DOCTERMS, fwd_section);
        w.section(SEC_STATS, stats);
        w.finish()
    }

    /// Decode a sidecar image produced by [`SearchIndex::to_sidecar`].
    pub fn from_sidecar(bytes: &[u8]) -> Result<Sidecar, BinaryError> {
        let r = PostingsReader::open(bytes)?;
        Ok(Sidecar {
            epoch: r.epoch(),
            seq: r.seq(),
            index: r.read_index()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Query;
    use semex_store::{SourceInfo, SourceKind, Store};

    fn sample_index() -> (Store, SearchIndex) {
        let mut st = Store::with_builtin_model();
        let person = st.model().class("Person").unwrap();
        let publication = st.model().class("Publication").unwrap();
        let name = st.model().attr("name").unwrap();
        let title = st.model().attr("title").unwrap();
        st.register_source(SourceInfo::new("t", SourceKind::Synthetic));
        for i in 0..20 {
            let p = st.add_object(person);
            st.add_attr(p, name, format!("person number {i} garcia").into())
                .unwrap();
        }
        let pb = st.add_object(publication);
        st.add_attr(pb, title, "data integration with garcia".into())
            .unwrap();
        // A merge so the index carries a tombstone + pooled doc.
        st.enable_events();
        let a = semex_store::ObjectId(0);
        let b = semex_store::ObjectId(1);
        let mut idx = SearchIndex::build(&st);
        st.merge(a, b).unwrap();
        let events = st.take_events();
        idx.apply_events(&st, &events);
        (st, idx)
    }

    fn results(idx: &SearchIndex, st: &Store, q: &str) -> Vec<(u64, String)> {
        idx.search(st, &Query::parse(q), 10)
            .into_iter()
            .map(|h| (h.object.0, format!("{:.6}", h.score)))
            .collect()
    }

    #[test]
    fn sidecar_round_trips_byte_identical_results() {
        let (st, idx) = sample_index();
        let bytes = idx.to_sidecar(7, 42);
        let side = SearchIndex::from_sidecar(&bytes).unwrap();
        assert_eq!(side.epoch, 7);
        assert_eq!(side.seq, 42);
        for q in ["garcia", "person number", "data integration", "nothing"] {
            assert_eq!(results(&side.index, &st, q), results(&idx, &st, q), "{q}");
        }
        assert_eq!(side.index.doc_count(), idx.doc_count());
        assert_eq!(side.index.term_count(), idx.term_count());
        assert_eq!(side.index.apply_calls(), 0);
    }

    #[test]
    fn sidecar_survives_further_mutations() {
        let (mut st, idx) = sample_index();
        let bytes = idx.to_sidecar(1, 1);
        let mut side = SearchIndex::from_sidecar(&bytes).unwrap().index;
        let mut twin = idx.clone();
        // The restored index must absorb deltas exactly like the original.
        let name = st.model().attr("name").unwrap();
        let p = st.add_object(st.model().class("Person").unwrap());
        st.add_attr(p, name, "late arrival garcia".into()).unwrap();
        let events = st.take_events();
        side.apply_events(&st, &events);
        twin.apply_events(&st, &events);
        for q in ["garcia", "late arrival"] {
            assert_eq!(results(&side, &st, q), results(&twin, &st, q), "{q}");
        }
    }

    #[test]
    fn lazy_reader_resolves_lists_on_demand() {
        let (_, idx) = sample_index();
        let bytes = idx.to_sidecar(0, 0);
        let r = PostingsReader::open(&bytes).unwrap();
        assert!(r.term_count() > 0);
        let garcia = (0..r.term_count() as u32)
            .find(|&id| r.term(id).unwrap() == "garcia")
            .expect("term present");
        let list = r.posting_list(garcia).unwrap();
        assert!(list.live > 0);
        assert!(list.postings.windows(2).all(|w| w[0].doc < w[1].doc));
    }

    #[test]
    fn truncation_and_bit_flips_are_typed_errors() {
        let (_, idx) = sample_index();
        let bytes = idx.to_sidecar(3, 9);
        for cut in 0..bytes.len() {
            let r = PostingsReader::open(&bytes[..cut]).map(|r| r.read_index());
            assert!(
                matches!(r, Err(_) | Ok(Err(_))),
                "truncation at {cut} was not rejected"
            );
        }
        for pos in (0..bytes.len()).step_by(7) {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            let r = PostingsReader::open(&bad).map(|r| r.read_index());
            assert!(
                matches!(r, Err(_) | Ok(Err(_))),
                "bit flip at {pos} was not rejected"
            );
        }
    }
}

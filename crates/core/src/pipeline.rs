//! The build pipeline: sources → extraction → reconciliation → indexing.

use crate::facade::Semex;
use semex_extract::{
    bibtex::extract_bibtex, email::extract_mbox, fswalk::extract_tree, ical::extract_ical,
    latex::extract_latex, vcard::extract_vcards, ExtractContext, ExtractError, ExtractStats,
};
use semex_index::SearchIndex;
use semex_model::DomainModel;
use semex_recon::{reconcile, ReconConfig, ReconReport, Variant};
use semex_store::{SourceInfo, SourceKind, Store};
use std::fmt;
use std::path::PathBuf;

/// Platform configuration.
#[derive(Debug, Clone)]
pub struct SemexConfig {
    /// The reconciliation variant the pipeline runs ([`Variant::Full`] by
    /// default; ablations exist for evaluation).
    pub recon_variant: Variant,
    /// Reconciliation tunables.
    pub recon: ReconConfig,
    /// Skip reconciliation entirely (raw reference graph — used by
    /// experiments that reconcile separately).
    pub skip_recon: bool,
}

impl Default for SemexConfig {
    fn default() -> Self {
        SemexConfig {
            recon_variant: Variant::Full,
            recon: ReconConfig::default(),
            skip_recon: false,
        }
    }
}

/// A registered source: a name plus where its content comes from.
#[derive(Debug, Clone)]
pub enum SourceSpec {
    /// An mbox archive (or single RFC-2822 message), inline content.
    Mbox {
        /// Display name recorded as provenance.
        name: String,
        /// The archive text.
        content: String,
    },
    /// A vCard file, inline content.
    Vcard {
        /// Display name recorded as provenance.
        name: String,
        /// The vCard text.
        content: String,
    },
    /// A BibTeX bibliography, inline content.
    Bibtex {
        /// Display name recorded as provenance.
        name: String,
        /// The bibliography text.
        content: String,
    },
    /// A LaTeX source, inline content.
    Latex {
        /// Display name recorded as provenance.
        name: String,
        /// The LaTeX source text.
        content: String,
    },
    /// An iCalendar source, inline content.
    Ical {
        /// Display name recorded as provenance.
        name: String,
        /// The calendar text.
        content: String,
    },
    /// A directory tree to walk on disk.
    Directory {
        /// Display name recorded as provenance.
        name: String,
        /// Root of the tree to walk.
        root: PathBuf,
    },
}

impl SourceSpec {
    pub(crate) fn kind(&self) -> SourceKind {
        match self {
            SourceSpec::Mbox { .. } => SourceKind::Email,
            SourceSpec::Vcard { .. } => SourceKind::Contacts,
            SourceSpec::Bibtex { .. } => SourceKind::Bibliography,
            SourceSpec::Latex { .. } => SourceKind::Latex,
            SourceSpec::Ical { .. } => SourceKind::Calendar,
            SourceSpec::Directory { .. } => SourceKind::FileSystem,
        }
    }

    pub(crate) fn name(&self) -> &str {
        match self {
            SourceSpec::Mbox { name, .. }
            | SourceSpec::Vcard { name, .. }
            | SourceSpec::Bibtex { name, .. }
            | SourceSpec::Latex { name, .. }
            | SourceSpec::Ical { name, .. }
            | SourceSpec::Directory { name, .. } => name,
        }
    }

    /// Run this source's extractor into `ctx`.
    pub(crate) fn extract(
        &self,
        ctx: &mut ExtractContext<'_>,
    ) -> Result<ExtractStats, ExtractError> {
        match self {
            SourceSpec::Mbox { content, .. } => extract_mbox(content, ctx),
            SourceSpec::Vcard { content, .. } => extract_vcards(content, ctx),
            SourceSpec::Bibtex { content, .. } => extract_bibtex(content, ctx),
            SourceSpec::Latex { content, .. } => extract_latex(content, ctx).map(|(s, _)| s),
            SourceSpec::Ical { content, .. } => extract_ical(content, ctx),
            SourceSpec::Directory { root, .. } => extract_tree(root, ctx),
        }
    }

    /// Extraction priority: bibliographies first (so LaTeX `\cite` keys
    /// resolve), then everything else, LaTeX last.
    fn priority(&self) -> u8 {
        match self {
            SourceSpec::Bibtex { .. } => 0,
            SourceSpec::Mbox { .. } | SourceSpec::Vcard { .. } | SourceSpec::Ical { .. } => 1,
            SourceSpec::Directory { .. } => 2,
            SourceSpec::Latex { .. } => 3,
        }
    }
}

/// Errors from the build pipeline and the mutating facade paths.
#[derive(Debug)]
pub enum SemexError {
    /// A source failed to extract.
    Extract {
        /// The failing source's name.
        source: String,
        /// The underlying error.
        error: ExtractError,
    },
    /// A store mutation was rejected by the association database.
    Store(semex_store::StoreError),
    /// The platform is in degraded read-only mode: a permanent journal
    /// failure (full disk, wedged log, …) means new mutations could not be
    /// made durable, so they are rejected rather than silently accepted and
    /// lost. Queries keep working; already-buffered events stay in memory.
    /// Once the underlying condition is fixed, call
    /// [`crate::Semex::try_recover_journal`] to repair the journal,
    /// flush the backlog, and leave degraded mode.
    Degraded {
        /// The journal failure that triggered degradation.
        cause: String,
    },
}

impl fmt::Display for SemexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SemexError::Extract { source, error } => {
                write!(f, "extraction failed for source {source:?}: {error}")
            }
            SemexError::Store(error) => write!(f, "store mutation rejected: {error}"),
            SemexError::Degraded { cause } => write!(
                f,
                "platform is in degraded read-only mode after a journal failure ({cause}); \
                 reads are served, mutations are rejected — fix the underlying condition \
                 and call try_recover_journal()"
            ),
        }
    }
}

impl std::error::Error for SemexError {}

impl From<semex_store::StoreError> for SemexError {
    fn from(error: semex_store::StoreError) -> SemexError {
        SemexError::Store(error)
    }
}

/// What the pipeline did: per-source extraction stats plus the
/// reconciliation report.
#[derive(Debug)]
pub struct BuildReport {
    /// `(source name, stats)` in extraction order.
    pub extraction: Vec<(String, ExtractStats)>,
    /// Reconciliation outcome (absent when `skip_recon`).
    pub recon: Option<ReconReport>,
    /// Indexed objects.
    pub indexed: usize,
    /// Total wall-clock time.
    pub elapsed: std::time::Duration,
    /// True when this platform was restored from persisted state (snapshot
    /// or journal) rather than built by the pipeline: extraction and
    /// reconciliation never ran in this session, so their stats are empty
    /// by construction, not because nothing was ever extracted.
    pub restored: bool,
}

impl BuildReport {
    /// The report of a platform restored from persisted state: no
    /// extraction, no reconciliation, `indexed` objects in the rebuilt
    /// keyword index.
    pub fn restored(indexed: usize) -> BuildReport {
        BuildReport {
            extraction: Vec::new(),
            recon: None,
            indexed,
            elapsed: std::time::Duration::ZERO,
            restored: true,
        }
    }
}

/// Builder for a [`Semex`] platform.
#[derive(Debug, Default)]
pub struct SemexBuilder {
    sources: Vec<SourceSpec>,
    config: SemexConfig,
    model: Option<DomainModel>,
}

impl SemexBuilder {
    /// A builder with the default configuration and built-in domain model.
    pub fn new() -> Self {
        SemexBuilder::default()
    }

    /// Use a custom (extended) domain model.
    pub fn with_model(mut self, model: DomainModel) -> Self {
        self.model = Some(model);
        self
    }

    /// Override the configuration.
    pub fn with_config(mut self, config: SemexConfig) -> Self {
        self.config = config;
        self
    }

    /// Register an inline mbox source.
    pub fn add_mbox(mut self, name: &str, content: impl Into<String>) -> Self {
        self.sources.push(SourceSpec::Mbox {
            name: name.to_owned(),
            content: content.into(),
        });
        self
    }

    /// Register an inline vCard source.
    pub fn add_vcards(mut self, name: &str, content: impl Into<String>) -> Self {
        self.sources.push(SourceSpec::Vcard {
            name: name.to_owned(),
            content: content.into(),
        });
        self
    }

    /// Register an inline BibTeX source.
    pub fn add_bibtex(mut self, name: &str, content: impl Into<String>) -> Self {
        self.sources.push(SourceSpec::Bibtex {
            name: name.to_owned(),
            content: content.into(),
        });
        self
    }

    /// Register an inline LaTeX source.
    pub fn add_latex(mut self, name: &str, content: impl Into<String>) -> Self {
        self.sources.push(SourceSpec::Latex {
            name: name.to_owned(),
            content: content.into(),
        });
        self
    }

    /// Register an inline iCalendar source.
    pub fn add_ical(mut self, name: &str, content: impl Into<String>) -> Self {
        self.sources.push(SourceSpec::Ical {
            name: name.to_owned(),
            content: content.into(),
        });
        self
    }

    /// Register a directory tree to walk at build time.
    pub fn add_directory(mut self, name: &str, root: impl Into<PathBuf>) -> Self {
        self.sources.push(SourceSpec::Directory {
            name: name.to_owned(),
            root: root.into(),
        });
        self
    }

    /// Run the pipeline: extract every source (bibliographies first),
    /// reconcile, index.
    pub fn build(self) -> Result<Semex, SemexError> {
        let start = std::time::Instant::now();
        let model = self.model.unwrap_or_default();
        let mut store = Store::new(model);
        let mut extraction = Vec::new();

        let mut sources = self.sources;
        sources.sort_by_key(SourceSpec::priority);

        // One shared context so Message-IDs and BibTeX keys resolve across
        // sources.
        {
            let mut registered: Vec<(semex_store::SourceId, SourceSpec)> = Vec::new();
            for spec in sources {
                let sid = store.register_source(SourceInfo::new(spec.name(), spec.kind()));
                registered.push((sid, spec));
            }
            let first = registered.first().map(|(sid, _)| *sid);
            let mut ctx_opt = first.map(|sid| ExtractContext::new(&mut store, sid));
            for (sid, spec) in registered {
                let ctx = ctx_opt.as_mut().expect("context exists when sources do");
                ctx.set_source(sid);
                match spec.extract(ctx) {
                    Ok(stats) => extraction.push((spec.name().to_owned(), stats)),
                    Err(error) => {
                        return Err(SemexError::Extract {
                            source: spec.name().to_owned(),
                            error,
                        })
                    }
                }
            }
        }

        let recon = if self.config.skip_recon {
            None
        } else {
            Some(reconcile(
                &mut store,
                self.config.recon_variant,
                &self.config.recon,
            ))
        };

        // Reuse the reconciliation thread budget for the sharded index
        // build; results are identical at any thread count.
        let index = SearchIndex::build_threaded(&store, self.config.recon.threads.max(1));
        let report = BuildReport {
            extraction,
            recon,
            indexed: index.doc_count(),
            elapsed: start.elapsed(),
            restored: false,
        };
        Ok(Semex::assemble(store, index, self.config, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semex_model::names::class;

    const BIB: &str = "@inproceedings{d5, title={Reference Reconciliation in Complex Spaces}, author={Dong, Xin and Halevy, Alon}, booktitle={SIGMOD}, year=2005}";
    const TEX: &str = "\\title{A Draft}\n\\author{Xin Dong}\n\\cite{d5}\n";
    const MBOX: &str = "From: Xin Dong <luna@cs.example.edu>\nTo: Alon Halevy <alon@cs.example.edu>\nSubject: demo plan\nMessage-ID: <m1@x>\n\nSee you Friday.\n";
    const VCF: &str = "BEGIN:VCARD\nFN:Xin Dong\nEMAIL:luna@cs.example.edu\nORG:Evergreen University\nEND:VCARD\n";

    #[test]
    fn full_pipeline_builds() {
        let semex = SemexBuilder::new()
            .add_latex("draft", TEX)
            .add_mbox("inbox", MBOX)
            .add_vcards("contacts", VCF)
            .add_bibtex("library", BIB)
            .build()
            .unwrap();
        let report = semex.report();
        assert_eq!(report.extraction.len(), 4);
        // Bibliography was extracted first regardless of add order, so the
        // LaTeX \cite resolved.
        assert_eq!(report.extraction[0].0, "library");
        let cites = semex
            .store()
            .model()
            .assoc(semex_model::names::assoc::CITES)
            .unwrap();
        assert_eq!(semex.store().assoc_count(cites), 1);
        let recon = report.recon.as_ref().unwrap();
        assert!(recon.merges > 0, "the three Xin Dong references merge");
        assert!(report.indexed > 0);
    }

    #[test]
    fn search_after_build() {
        let semex = SemexBuilder::new()
            .add_bibtex("library", BIB)
            .add_mbox("inbox", MBOX)
            .build()
            .unwrap();
        let hits = semex.search("reconciliation", 5);
        assert!(!hits.is_empty());
        let top = &hits[0];
        assert_eq!(top.class, class::PUBLICATION);
        assert!(top.label.contains("Reference Reconciliation"));
    }

    #[test]
    fn skip_recon_mode() {
        let cfg = SemexConfig {
            skip_recon: true,
            ..Default::default()
        };
        let semex = SemexBuilder::new()
            .with_config(cfg)
            .add_bibtex("library", BIB)
            .add_vcards("contacts", VCF)
            .build()
            .unwrap();
        assert!(semex.report().recon.is_none());
        let c_person = semex.store().model().class(class::PERSON).unwrap();
        // Dong appears as "Dong, Xin" (bib) and "Xin Dong" (vCard): both
        // survive un-reconciled.
        assert_eq!(semex.store().class_count(c_person), 3);
    }

    #[test]
    fn bad_source_is_reported() {
        let err = SemexBuilder::new()
            .add_bibtex("broken", "@inproceedings{x, title={unterminated")
            .build()
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("broken"), "{msg}");
    }

    #[test]
    fn custom_model_extension() {
        let mut model = DomainModel::builtin();
        model
            .add_class(semex_model::ClassDef::new("Gadget"))
            .unwrap();
        let semex = SemexBuilder::new()
            .with_model(model)
            .add_bibtex("library", BIB)
            .build()
            .unwrap();
        assert!(semex.store().model().class("Gadget").is_some());
    }
}

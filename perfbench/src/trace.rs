//! In-memory spans around the benchmark's calls into each layer.
//!
//! With tracing on, [`span`] records `(name, start, end, parent)` for the
//! calling thread; spans are kept in memory and written out once, when the
//! run ends. With tracing off, [`span`] only runs the closure.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

static ON: AtomicBool = AtomicBool::new(false);

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

#[derive(Default)]
struct Recorder {
    origin: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder::default());
}

pub fn enable() {
    ON.store(true, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Run `f` inside a span named `name`.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let id = REC.with(|r| {
        let mut r = r.borrow_mut();
        let origin = *r.origin.get_or_insert_with(Instant::now);
        let parent = r.open.last().copied();
        let start_ns = origin.elapsed().as_nanos() as u64;
        r.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        let id = r.spans.len() - 1;
        r.open.push(id);
        id
    });
    let out = f();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let end = r.origin.expect("span opened").elapsed().as_nanos() as u64;
        r.spans[id].end_ns = end;
        r.open.pop();
    });
    out
}

/// Durations in microseconds of every finished span called `name`.
pub fn durations_us(name: &str) -> Vec<f64> {
    REC.with(|r| {
        r.borrow()
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    })
}

/// Per-name `(calls, total µs, self µs)`: self time is a span's duration
/// minus the part its child spans cover.
pub fn self_times() -> BTreeMap<&'static str, (usize, f64, f64)> {
    REC.with(|r| {
        let r = r.borrow();
        let mut child = vec![0u64; r.spans.len()];
        for s in &r.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (i, s) in r.spans.iter().enumerate() {
            let total = (s.end_ns - s.start_ns) as f64 / 1e3;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total;
            e.2 += total - child[i] as f64 / 1e3;
        }
        out
    })
}

/// Write every span as `id name start_ns end_ns parent` lines.
pub fn write_to(path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    REC.with(|r| -> std::io::Result<()> {
        for (i, s) in r.borrow().spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    })?;
    out.flush()
}

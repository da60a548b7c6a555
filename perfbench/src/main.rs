//! SEMEX benchmark: one command that runs a named workload from a seed,
//! checks the program's outputs, and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <desktop_build|wire_reads|mail_ingest> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --steadiness --runs <n> [--seconds <s>]
//! ```
//!
//! The last line of standard output is the result: `correct`, `attempted`,
//! `failed` and the metrics — the end-to-end ones with `--trace 0`, the
//! per-layer ones with `--trace 1`. See `perfbench/README.md`.

mod alloc;
mod corpus;
mod desktop;
mod ingest;
mod reads;
mod stats;
mod steadiness;
mod trace;
mod wire;

use std::path::PathBuf;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

pub const WORKLOADS: [&str; 3] = ["desktop_build", "wire_reads", "mail_ingest"];

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_alloc_mb", "MiB"),
    ("disk_mb", "MiB"),
    ("recon_f1", "ratio"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A layer
/// a workload does not call reads 0 there.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("extract.ms", "ms"),
    ("extract.records", "count"),
    ("recon.ms", "ms"),
    ("recon.candidates", "count"),
    ("recon.iterations", "count"),
    ("recon.merges", "count"),
    ("recon.attr_only_f1", "ratio"),
    ("index.build_ms", "ms"),
    ("journal.snapshot_ms", "ms"),
    ("store.snapshot_bytes", "bytes"),
    ("index.sidecar_bytes", "bytes"),
    ("index.search_us", "us"),
    ("query.plan_us", "us"),
    ("query.exec_us", "us"),
    ("browse.summary_us", "us"),
    ("serve.search_overhead_us", "us"),
    ("serve.pathq_overhead_us", "us"),
    ("serve.browse_overhead_us", "us"),
    ("cache.hit_us", "us"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.evictions", "count"),
    ("tenant.cold_open_ms", "ms"),
    ("tenant.cold_opens", "count"),
    ("tenant.evictions", "count"),
    ("journal.open_ms", "ms"),
    ("core.ingest_us", "us"),
    ("journal.commit_us", "us"),
    ("journal.bytes_per_write", "bytes"),
    ("core.snapshot_us", "us"),
    ("store.events_per_write", "count"),
    ("index.apply_calls", "count"),
    ("serve.ack_overhead_us", "us"),
];

/// Longest a single workload run may take, set-up and checks included.
const WATCHDOG_SECS: u64 = 170;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub steadiness: bool,
    pub runs: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        steadiness: false,
        runs: 5,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--runs" => args.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?,
            "--steadiness" => args.steadiness = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    if !args.steadiness && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.steadiness {
        steadiness::run(&args);
        return;
    }
    if args.trace {
        trace::enable();
    }
    // A run must end: whatever goes wrong, leave with an error well
    // before a caller's three-minute limit rather than hang.
    std::thread::spawn(|| {
        std::thread::sleep(std::time::Duration::from_secs(WATCHDOG_SECS));
        eprintln!("perfbench: the run exceeded {WATCHDOG_SECS} s; giving up");
        std::process::exit(3);
    });
    // All inputs, spaces and span files live under the checkout.
    let base = PathBuf::from(".bench_work");
    let work = base.join(&args.workload);
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).expect("create the work directory");
    let mut out = match args.workload.as_str() {
        "desktop_build" => desktop::run(&args, &work),
        "wire_reads" => reads::run(&args, &work),
        _ => ingest::run(&args, &work),
    };
    let _ = std::fs::remove_dir_all(&work);

    let wanted: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.to_vec()
    };
    let mut metrics = Vec::new();
    for (name, unit) in wanted {
        match out.metrics.iter().position(|m| m.name == name) {
            Some(i) => {
                let m = out.metrics.remove(i);
                out.check(m.unit == unit, || {
                    format!("{name} measured in {}, declared in {unit}", m.unit)
                });
                metrics.push(m);
            }
            None if args.trace => metrics.push(stats::Metric {
                name: name.to_string(),
                value: 0.0,
                unit,
                samples: 0,
            }),
            None => out.check(false, || format!("{name} was not measured")),
        }
    }
    // Whatever is left (the traced run's end-to-end figures) is printed
    // for people, beside the result, so the tracing overhead shows.
    for mut m in std::mem::take(&mut out.metrics) {
        if args.trace {
            m.name = format!("traced.{}", m.name);
        }
        out.report.push(m);
    }
    out.metrics = metrics;
    if args.trace {
        for (name, (calls, total, own)) in trace::self_times() {
            println!(
                "span {name:<20} calls={calls:<7} total_ms={:<12.3} self_ms={:.3}",
                total / 1e3,
                own / 1e3
            );
        }
        let path = base.join(format!("spans-{}-{}.tsv", args.workload, args.seed));
        trace::write_to(&path).expect("write the span file");
        println!("spans written to {}", path.display());
    }
    out.print();
}

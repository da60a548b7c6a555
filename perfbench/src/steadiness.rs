//! Steadiness mode: two sets of runs of this same binary, interleaved,
//! with each set's medians and quartile spreads, plus this machine's noise
//! figures and one traced run per workload beside the untraced medians.

use crate::{Args, END_TO_END, WORKLOADS};
use std::process::Command;
use std::time::Instant;

struct Run {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

fn run_child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Run {
    let exe = std::env::current_exe().expect("own executable");
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .output()
        .expect("run a child benchmark");
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().unwrap_or_default();
    parse_result(last)
        .unwrap_or_else(|| panic!("{workload} seed {seed} printed no result:\n{text}"))
}

/// Read back the result line this binary prints.
fn parse_result(line: &str) -> Option<Run> {
    let field = |key: &str| {
        let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
        Some(line[at..].split([',', '}']).next()?.trim().to_string())
    };
    let metrics_at = line.find("\"metrics\": {")? + 12;
    let mut metrics = Vec::new();
    for part in line[metrics_at..].split("}, ") {
        let name = part.trim_start_matches('{').split('"').nth(1)?;
        let v = part.split("\"value\": ").nth(1)?.split(',').next()?;
        metrics.push((name.to_string(), v.parse().ok()?));
    }
    Some(Run {
        correct: field("correct")? == "true",
        attempted: field("attempted")?.parse().ok()?,
        failed: field("failed")?.parse().ok()?,
        metrics,
    })
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (its default "exclusive" method), with the median between them.
fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    if len < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x, x);
    }
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let median = if len % 2 == 1 {
        v[len / 2]
    } else {
        (v[len / 2 - 1] + v[len / 2]) / 2.0
    };
    (cut(1), median, cut(3))
}

pub fn run(args: &Args) {
    let workloads: Vec<&str> = if args.workload.is_empty() {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let steal_before = cpu_times();
    machine_noise();
    for &w in &workloads {
        let mut sets: [Vec<Run>; 2] = [Vec::new(), Vec::new()];
        for i in 0..args.runs {
            // Alternate which set goes first; the sets use disjoint seeds.
            let order = if i % 2 == 0 { [0, 1] } else { [1, 0] };
            for set in order {
                let seed = 1 + (set * args.runs + i) as u64;
                sets[set].push(run_child(w, seed, args.seconds, false));
            }
        }
        println!(
            "\n== {w}: two sets of {} runs, {} s each",
            args.runs, args.seconds
        );
        for (s, runs) in sets.iter().enumerate() {
            let ok = runs.iter().all(|r| r.correct);
            let shares: Vec<String> = runs
                .iter()
                .map(|r| format!("{}/{}", r.failed, r.attempted))
                .collect();
            println!(
                "set {s}: all correct={ok} failed/attempted {}",
                shares.join(" ")
            );
        }
        println!(
            "{:<16} {:>12} {:>12} {:>9} {:>9} {:>9} {:>9}",
            "metric", "median A", "median B", "B/A-1", "iqr A", "iqr B", "iqr all"
        );
        let mut traced_against = Vec::new();
        for (name, _) in END_TO_END {
            let vals = |runs: &Vec<Run>| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.metrics.iter().find(|(n, _)| n == name).map(|(_, v)| *v))
                    .collect()
            };
            let (qa, qb) = (quartiles(&vals(&sets[0])), quartiles(&vals(&sets[1])));
            let all = quartiles(&[vals(&sets[0]), vals(&sets[1])].concat());
            println!(
                "{name:<16} {:>12.4} {:>12.4} {:>+9.4} {:>9.4} {:>9.4} {:>9.4}",
                qa.1,
                qb.1,
                qb.1 / qa.1 - 1.0,
                (qa.2 - qa.0) / qa.1,
                (qb.2 - qb.0) / qb.1,
                (all.2 - all.0) / all.1
            );
            let runs: Vec<String> = [vals(&sets[0]), vals(&sets[1])]
                .concat()
                .iter()
                .map(|v| format!("{v:.5}"))
                .collect();
            println!("  runs: {}", runs.join(" "));
            traced_against.push((name, qa.1));
        }
        // One traced run: its end-to-end figures are printed in its own
        // report lines; the untraced medians are above.
        let exe = std::env::current_exe().expect("own executable");
        let out = Command::new(exe)
            .args([
                "--workload",
                w,
                "--seed",
                "1",
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                "1",
            ])
            .output()
            .expect("run a traced child");
        let text = String::from_utf8_lossy(&out.stdout);
        println!("traced run (seed 1), end-to-end figures beside set A's medians:");
        for (name, untraced) in traced_against {
            let traced = text.lines().find_map(|l| {
                let rest = l.strip_prefix("report ")?.trim_start();
                let rest = rest.strip_prefix(&format!("traced.{name} "))?;
                rest.split_whitespace().next()?.parse::<f64>().ok()
            });
            match traced {
                Some(t) => println!(
                    "  {name:<16} traced {t:>12.4} untraced {untraced:>12.4} ({:+.1}%)",
                    (t / untraced - 1.0) * 100.0
                ),
                None => println!("  {name:<16} traced run printed no figure"),
            }
        }
    }
    let steal_after = cpu_times();
    if let (Some(a), Some(b)) = (steal_before, steal_after) {
        let busy = (b.0 - a.0) as f64;
        let steal = (b.1 - a.1) as f64;
        println!(
            "\nsteal: {:.1}% of busy CPU time during the session",
            100.0 * steal / busy.max(1.0)
        );
    }
    machine_noise();
}

/// `(busy, steal)` jiffies from the first line of `/proc/stat`.
fn cpu_times() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let f: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal
    let busy = f[0] + f[1] + f[2] + f[5] + f[6] + f.get(7).copied().unwrap_or(0);
    Some((busy, f.get(7).copied().unwrap_or(0)))
}

/// Ten rounds of a pure ALU loop against ten rounds of a pointer chase
/// through 2 MiB (the size of a default space's hot heap, resident in the
/// shared L3): the spread of each shows how steady this machine is.
fn machine_noise() {
    let mut alu = Vec::new();
    for _ in 0..10 {
        let t = Instant::now();
        let mut x: u64 = 1;
        for i in 0..50_000_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(x);
        alu.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let n = (2 << 20) / 8;
    let mut next: Vec<usize> = (0..n).collect();
    // Sattolo's shuffle: one cycle through every slot.
    let mut s: u64 = 0x9e37_79b9_7f4a_7c15;
    for i in (1..n).rev() {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        next.swap(i, (s % i as u64) as usize);
    }
    let mut chase = Vec::new();
    for _ in 0..10 {
        let t = Instant::now();
        let mut p = 0;
        for _ in 0..5_000_000 {
            p = next[p];
        }
        std::hint::black_box(p);
        chase.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let range = |v: &[f64]| {
        let min = v.iter().copied().fold(f64::INFINITY, f64::min);
        let max = v.iter().copied().fold(0.0, f64::max);
        format!("{min:.1}–{max:.1} ms (max/min {:.3})", max / min)
    };
    println!(
        "noise: ALU loop {}; 2 MiB pointer chase {}",
        range(&alu),
        range(&chase)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([5, 1, 3, 2, 4], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0, 2.0, 4.0]), (1.5, 3.0, 4.5));
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // Python extrapolates for two values: [0.75, 1.5, 2.25].
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn result_line_round_trips() {
        let line = "{\"correct\": true, \"attempted\": 480, \"failed\": 20, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \"recon_f1\": {\"value\": 0.9, \"unit\": \"ratio\"}}}";
        let run = parse_result(line).expect("parses");
        assert!(run.correct);
        assert_eq!((run.attempted, run.failed), (480, 20));
        assert_eq!(
            run.metrics,
            vec![("setup_s".to_string(), 0.25), ("recon_f1".to_string(), 0.9)]
        );
    }
}

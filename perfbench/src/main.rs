//! The repository's benchmark: one process runs one workload for a fixed
//! host-time budget and prints one JSON result line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload saturate8 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! A run pools the measured windows of several seeds derived from
//! `--seed` into its simulated metrics, and repeats them until `--seconds`
//! of host time are spent; a seed that runs again must reproduce its
//! simulated metrics exactly. Host times are medians over repetitions,
//! scaled to a reference kernel timed beside them (`calib`), so that the
//! machine's drifting speed does not read as the program's.
//! `--trace 0` prints the end-to-end metrics, measured untraced.
//! `--trace 1` runs each seed untraced and then traced, prints the
//! per-layer metrics, the tracing overhead among them, and writes the spans
//! to `perfbench/out/trace-<workload>-<seed>.jsonl`.
//!
//! Each workload runs in its own process, so process-wide state (the
//! fabric's global class counters) cannot carry over from another one.
//! See `perfbench/NOTES.md` for the workloads and every metric.

mod calib;
mod probe;
mod scenario;
mod trace;

use probe::{median, Window};
use scenario::{Rep, Spec, WORKLOADS};
use std::fmt::Write as _;
use std::time::Instant;
use trace::Trace;

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

struct Args {
    spec: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let spec = scenario::spec(&workload)
        .ok_or(format!("unknown workload {workload}; one of {WORKLOADS:?}"))?;
    Ok(Args {
        spec,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set of this process, MB (Linux `VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let spec = &args.spec;
    let begun = Instant::now();
    let mut trace = Trace::new();
    let mut kernel = calib::Kernel::new();
    // Repetitions with their sub-seed, untraced and traced.
    let mut plain: Vec<(usize, Rep)> = Vec::new();
    let mut traced: Vec<(usize, Rep)> = Vec::new();
    // The first window of each sub-seed; later repetitions must repeat it.
    let mut firsts: Vec<Window> = Vec::new();
    let mut errors: Vec<String> = Vec::new();
    // Seed-to-seed variation of a tail percentile over one short window is
    // larger than the bounds a benchmark can hold, so a run pools the
    // windows of several seeds derived from `--seed`. Repetitions cycle
    // through them until the budget is spent and each has run, and one
    // twice; with tracing, each runs untraced and then traced. The first
    // repetition warms the process up (page faults, allocator growth): its
    // simulated outcome counts, its host times do not, so sub-seed 0 runs
    // untraced once more.
    let subs = spec.sub_seeds;
    let min_reps = if args.trace { 2 * subs + 1 } else { subs + 1 };
    for rep in 0.. {
        let spent = begun.elapsed().as_secs_f64() >= args.seconds;
        if spent && rep >= min_reps {
            break;
        }
        let traced_turn = args.trace && rep % 2 == 1;
        let sub = if args.trace { rep / 2 } else { rep } % subs;
        let seed = args.seed.wrapping_mul(subs as u64).wrapping_add(sub as u64);
        simnet::qos::reset_process_stats();
        trace::count_allocations(traced_turn);
        let r = scenario::run(spec, seed, &mut kernel, traced_turn.then_some(&mut trace));
        trace::count_allocations(false);
        eprintln!(
            "perfbench: {} seed {} sub {sub}{}: setup {:.3} s (ref {:.3}), window {:.3} s (ref {:.3}), {} events",
            spec.name,
            args.seed,
            if traced_turn { " (traced)" } else { "" },
            r.setup_s,
            r.setup_ref_s,
            r.window_s,
            r.window_ref_s,
            r.window.get("events")
        );
        errors.extend(r.errors.iter().cloned());
        match firsts.get(sub) {
            None => firsts.push(r.window.clone()),
            Some(w) if scenario::metrics(w) != scenario::metrics(&r.window) => errors.push(
                format!("sub-seed {sub}: simulated metrics differ between repetitions"),
            ),
            Some(_) => {}
        }
        if traced_turn {
            traced.push((sub, r));
        } else if rep > 0 {
            plain.push((sub, r));
        }
    }

    let pooled = Window::pool(&firsts);
    let sim = scenario::metrics(&pooled);
    let med = |reps: &[(usize, Rep)], f: fn(&Rep) -> f64| {
        median(&reps.iter().map(|(_, r)| f(r)).collect::<Vec<_>>())
    };
    // Host time of one window: per sub-seed, the median of its
    // repetitions' window time (scaled to the reference kernel). A median
    // over sub-seeds then sets aside the odd window that does far more
    // host work than its events show (repair1's extra verify passes).
    let sub_times = |reps: &[(usize, Rep)]| -> Vec<f64> {
        (0..subs)
            .map(|k| {
                let v: Vec<f64> = reps
                    .iter()
                    .filter(|(sub, _)| *sub == k)
                    .map(|(_, r)| r.window_ref_s)
                    .collect();
                median(&v)
            })
            .collect()
    };
    let times = sub_times(&plain);
    let window_s = median(&times);
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if !args.trace {
        for (name, unit) in [
            ("commits_per_sec", "1/s"),
            ("commit_p50_ms", "ms"),
            ("commit_p99_ms", "ms"),
            ("commit_mean_ms", "ms"),
        ] {
            let v = sim.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
            metrics.push((name, v.expect("end-to-end metric"), unit));
        }
        metrics.push(("window_s", window_s, "s"));
        metrics.push((
            "events_per_sec",
            median(
                &times
                    .iter()
                    .zip(&firsts)
                    .map(|(t, w)| w.get("events") as f64 / t)
                    .collect::<Vec<_>>(),
            ),
            "1/s",
        ));
        metrics.push(("setup_s", med(&plain, |r| r.setup_ref_s), "s"));
        metrics.push(("peak_rss_mb", peak_rss_mb(), "MB"));
    } else {
        // Per-layer: every simulated metric but the end-to-end ones.
        for &(name, v) in sim.iter().filter(|(n, _)| n.contains('.')) {
            metrics.push((name, v, unit_of(name)));
        }
        let traced_window_s = median(&sub_times(&traced));
        let host = [
            ("simcore.run_s", traced_window_s),
            ("simcore.warmup_s", med(&traced, |r| r.warmup_s)),
            (
                "simcore.allocs_per_event",
                med(&traced, |r| {
                    r.allocs.calls as f64 / r.window.get("events") as f64
                }),
            ),
            (
                "simcore.alloc_bytes_per_event",
                med(&traced, |r| {
                    r.allocs.bytes as f64 / r.window.get("events") as f64
                }),
            ),
            ("txnkit.scenario.build_s", med(&traced, |r| r.build_s)),
            ("workload.install_s", med(&traced, |r| r.install_s)),
            ("txnkit.recovery.read_s", med(&traced, |r| r.read_s)),
            ("txnkit.recovery.scan_s", med(&traced, |r| r.scan_s)),
            ("trace.overhead_ratio", traced_window_s / window_s),
            ("trace.spans", trace.len() as f64),
        ];
        for (name, v) in host {
            metrics.push((name, v, unit_of(name)));
        }
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-{}.jsonl", spec.name, args.seed));
        if let Err(e) = trace.write(&path) {
            errors.push(format!("writing {}: {e}", path.display()));
        }
    }

    for (name, v, _) in &mut metrics {
        if !v.is_finite() {
            errors.push(format!("{name} is {v}"));
            *v = 0.0;
        }
    }
    errors.sort();
    errors.dedup();
    for e in &errors {
        eprintln!("perfbench: CHECK FAILED: {e}");
    }
    let (committed, aborted) = (pooled.get("wl.committed"), pooled.get("wl.aborted"));
    let mut out = String::new();
    write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        errors.is_empty(),
        committed + aborted,
        aborted
    )
    .expect("writing to a String cannot fail");
    for (i, (name, v, unit)) in metrics.iter().enumerate() {
        write!(
            out,
            "{}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    println!("{out}");
}

/// Unit of a per-layer metric, from its name.
fn unit_of(name: &str) -> &'static str {
    let leaf = name.rsplit('.').next().unwrap_or(name);
    if leaf.ends_with("_mb_s") {
        "MB/s"
    } else if leaf.ends_with("_ms") {
        "ms"
    } else if leaf.ends_with("_us") {
        "us"
    } else if leaf.ends_with("_s") {
        "s"
    } else if leaf.ends_with("_mb") {
        "MB"
    } else if leaf.starts_with("bytes") || leaf.ends_with("_bytes") {
        "B"
    } else if leaf.contains("bytes_per_commit") {
        "B/commit"
    } else if leaf.contains("bytes_per_event") {
        "B/event"
    } else if leaf.ends_with("_per_commit") {
        "1/commit"
    } else if leaf.ends_with("_per_event") {
        "1/event"
    } else if leaf.ends_with("_per_insert") {
        "1/insert"
    } else if leaf.ends_with("_per_batch") {
        "1/batch"
    } else if leaf.starts_with("cpu_busy") {
        "fraction"
    } else if leaf.ends_with("_ratio") {
        "ratio"
    } else {
        "count"
    }
}

//! T9 — pipelined bulk-transfer engine and mirror-balanced read path:
//! read throughput vs in-flight window × routing policy on a healthy
//! 4-member striped pool. Two workloads: small 4 KiB ops (latency-bound,
//! the window hides round trips) and 1 MiB bulk reads (wire-bound, the
//! window keeps every stripe port busy and balanced routing doubles the
//! serving ports).

use pm_bench::{json, measure_pool_read_bw, Args, ReadBwOpts, ReadWorkload, Table};

fn main() {
    let args = Args::parse();

    let mut metrics: Vec<(String, f64)> = Vec::new();

    let mut t = Table::new(&[
        "window",
        "routing",
        "kops_per_s",
        "p50_us",
        "p99_us",
        "speedup",
    ]);
    let mut base_ops = 0.0;
    let mut best_ops = 0.0;
    for window in [1u32, 2, 4, 8] {
        for balanced in [false, true] {
            let mut o = ReadBwOpts::defaults(ReadWorkload::SmallOps, window, balanced);
            if args.full {
                o.batches_per_client *= 4;
            }
            let r = measure_pool_read_bw(o);
            assert_eq!(r.errors, 0, "bench run must be error-free");
            if window == 1 && !balanced {
                base_ops = r.ops_per_sec();
            }
            best_ops = r.ops_per_sec().max(best_ops);
            let policy = if balanced { "balanced" } else { "primary" };
            let speedup = r.ops_per_sec() / base_ops;
            t.row(&[
                window.to_string(),
                policy.to_string(),
                format!("{:.0}", r.ops_per_sec() / 1e3),
                format!("{:.1}", r.hist.p50() as f64 / 1e3),
                format!("{:.1}", r.hist.p99() as f64 / 1e3),
                format!("{speedup:.2}x"),
            ]);
            metrics.push((format!("w{window}_{policy}_kops"), r.ops_per_sec() / 1e3));
        }
    }
    t.print("T9a: small-op read throughput vs window x routing (4 volumes)");

    let mut t = Table::new(&[
        "window", "routing", "MB_per_s", "p50_us", "p99_us", "speedup",
    ]);
    let mut base_mb = 0.0;
    let mut best_mb = 0.0;
    for window in [1u32, 2, 4, 8] {
        for balanced in [false, true] {
            let mut o = ReadBwOpts::defaults(ReadWorkload::Bulk, window, balanced);
            if args.full {
                o.batches_per_client *= 4;
            }
            let r = measure_pool_read_bw(o);
            assert_eq!(r.errors, 0, "bench run must be error-free");
            if window == 1 && !balanced {
                base_mb = r.mb_per_sec();
            }
            best_mb = r.mb_per_sec().max(best_mb);
            let policy = if balanced { "balanced" } else { "primary" };
            let speedup = r.mb_per_sec() / base_mb;
            t.row(&[
                window.to_string(),
                policy.to_string(),
                format!("{:.0}", r.mb_per_sec()),
                format!("{:.1}", r.hist.p50() as f64 / 1e3),
                format!("{:.1}", r.hist.p99() as f64 / 1e3),
                format!("{speedup:.2}x"),
            ]);
            metrics.push((format!("w{window}_{policy}_bulk_mb_s"), r.mb_per_sec()));
        }
    }
    t.print("T9b: bulk read bandwidth vs window x routing (4 volumes, 1 MiB reads)");

    println!("acceptance: window 8 + balanced >= 2x window 1 + primary-only");
    println!(
        "  small ops: {:.2}x   bulk: {:.2}x",
        best_ops / base_ops,
        best_mb / base_mb
    );

    if args.json {
        // `results/read_scaling.txt` records the artifact path this way.
        let path = json::emit("read_scaling", &metrics).expect("write json");
        println!("json: {}", path.display());
    }
}

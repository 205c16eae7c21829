//! T7 — scale-out PM pool: aggregate small-write bandwidth vs pool
//! members. One mirrored NPMU pair ingests a bounded op rate; striping a
//! region across N pairs behind the same PMM namespace should multiply
//! the ceiling near-linearly (the paper's §5 direction: "networks of
//! persistent memory units" feeding scalable data stores).

use pm_bench::{measure_pool_write_bw, Args, PoolBwOpts, Table};

fn main() {
    let args = Args::parse();
    let ops_per_client = if args.full { 16_000 } else { 4_000 };

    let mut t = Table::new(&[
        "volumes",
        "clients",
        "ops",
        "kops_per_s",
        "MB_per_s",
        "p50_us",
        "p99_us",
        "speedup",
    ]);
    let mut metrics: Vec<(String, f64)> = Vec::new();
    let mut base_ops_per_sec = 0.0;
    for volumes in [1u32, 2, 4] {
        let r = measure_pool_write_bw(PoolBwOpts {
            ops_per_client,
            ..PoolBwOpts::defaults(volumes)
        });
        assert_eq!(r.errors, 0, "bench run must be error-free");
        if volumes == 1 {
            base_ops_per_sec = r.ops_per_sec();
        }
        let speedup = r.ops_per_sec() / base_ops_per_sec;
        t.row(&[
            volumes.to_string(),
            r.clients.to_string(),
            r.ops.to_string(),
            format!("{:.0}", r.ops_per_sec() / 1e3),
            format!("{:.2}", r.mb_per_sec()),
            format!("{:.1}", r.hist.p50() as f64 / 1e3),
            format!("{:.1}", r.hist.p99() as f64 / 1e3),
            format!("{speedup:.2}x"),
        ]);
        let v = format!("vol{volumes}");
        metrics.push((format!("{v}_ops_per_sec"), r.ops_per_sec()));
        metrics.push((format!("{v}_mb_per_sec"), r.mb_per_sec()));
        metrics.push((format!("{v}_p50_us"), r.hist.p50() as f64 / 1e3));
        metrics.push((format!("{v}_p99_us"), r.hist.p99() as f64 / 1e3));
        metrics.push((format!("{v}_speedup"), speedup));
    }

    t.print("T7: pool write bandwidth vs member volumes (scale-out)");
    println!("acceptance: 4-volume aggregate bandwidth >= 3x 1-volume");

    args.emit("pool_scaling", &metrics);
}

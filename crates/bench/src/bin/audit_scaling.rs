//! T8: audit-partition scaling — commit throughput of the partitioned,
//! pipelined PM audit subsystem vs a single ADP on the same pool.
//!
//! The workload is the audit half of a commit, isolated from the DP2
//! insert path so the trail is the bottleneck under test: closed-loop
//! clients append a 64-byte commit record to the partition chosen by
//! `TxnId::audit_partition` and flush it (append → `AppendDone` →
//! `FlushReq` → `FlushDone` = one hardened commit). Every point runs on
//! the *same* 4-volume pool; only the number of ADP process pairs in
//! front of it varies, so the table isolates what partitioning the trail
//! (and pipelining each partition's writes) buys over one serialized
//! trail writer.
//!
//! Acceptance (asserted below): 4 partitions ≥ 2× the single-ADP
//! commit rate, with p99 commit latency no worse.

use pm_bench::rig::{run_commits, CommitPoint, CommitRig, REGION_LEN, WORKER_CPUS};
use pm_bench::{Args, Table};
use txnkit::TxnConfig;

const POOL_VOLUMES: u32 = 4;

fn run_point(partitions: u32, clients: u64, commits_per_client: u64) -> CommitPoint {
    run_commits(CommitRig {
        seed: 11,
        pool_volumes: POOL_VOLUMES,
        partitions,
        // Room for every partition's trail region plus metadata, per member.
        device_cap: (REGION_LEN + pmm::META_BYTES) * (WORKER_CPUS as u64 + 2) + (64 << 20),
        txn: TxnConfig::pm_enabled(),
        clients,
        commits_per_client,
    })
}

fn main() {
    let args = Args::parse();
    let (clients, commits) = if args.full { (16, 1000) } else { (16, 200) };

    let mut t = Table::new(&["partitions", "commits_per_s", "p50_us", "p99_us", "speedup"]);
    let mut metrics: Vec<(String, f64)> = Vec::new();
    let mut base: Option<CommitPoint> = None;
    let mut bar = (0.0, 0.0, 0.0); // (speedup@4, p99@4, p99@1)
    for &parts in &[1u32, 2, 4] {
        let p = run_point(parts, clients, commits);
        let speedup = base
            .as_ref()
            .map(|b| p.commits_per_sec / b.commits_per_sec)
            .unwrap_or(1.0);
        t.row(&[
            parts.to_string(),
            format!("{:.0}", p.commits_per_sec),
            format!("{:.1}", p.p50_us),
            format!("{:.1}", p.p99_us),
            format!("{speedup:.2}x"),
        ]);
        metrics.push((format!("p{parts}_commits_per_sec"), p.commits_per_sec));
        metrics.push((format!("p{parts}_p50_us"), p.p50_us));
        metrics.push((format!("p{parts}_p99_us"), p.p99_us));
        metrics.push((format!("p{parts}_speedup"), speedup));
        if parts == 4 {
            bar.0 = speedup;
            bar.1 = p.p99_us;
        }
        if base.is_none() {
            bar.2 = p.p99_us;
            base = Some(p);
        }
    }
    t.print("T8 audit scaling: partitioned pipelined PM trail vs single ADP (4-volume pool)");
    println!(
        "one ADP caps at 1/append_cpu_ns commits/s; partitioning the trail by \
         txn hash puts independent pipelined writers on separate CPUs, so the \
         commit rate scales with partitions until the pool itself saturates"
    );
    assert!(
        bar.0 >= 2.0,
        "4-partition audit must be >= 2x single-ADP commit rate, got {:.2}x",
        bar.0
    );
    assert!(
        bar.1 <= bar.2,
        "4-partition p99 ({:.1} us) must be no worse than single-ADP p99 ({:.1} us)",
        bar.1,
        bar.2
    );
    args.emit("audit_scaling", &metrics);
}

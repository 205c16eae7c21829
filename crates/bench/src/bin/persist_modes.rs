//! T10: remote-persistence modes — commit latency and throughput of the
//! PM audit path under each persistence mode × pipeline depth.
//!
//! The workload is the hardened-commit loop of `audit_scaling` (append a
//! 64-byte commit record, flush it, repeat), so the table isolates what
//! each mode's persist point costs at the commit boundary:
//!
//! * `NicAck` — ack at the NPMU's ingress buffer (the optimistic
//!   assumption the crash fuzzer proves lossy): no persist round trip.
//! * `FlushOnRead` — a forcing RDMA read per mirror half drags the
//!   buffered bytes onto the array before the ack.
//! * `PersistFlush` — an explicit flush verb per mirror half, with its
//!   own device-side latency.
//!
//! Acceptance (asserted below): honest modes pay a visible latency
//! premium over `NicAck` but never collapse throughput (≥ 40% of the
//! NicAck rate at the same depth), and pipelining (depth 4 vs 1) helps
//! every mode.

use pm_bench::rig::{run_commits, CommitPoint, CommitRig, REGION_LEN};
use pm_bench::{Args, Table};
use simnet::PersistMode;
use txnkit::TxnConfig;

const PARTITIONS: u32 = 2;

fn run_point(mode: PersistMode, depth: u32, clients: u64, commits_per_client: u64) -> CommitPoint {
    run_commits(CommitRig {
        seed: 29,
        pool_volumes: 1,
        partitions: PARTITIONS,
        device_cap: (REGION_LEN + pmm::META_BYTES) * (PARTITIONS as u64 + 2) + (64 << 20),
        txn: TxnConfig {
            pm_persist_mode: mode,
            pm_pipeline_depth: depth,
            ..TxnConfig::pm_enabled()
        },
        clients,
        commits_per_client,
    })
}

fn mode_key(mode: PersistMode) -> &'static str {
    match mode {
        PersistMode::NicAck => "nicack",
        PersistMode::FlushOnRead => "flushonread",
        PersistMode::PersistFlush => "persistflush",
    }
}

fn main() {
    let args = Args::parse();
    let (clients, commits) = if args.full { (8, 600) } else { (8, 150) };

    let modes = [
        PersistMode::NicAck,
        PersistMode::FlushOnRead,
        PersistMode::PersistFlush,
    ];
    let depths = [1u32, 4];

    let mut t = Table::new(&["mode", "depth", "commits_per_s", "p50_us", "p99_us"]);
    let mut metrics: Vec<(String, f64)> = Vec::new();
    let mut grid: Vec<(PersistMode, u32, CommitPoint)> = Vec::new();
    for &mode in &modes {
        for &depth in &depths {
            let p = run_point(mode, depth, clients, commits);
            t.row(&[
                mode_key(mode).to_string(),
                depth.to_string(),
                format!("{:.0}", p.commits_per_sec),
                format!("{:.1}", p.p50_us),
                format!("{:.1}", p.p99_us),
            ]);
            let k = format!("{}_d{depth}", mode_key(mode));
            metrics.push((format!("{k}_commits_per_sec"), p.commits_per_sec));
            metrics.push((format!("{k}_p50_us"), p.p50_us));
            metrics.push((format!("{k}_p99_us"), p.p99_us));
            grid.push((mode, depth, p));
        }
    }
    t.print("T10 persistence modes: commit latency/throughput by mode x pipeline depth");
    println!(
        "NicAck acks at the ingress buffer (fast, lossy under power failure); \
         FlushOnRead and PersistFlush only ack once the bytes are proven on \
         the array, paying one forcing round trip per mirror half"
    );

    let find = |m: PersistMode, d: u32| {
        grid.iter()
            .find(|(gm, gd, _)| *gm == m && *gd == d)
            .map(|(_, _, p)| p)
            .unwrap()
    };
    for &d in &depths {
        let nic = find(PersistMode::NicAck, d);
        for m in [PersistMode::FlushOnRead, PersistMode::PersistFlush] {
            let h = find(m, d);
            assert!(
                h.p50_us >= nic.p50_us,
                "{} d{d} p50 ({:.1} us) below NicAck ({:.1} us): the persist \
                 round trip went missing",
                mode_key(m),
                h.p50_us,
                nic.p50_us
            );
            assert!(
                h.commits_per_sec >= 0.4 * nic.commits_per_sec,
                "{} d{d} throughput collapsed: {:.0}/s vs NicAck {:.0}/s",
                mode_key(m),
                h.commits_per_sec,
                nic.commits_per_sec
            );
        }
    }
    for &mode in &modes {
        let d1 = find(mode, 1);
        let d4 = find(mode, 4);
        assert!(
            d4.commits_per_sec >= d1.commits_per_sec * 0.95,
            "{}: pipelining must not hurt (d4 {:.0}/s vs d1 {:.0}/s)",
            mode_key(mode),
            d4.commits_per_sec,
            d1.commits_per_sec
        );
    }
    args.emit("persist_modes", &metrics);
}

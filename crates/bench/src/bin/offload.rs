//! T13: near-device compute offload — what each offload verb buys.
//!
//! Three comparisons, each against the host-mediated path with identical
//! workload, seed and topology (defaults keep every offload off, so the
//! classic arms reproduce prior experiments bit-exactly):
//!
//! * **Device-side atomic append** (`pm_offload_append`): the ADP stages
//!   the same commit batches, but the device bumps its own durable tail —
//!   the 16-byte control-cell publication (one full fabric round trip per
//!   mirror half per batch) disappears from the commit pipeline.
//! * **Device-local CRC scrub** (`offload_scrub`): resilver verification
//!   moves one batched command per `scrub_batch` chunks and 4-byte
//!   digests instead of one `rdma_crc_read` round trip per chunk per
//!   half — O(digests) on the wire, not O(round trips).
//! * **NPMU→NPMU resilver copy** (`offload_copy`): repair payload flows
//!   survivor→revived directly instead of survivor→host→revived. With a
//!   whole pool resilvering at once (one half of every member lost), the
//!   host-mediated path funnels every pair's payload through the PMM
//!   host's single NIC — the aggregate repair rate is pinned at one link
//!   (~113 MB/s) no matter how many members need repair. Device copies
//!   ride each pair's own link, so the aggregate scales with the pool.
//!
//! Acceptance (asserted below): offload append removes ≥ 1 fabric round
//! trip per commit with p50 no worse; device scrub cuts verify fabric
//! bytes ≥ 10×; device copy lifts the resilver rate ≥ 1.5× over the
//! host-mediated ~113 MB/s; and every classic arm uses zero offload verbs.

use pm_bench::rig::{resilver_rig, run_commits, CommitPoint, CommitRig, REGION_LEN};
use pm_bench::{Args, Table};
use pmm::PmmConfig;
use simcore::time::{MILLIS, SECS};
use simcore::SimTime;
use txnkit::TxnConfig;

const PARTITIONS: u32 = 2;

/// Command legs are modelled as 64 wire bytes throughout `simnet`.
const CMD_BYTES: u64 = 64;
/// An `rdma_crc_read` reply carries one 8-byte digest.
const CRC_REPLY_BYTES: u64 = 8;
/// A scrub reply carries one 4-byte CRC32 per chunk.
const SCRUB_DIGEST_BYTES: u64 = 4;

// ---------------------------------------------------------------------------
// Arm 1: commit pipeline with and without device-side atomic append.
// ---------------------------------------------------------------------------

/// PM fabric round trips per committed transaction (writes + flushes +
/// appends + reads), workload phase only.
fn ops_per_commit(p: &CommitPoint) -> f64 {
    let n = &p.net;
    (n.rdma_writes + n.rdma_flushes + n.rdma_appends + n.rdma_reads) as f64 / p.committed as f64
}

fn run_append(offload: bool, clients: u64, commits_per_client: u64) -> CommitPoint {
    // The same commit loop as T10, so the two arms differ only in the
    // ADP's PM backend.
    run_commits(CommitRig {
        seed: 29,
        pool_volumes: 1,
        partitions: PARTITIONS,
        device_cap: (REGION_LEN + pmm::META_BYTES) * (PARTITIONS as u64 + 2) + (64 << 20),
        txn: TxnConfig {
            pm_offload_append: offload,
            ..TxnConfig::pm_enabled()
        },
        clients,
        commits_per_client,
    })
}

// ---------------------------------------------------------------------------
// Arms 2+3: pool-wide resilver with device copy and device scrub toggled.
// ---------------------------------------------------------------------------

const MEMBERS: u32 = 4;
const STRIPE_UNIT: u64 = 64 << 10;

struct ResilverPoint {
    mttr_ms: f64,
    rate_mb_s: f64,
    /// Fabric payload bytes the repair copy moved (host path: read the
    /// survivor + write the revived half; device path: one NPMU→NPMU
    /// transfer).
    copy_payload_bytes: u64,
    /// Modelled wire bytes of the verification pass: command legs plus
    /// digest replies.
    verify_bytes: u64,
    crc_reads: u64,
    scrubs: u64,
    copies: u64,
}

fn run_resilver(region_len: u64, chunk: u32, copy: bool, scrub: bool) -> ResilverPoint {
    // Each member holds its stripe slice plus metadata and slack. Every
    // member losing a half at once — cabinet power, a fabric-side
    // failure — makes the repair an aggregate-bandwidth problem.
    let cap = region_len / MEMBERS as u64 + pmm::META_BYTES + (2 << 20);
    let (mut sim, net, pmm) = resilver_rig(
        MEMBERS,
        cap,
        region_len,
        Some(STRIPE_UNIT),
        PmmConfig {
            resilver_chunk: chunk,
            offload_copy: copy,
            offload_scrub: scrub,
            ..PmmConfig::default()
        },
    );
    let ceiling = SimTime(300 * SECS);
    while pmm
        .vol_stats
        .iter()
        .any(|vs| vs.lock().resilvers_completed == 0)
    {
        let now = sim.now();
        assert!(now < ceiling, "pool resilver never completed");
        sim.run_until(SimTime(now.as_nanos() + SECS));
    }
    let ns = net.lock().stats;
    // Aggregate MTTR: first member to start repairing until the last one
    // finishes (they overlap; the window is the pool's exposure time).
    let started = pmm
        .vol_stats
        .iter()
        .map(|vs| vs.lock().resilver_started_ns)
        .min()
        .unwrap();
    let completed = pmm
        .vol_stats
        .iter()
        .map(|vs| vs.lock().resilver_completed_ns)
        .max()
        .unwrap();
    let dur_ns = completed.saturating_sub(started).max(1);
    let copied: u64 = pmm
        .vol_stats
        .iter()
        .map(|vs| vs.lock().resilver_bytes_copied)
        .sum();
    // Chunks the verify pass covered (same ranges in every arm).
    let chunks = copied.div_ceil(chunk as u64);
    let verify_bytes = if scrub {
        // One batched command per `scrub_batch` contiguous chunks per
        // half, each replying 4 bytes per chunk.
        ns.rdma_scrubs * CMD_BYTES + 2 * chunks * SCRUB_DIGEST_BYTES
    } else {
        // One `rdma_crc_read` round trip per chunk per half.
        ns.rdma_crc_reads * (CMD_BYTES + CRC_REPLY_BYTES)
    };
    let copy_payload_bytes = if copy {
        ns.rdma_copy_bytes
    } else {
        // Host-mediated: payload crosses the fabric twice (survivor →
        // host, host → revived). The client's 4 KiB poke and the metadata
        // epoch writes ride along but are noise at this scale.
        ns.rdma_read_bytes + ns.rdma_write_bytes
    };
    ResilverPoint {
        mttr_ms: dur_ns as f64 / MILLIS as f64,
        rate_mb_s: copied as f64 / (1 << 20) as f64 / (dur_ns as f64 / SECS as f64),
        copy_payload_bytes,
        verify_bytes,
        crc_reads: ns.rdma_crc_reads,
        scrubs: ns.rdma_scrubs,
        copies: ns.rdma_copies,
    }
}

fn main() {
    let args = Args::parse();
    let (clients, commits) = if args.full { (8, 600) } else { (8, 150) };
    let (region_mb, chunk_kb) = if args.full {
        (64u64, 256u32)
    } else {
        (32, 256)
    };
    let mut metrics: Vec<(String, f64)> = Vec::new();

    // --- Arm 1: device-side atomic append -------------------------------
    let classic = run_append(false, clients, commits);
    // Reset the process-wide per-class counters so the artifact's
    // `fabric_*` keys describe the offload arms alone — that is what the
    // bench-check fabric-bytes gate watches for footprint creep.
    simnet::qos::reset_process_stats();
    let offload = run_append(true, clients, commits);

    let mut t = Table::new(&[
        "append_path",
        "commits_per_s",
        "p50_us",
        "p99_us",
        "fabric_ops_per_commit",
        "ctrl_writes",
    ]);
    for (key, p) in [("classic", &classic), ("offload", &offload)] {
        t.row(&[
            key.to_string(),
            format!("{:.0}", p.commits_per_sec),
            format!("{:.1}", p.p50_us),
            format!("{:.1}", p.p99_us),
            format!("{:.2}", ops_per_commit(p)),
            p.stats.lock().pm_ctrl_writes.to_string(),
        ]);
        metrics.push((format!("append_{key}_commits_per_sec"), p.commits_per_sec));
        metrics.push((format!("append_{key}_p50_us"), p.p50_us));
        metrics.push((format!("append_{key}_p99_us"), p.p99_us));
        metrics.push((
            format!("append_{key}_fabric_ops_per_commit"),
            ops_per_commit(p),
        ));
    }
    t.print("T13a device-side atomic append: commit pipeline round trips");

    assert_eq!(
        classic.setup_net.rdma_appends + classic.net.rdma_appends,
        0,
        "classic arm must not use the append verb, setup included"
    );
    assert!(
        classic.stats.lock().pm_ctrl_writes > 0,
        "classic arm publishes control cells"
    );
    assert_eq!(
        offload.stats.lock().pm_ctrl_writes,
        0,
        "offload arm must not publish cells"
    );
    assert!(
        offload.net.rdma_appends > 0,
        "offload arm must use the append verb"
    );
    let (classic_ops, offload_ops) = (ops_per_commit(&classic), ops_per_commit(&offload));
    assert!(
        classic_ops - offload_ops >= 1.0,
        "offload append must remove >= 1 fabric round trip per commit \
         (classic {classic_ops:.2}, offload {offload_ops:.2})"
    );
    assert!(
        offload.p50_us <= classic.p50_us,
        "offload append p50 ({:.1} us) must be no worse than classic ({:.1} us)",
        offload.p50_us,
        classic.p50_us
    );

    // --- Arms 2+3: resilver with device copy / device scrub -------------
    let region = region_mb << 20;
    let chunk = chunk_kb << 10;
    let arms = [
        ("base", false, false),
        ("copy", true, false),
        ("scrub", false, true),
        ("both", true, true),
    ];
    let mut t = Table::new(&[
        "resilver_arm",
        "mttr_ms",
        "rate_MB_per_s",
        "copy_payload_MB",
        "verify_KB",
        "crc_reads",
        "scrubs",
        "copies",
    ]);
    let mut points = Vec::new();
    for &(key, c, s) in &arms {
        let p = run_resilver(region, chunk, c, s);
        t.row(&[
            key.to_string(),
            format!("{:.2}", p.mttr_ms),
            format!("{:.0}", p.rate_mb_s),
            format!("{:.1}", p.copy_payload_bytes as f64 / (1 << 20) as f64),
            format!("{:.1}", p.verify_bytes as f64 / 1024.0),
            p.crc_reads.to_string(),
            p.scrubs.to_string(),
            p.copies.to_string(),
        ]);
        metrics.push((format!("resilver_{key}_mttr_ms"), p.mttr_ms));
        metrics.push((format!("resilver_{key}_rate_mb_s"), p.rate_mb_s));
        metrics.push((
            format!("resilver_{key}_copy_payload_mb"),
            p.copy_payload_bytes as f64 / (1 << 20) as f64,
        ));
        metrics.push((
            format!("resilver_{key}_verify_wire_b"),
            p.verify_bytes as f64,
        ));
        points.push((key, p));
    }
    t.print("T13b/c near-device resilver: NPMU->NPMU copy and batched CRC scrub");
    println!(
        "host-mediated repair funnels all {MEMBERS} members' payload through \
         the PMM host's NIC (one link's worth of aggregate rate); device \
         copies ride each pair's own link and halve the wire payload, and \
         the batched scrub turns one digest round trip per chunk per half \
         into one command per {} chunks",
        PmmConfig::default().scrub_batch
    );

    let find = |k: &str| &points.iter().find(|(pk, _)| *pk == k).unwrap().1;
    let base = find("base");
    let copy_arm = find("copy");
    let scrub_arm = find("scrub");
    let both = find("both");
    assert_eq!(base.scrubs + base.copies, 0, "base arm used offload verbs");
    for p in [copy_arm, both] {
        assert!(
            p.rate_mb_s >= 1.5 * base.rate_mb_s,
            "device copy must lift the resilver rate >= 1.5x \
             (base {:.0} MB/s, offload {:.0} MB/s)",
            base.rate_mb_s,
            p.rate_mb_s
        );
    }
    for p in [scrub_arm, both] {
        assert!(
            p.verify_bytes * 10 <= base.verify_bytes,
            "device scrub must cut verify fabric bytes >= 10x \
             (base {} B, offload {} B)",
            base.verify_bytes,
            p.verify_bytes
        );
    }
    assert!(
        copy_arm.copy_payload_bytes * 2 <= base.copy_payload_bytes.saturating_add(1 << 20),
        "device copy should halve the repair payload on the fabric \
         (host {} B, device {} B)",
        base.copy_payload_bytes,
        copy_arm.copy_payload_bytes
    );

    args.emit("offload", &metrics);
}

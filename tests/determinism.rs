//! Cross-crate determinism: identical seeds must produce bit-identical
//! experiment results — the property that makes every figure in
//! EXPERIMENTS.md reproducible.
//!
//! Run-to-run equality alone would let a change that perturbs both runs
//! the same way pass, so each case also pins its [`Pin`] to constants:
//! a refactor of the node builders must dispatch exactly the same events.

mod common;

use hotstock::driver::{HotStockDriver, SharedDriverStats};
use hotstock::{run_hot_stock, HotStockParams, TxnSize};
use simcore::fault::{Fault, FaultPlan};
use simcore::time::{MILLIS, SECS};
use simcore::{DurableStore, Histogram, Sim, SimTime};
use txnkit::scenario::{build_ods, AuditMode, OdsNode, OdsParams};
use txnkit::stats::SharedTxnStats;

/// Behaviour pin: events dispatched, final simulated instant (ns), the
/// driver's committed count and summed response time (ns), then the
/// node's flush count, summed flush latency (ns) and commit count.
type Pin = (u64, u64, u64, u64, u64, u64, u64);

fn pin(sim: &Sim, committed: u64, response: &Histogram, stats: &SharedTxnStats) -> Pin {
    // Exact below 2^53 ns of summed latency.
    let total = |h: &Histogram| (h.mean() * h.count() as f64).round() as u64;
    let t = stats.lock();
    (
        sim.dispatched(),
        sim.now().0,
        committed,
        total(response),
        t.flush_latency.count(),
        total(&t.flush_latency),
        t.txns_committed,
    )
}

/// Build a node and run one hot-stock driver against it for 8 simulated
/// seconds (its inserts start after 1.1 s, once PM regions exist).
fn hot_node(params: OdsParams) -> (OdsNode, SharedDriverStats) {
    let mut store = DurableStore::new();
    let mut node = build_ods(&mut store, params);
    let st = HotStockDriver::install(
        &mut node.sim,
        &node.machine.clone(),
        node.tmf.clone(),
        node.partition_map.clone(),
        node.params.files,
        node.params.parts_per_file,
        0,
        nsk::machine::CpuId(0),
        4096,
        8,
        256,
        simcore::SimDuration::from_millis(1100),
        node.params.txn.issue_cpu_ns,
    );
    node.sim.run_until(SimTime(8 * SECS));
    (node, st)
}

fn hot_node_pin(params: OdsParams) -> Pin {
    let (node, st) = hot_node(params);
    let s = st.lock();
    pin(&node.sim, s.committed_txns, &s.response, &node.stats)
}

fn run_sig(seed: u64, audit: AuditMode) -> (u64, u64, f64, u64) {
    let r = run_hot_stock(HotStockParams {
        seed,
        ..HotStockParams::scaled(2, TxnSize::K32, audit, 200)
    });
    (
        r.committed_txns,
        r.elapsed.as_nanos(),
        r.response.mean(),
        r.response.max(),
    )
}

#[test]
fn hot_stock_runs_are_reproducible() {
    for audit in [AuditMode::Disk, AuditMode::Pmp] {
        let a = run_sig(1234, audit);
        let b = run_sig(1234, audit);
        assert_eq!(a, b, "mode {audit:?} not deterministic");
    }
    // The same two modes on a directly built node, pinned.
    let disk = hot_node_pin(OdsParams::baseline(1234));
    assert_eq!(disk, PIN_DISK, "disk-audit node run moved");
    let pmp = hot_node_pin(OdsParams::pm(1234));
    assert_eq!(pmp, PIN_PMP, "PMP node run moved");
}

#[test]
fn different_seeds_differ() {
    let a = run_sig(1, AuditMode::Pmp);
    let b = run_sig(2, AuditMode::Pmp);
    assert_eq!(a.0, b.0, "same committed count");
    assert_ne!(
        (a.1, a.2),
        (b.1, b.2),
        "different seeds should perturb timings"
    );
}

#[test]
fn faulty_runs_are_reproducible() {
    // Same seed + the same non-trivial fault plan (a fabric outage AND an
    // NPMU mirror-down window, overlapping) must yield an identical event
    // trace: every retry, failover, probe, and resilver chunk lands on
    // the same virtual nanosecond in both runs.
    let plan = || {
        FaultPlan::none()
            .with(Fault::FabricDown {
                fabric: 0,
                from: SimTime(1300 * MILLIS),
                to: SimTime(1450 * MILLIS),
            })
            .with(Fault::NpmuDown {
                volume_half: 1,
                from: SimTime(1200 * MILLIS),
                to: SimTime(1800 * MILLIS),
            })
    };
    let run = || {
        // A hot-stock driver so PM traffic actually crosses the fault
        // windows (detection, degraded writes, resilver).
        let (node, st) = hot_node(OdsParams {
            audit: AuditMode::HardwareNpmu,
            fault_plan: plan(),
            ..OdsParams::pm(4242)
        });
        let pmm = node.pmm.as_ref().unwrap();
        let stats = *pmm.stats.lock();
        let s = st.lock();
        (
            pin(&node.sim, s.committed_txns, &s.response, &node.stats),
            stats.degraded_events,
            stats.probes_sent,
            stats.resilver_bytes_copied,
            stats.resilver_started_ns,
            stats.resilver_completed_ns,
            s.committed_txns,
            s.finished_ns,
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "fault-plan run not deterministic");
    assert_eq!(a.0, PIN_FAULTY, "fault-plan run moved");
    // The plan actually bit: the volume degraded and resilvered.
    assert!(a.1 >= 1, "NPMU window had no effect: {a:?}");
    assert!(a.5 > a.4, "no resilver completed: {a:?}");
}

#[test]
fn partitioned_audit_runs_are_reproducible() {
    // The partitioned audit path — txn-hash routing across ADPs, per-
    // partition pipelined rings, coalesced watermark publication — must
    // stay bit-deterministic on a striped pool.
    let run = || {
        let (node, st) = hot_node(OdsParams {
            audit: AuditMode::HardwareNpmu,
            ..OdsParams::pm_pool(7117, 4)
        });
        let s = st.lock();
        let p = pin(&node.sim, s.committed_txns, &s.response, &node.stats);
        let t = node.stats.lock();
        (
            p,
            s.finished_ns,
            t.pm_writes,
            t.pm_batches,
            t.pm_ctrl_writes,
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "partitioned-audit run not deterministic");
    assert!(a.0 .2 > 0 && a.2 > 0, "workload did not exercise the trail");
    assert_eq!(a.0, PIN_POOL4, "pooled-audit run moved");
}

#[test]
fn offload_append_runs_are_reproducible() {
    // The device-side append path (`pm_offload_append`): single-flight
    // `rdma_append` batches, acks released from the devices' durable
    // tail, boot recovery by tail probe.
    let run = || {
        let mut params = OdsParams {
            audit: AuditMode::HardwareNpmu,
            ..OdsParams::pm(0x0FF1)
        };
        params.txn.pm_offload_append = true;
        let (node, st) = hot_node(params);
        let s = st.lock();
        let p = pin(&node.sim, s.committed_txns, &s.response, &node.stats);
        let t = node.stats.lock();
        (p, t.pm_batches, t.pm_ctrl_writes)
    };
    let a = run();
    assert_eq!(a, run(), "offload-append run not deterministic");
    assert_eq!(a.1, 288, "device-append batch count moved");
    assert_eq!(a.2, 0, "offload mode publishes no control cells");
    assert_eq!(a.0, PIN_OFFLOAD, "offload-append run moved");
}

#[test]
fn node_boot_is_reproducible() {
    let run = || {
        let mut store = DurableStore::new();
        let mut node = build_ods(&mut store, OdsParams::pm(99));
        node.sim.run_until(SimTime(3 * SECS));
        (node.sim.dispatched(), node.sim.now().0)
    };
    let a = run();
    assert_eq!(a, run());
    assert_eq!(a, PIN_BOOT, "idle node boot moved");
}

#[test]
fn sharded_workload_runs_are_reproducible() {
    // The closed-loop workload driver over the 2PC cluster: same seed
    // must give identical commit/abort/cross-shard counts AND bit-
    // identical per-shard audit-trail images — the property that makes
    // the T11 matrix and the cross-shard crash sweeps replayable.
    use common::try_read_region;
    use txnkit::adp::PM_CTRL_BYTES;
    use txnkit::scenario::{build_cluster, ClusterNode, ClusterParams};
    use workload::{install_workload, run_to_completion, ThinkTime, WorkloadConfig};

    let run = |shards: u32| {
        let mut store = DurableStore::new();
        let mut node = build_cluster(&mut store, ClusterParams::pm(0xDE7E, shards));
        let (view, machine) = (node.view(), node.machine.clone());
        let stats = install_workload(
            &mut node.sim,
            &machine,
            &view,
            WorkloadConfig {
                pools_per_shard: 2,
                think: ThinkTime::Exponential {
                    mean_ns: 2 * MILLIS,
                },
                cross_shard_fraction: 0.3,
                txns_per_client: 4,
                run_for: None,
                track_txns: true,
                ..WorkloadConfig::new(0xDE7E, 24)
            },
        );
        run_to_completion(&mut node.sim, &stats, SimTime(120 * SECS));
        let s = stats.lock();
        let counts = (
            pin(&node.sim, s.committed, &s.response, &node.stats),
            s.aborted,
            s.cross_shard_committed,
            s.committed_ids.clone(),
            s.response.mean(),
        );
        drop(s);
        drop(node);
        // Power-cut view: the per-shard trail images recovery would scan.
        store.reset_volatile();
        let mut trails: Vec<Vec<u8>> = Vec::new();
        for sh in 0..shards {
            for i in 0..4u32 {
                if let Some(t) = try_read_region(
                    &mut store,
                    &ClusterNode::npmu_store_key(sh, 0, 'a'),
                    &format!("adp{i}.audit"),
                    PM_CTRL_BYTES,
                ) {
                    trails.push(t);
                }
            }
        }
        (counts, trails)
    };
    for (shards, pinned) in [(2, PIN_CLUSTER2), (4, PIN_CLUSTER4)] {
        let (counts_a, trails_a) = run(shards);
        let (counts_b, trails_b) = run(shards);
        assert_eq!(counts_a, counts_b, "workload counts not deterministic");
        assert_eq!(counts_a.0, pinned, "{shards}-shard cluster run moved");
        assert!(counts_a.0 .2 > 0, "workload committed nothing");
        assert!(counts_a.2 > 0, "no cross-shard transactions ran");
        assert_eq!(trails_a.len(), trails_b.len());
        for (i, (a, b)) in trails_a.iter().zip(&trails_b).enumerate() {
            assert_eq!(a, b, "audit trail image {i} differs between runs");
        }
        assert!(
            trails_a.iter().any(|t| !t.is_empty()),
            "no trail bytes were persisted"
        );
    }
}

#[test]
fn georep_drill_runs_are_reproducible() {
    // A primary node plus its DR site through a sever-then-fence drill:
    // the log shipper, WAN, replica apply and fence must replay exactly.
    use txnkit::scenario::{build_georep, GeorepParams};
    use workload::{install_workload, ThinkTime, WorkloadConfig};

    let run = || {
        let mut store = DurableStore::new();
        let mut params = GeorepParams::pm(0x6E02);
        params.sever_at = Some(simcore::SimDuration::from_millis(1_600));
        params.fence_at = Some(simcore::SimDuration::from_millis(1_700));
        let mut geo = build_georep(&mut store, params);
        let (view, machine) = (geo.node.view(), geo.node.machine.clone());
        let stats = install_workload(
            &mut geo.node.sim,
            &machine,
            &view,
            WorkloadConfig {
                think: ThinkTime::Zero,
                disjoint_keys: true,
                txns_per_client: 0,
                run_for: Some(simcore::SimDuration::from_millis(2_000)),
                inserts_per_txn: 4,
                ..WorkloadConfig::new(0x6E02, 8)
            },
        );
        geo.node.sim.run_until(SimTime(4 * SECS));
        let s = stats.lock();
        let drill = *geo.drill.lock();
        (
            pin(&geo.node.sim, s.committed, &s.response, &geo.node.stats),
            drill.fence_ok,
            drill.fence_acked_at_ns,
        )
    };
    let a = run();
    assert_eq!(a, run(), "georep drill run not deterministic");
    assert!(a.1, "drill fence did not land");
    assert_eq!(a.0, PIN_GEOREP, "georep drill run moved");
}

const PIN_DISK: Pin = (4301, 8000000000, 32, 947198791, 32, 672490874, 32);
const PIN_PMP: Pin = (12605, 8000000000, 32, 283466885, 32, 6068688, 32);
const PIN_FAULTY: Pin = (10904, 8000000000, 32, 282364411, 32, 5534505, 32);
const PIN_POOL4: Pin = (10527, 8000000000, 32, 282467954, 32, 5557714, 32);
const PIN_OFFLOAD: Pin = (5401, 8000000000, 32, 279703372, 32, 4182272, 32);
const PIN_BOOT: (u64, u64) = (171, 3000000000);
const PIN_CLUSTER2: Pin = (29919, 4000000000, 93, 42543809826, 93, 44391124, 93);
const PIN_CLUSTER4: Pin = (30969, 4000000000, 95, 10371692809, 95, 47063532, 95);
const PIN_GEOREP: Pin = (264800, 4000000000, 1472, 4781808130, 1472, 828182176, 1472);

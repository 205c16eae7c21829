//! The three workloads, one repetition of each, and their correctness
//! checks.
//!
//! A repetition builds the cluster, installs the client pools and runs the
//! 1.1 s simulated warmup (together: set-up), then runs the measured window
//! in short simulated slices until the workload settles, and finally checks
//! the outcome. Every number with a simulated unit is read from the layers'
//! public stats at the window edges; host times come from timing the
//! benchmark's own calls into each layer.

use crate::calib::{Kernel, RefClock};
use crate::probe::{quantile, ratio, Counters, Window};
use crate::trace::{Allocs, Span, Trace};
use simcore::fault::{Fault, FaultPlan};
use simcore::time::MILLIS;
use simcore::{DurableStore, RunOutcome, SimDuration, SimTime};
use simnet::{QosConfig, TrafficClass};
use std::collections::HashSet;
use std::time::Instant;
use txnkit::scenario::{build_cluster, ClusterNode};
use txnkit::shard::splitmix64;
use workload::{install_workload, SharedWorkloadStats, ThinkTime, WorkloadConfig};

/// Clients start issuing after this much simulated time.
const WARMUP_NS: u64 = 1_100 * MILLIS;
/// Simulated length of one run slice; the window ends within one slice of
/// the workload settling.
const SLICE_NS: u64 = MILLIS;
/// Simulated length of one warmup slice.
const WARMUP_SLICE_NS: u64 = 10 * MILLIS;
/// Simulated time after the issuing deadline by which a workload must
/// have settled, or the run fails.
const SETTLE_LIMIT_NS: u64 = 10_000 * MILLIS;

/// One named workload.
pub struct Spec {
    pub name: &'static str,
    shards: u32,
    clients: u64,
    /// Mean exponential think time; 0 means zero think (saturation).
    think_ns: u64,
    /// Zipf skew over `customers` keys; `None` gives every insert its own
    /// key (no lock conflicts).
    zipf_theta: Option<f64>,
    customers: u64,
    cross_shard: f64,
    run_for_ms: u64,
    qos: QosConfig,
    /// Mirror half 1 is down for [1.15 s, 1.25 s) and revives stale, so
    /// the PMM resilvers it online.
    outage: bool,
    /// End in power loss and offline redo recovery.
    recover: bool,
    /// Seeds pooled into one result (see `main`).
    pub sub_seeds: usize,
}

pub const WORKLOADS: [&str; 3] = ["saturate8", "population4", "repair1"];

pub fn spec(name: &str) -> Option<Spec> {
    let base = Spec {
        name: "",
        shards: 1,
        clients: 0,
        think_ns: 0,
        zipf_theta: None,
        customers: 100_000,
        cross_shard: 0.1,
        run_for_ms: 0,
        qos: QosConfig::disabled(),
        outage: false,
        recover: false,
        sub_seeds: 6,
    };
    Some(match name {
        "saturate8" => Spec {
            name: "saturate8",
            shards: 8,
            clients: 48 * 8,
            run_for_ms: 400,
            recover: true,
            ..base
        },
        // 100k clients thinking 26.86 s on average offer ~3.7k tps, about
        // 60% of 4-node capacity. Over 1M customers the Zipf keys still
        // collide in the lock table, but a distributed deadlock, broken only
        // by the 2 s lock timeout, stays rare (over 100k customers about
        // one window in fifty hits one).
        "population4" => Spec {
            name: "population4",
            shards: 4,
            clients: 100_000,
            think_ns: 26_860_000_000,
            zipf_theta: Some(0.5),
            customers: 1_000_000,
            run_for_ms: 1_600,
            ..base
        },
        // 20k clients thinking 21.86 s offer ~915 tps.
        "repair1" => Spec {
            name: "repair1",
            shards: 1,
            clients: 20_000,
            think_ns: 21_860_000_000,
            cross_shard: 0.0,
            run_for_ms: 1_500,
            qos: QosConfig::drr(0.9),
            outage: true,
            // The fewest commits per window (~1.4k), and host time per
            // window swings with the resilver's verify passes (one window
            // in four re-copies more than once): more windows are pooled.
            sub_seeds: 20,
            ..base
        },
        _ => return None,
    })
}

/// What one repetition measured. Host times are raw unless named `ref`:
/// those are scaled to the reference kernel (see `calib`).
pub struct Rep {
    /// The simulated outcome: identical in every repetition of one seed.
    pub window: Window,
    pub setup_s: f64,
    pub setup_ref_s: f64,
    pub build_s: f64,
    pub install_s: f64,
    pub warmup_s: f64,
    pub window_s: f64,
    pub window_ref_s: f64,
    pub read_s: f64,
    pub scan_s: f64,
    /// Allocations during the window (traced repetitions only).
    pub allocs: Allocs,
    /// Failed correctness checks.
    pub errors: Vec<String>,
}

fn params(spec: &Spec, seed: u64) -> txnkit::scenario::ClusterParams {
    let mut p = pmem::s86000_cluster(splitmix64(seed ^ 0xC1u64), spec.shards);
    p.base.qos = spec.qos;
    if spec.outage {
        p.base.fault_plan = FaultPlan::none().with(Fault::NpmuDown {
            volume_half: 1,
            from: SimTime(1_150 * MILLIS),
            to: SimTime(1_250 * MILLIS),
        });
    }
    p
}

fn workload_config(spec: &Spec, seed: u64) -> WorkloadConfig {
    let base = WorkloadConfig::new(splitmix64(seed ^ 0x57u64), spec.clients);
    WorkloadConfig {
        pools_per_shard: 4,
        think: if spec.think_ns == 0 {
            ThinkTime::Zero
        } else {
            ThinkTime::Exponential {
                mean_ns: spec.think_ns,
            }
        },
        zipf_theta: spec.zipf_theta.unwrap_or(base.zipf_theta),
        customers: spec.customers,
        disjoint_keys: spec.zipf_theta.is_none(),
        cross_shard_fraction: spec.cross_shard,
        track_txns: spec.recover,
        issue_cpu_ns: 5_000,
        run_for: Some(SimDuration::from_millis(spec.run_for_ms)),
        warmup: SimDuration::from_nanos(WARMUP_NS),
        ..base
    }
}

/// Every client has retired, and any provoked resilver has finished.
fn settled(spec: &Spec, node: &ClusterNode, wl: &SharedWorkloadStats) -> bool {
    if !wl.lock().done() {
        return false;
    }
    !spec.outage
        || node.shards[0]
            .pmm
            .as_ref()
            .is_some_and(|p| p.stats.lock().resilvers_completed >= 1)
}

/// Run `f` and time it on the host clock. With a trace, also record it as
/// a span `name` under `parent`, filled in by `fill` from `f`'s result.
fn timed<R>(
    trace: &mut Option<&mut Trace>,
    parent: Option<u32>,
    name: &'static str,
    f: impl FnOnce() -> R,
    fill: impl FnOnce(&R, &mut Span),
) -> (R, f64) {
    let mark = trace.as_deref().map(Trace::begin);
    let t = Instant::now();
    let out = f();
    let secs = t.elapsed().as_secs_f64();
    if let (Some(tr), Some(m)) = (trace.as_deref_mut(), mark) {
        tr.end(m, name, parent, |s| fill(&out, s));
    }
    (out, secs)
}

/// Run one repetition, timing set-up and window with `kernel` as the
/// reference. With `trace`, record a span around each call into a layer
/// under one parent span for the repetition.
pub fn run(spec: &Spec, seed: u64, kernel: &mut Kernel, mut trace: Option<&mut Trace>) -> Rep {
    let root = trace.as_deref_mut().map(|t| t.open("bench.rep"));
    let mut errors = Vec::new();

    // --- set-up: build, install, warm up ---
    let mut clock = RefClock::start(kernel);
    let mut store = DurableStore::new();
    let (mut node, build_s) = timed(
        &mut trace,
        root,
        "scenario.build",
        || build_cluster(&mut store, params(spec, seed)),
        |_, _| {},
    );
    clock.tick();
    let (view, machine) = (node.view(), node.machine.clone());
    let (wl, install_s) = timed(
        &mut trace,
        root,
        "workload.install",
        || install_workload(&mut node.sim, &machine, &view, workload_config(spec, seed)),
        |_, _| {},
    );
    clock.tick();
    let (_, warmup_s) = timed(
        &mut trace,
        root,
        "simcore.warmup",
        || {
            for to in (WARMUP_SLICE_NS..=WARMUP_NS).step_by(WARMUP_SLICE_NS as usize) {
                node.sim.run_until(SimTime(to));
                clock.tick();
            }
            node.sim.dispatched()
        },
        |&events, s| {
            s.sim_to_ns = WARMUP_NS;
            s.events = events;
        },
    );
    let (setup_s, setup_ref_s) = clock.finish();

    // --- measured window: short slices until the workload settles ---
    let deadline = WARMUP_NS + spec.run_for_ms * MILLIS + SETTLE_LIMIT_NS;
    let start = Counters::snapshot(&node, &wl);
    let allocs0 = Allocs::now();
    let mut clock = RefClock::start(kernel);
    let mut is_settled = false;
    loop {
        clock.tick();
        if settled(spec, &node, &wl) {
            is_settled = true;
            break;
        }
        let from = node.sim.now().as_nanos();
        if from >= deadline {
            break;
        }
        let ((outcome, ..), _) = timed(
            &mut trace,
            root,
            "simcore.run",
            || {
                let (events, commits) = (node.sim.dispatched(), wl.lock().committed);
                let outcome = node.sim.run_until(SimTime(from + SLICE_NS));
                (
                    outcome,
                    node.sim.now().as_nanos(),
                    node.sim.dispatched() - events,
                    wl.lock().committed - commits,
                )
            },
            |&(_, to, events, commits), s| {
                s.sim_from_ns = from;
                s.sim_to_ns = to;
                s.events = events;
                s.commits = commits;
            },
        );
        if outcome == RunOutcome::Idle {
            break;
        }
    }
    let allocs = Allocs::now().since(allocs0);
    let (window_s, window_ref_s) = clock.finish();
    let end = Counters::snapshot(&node, &wl);
    if !is_settled {
        errors.push(format!(
            "workload did not settle by {:.2} s simulated",
            deadline as f64 / 1e9
        ));
    }
    let mut window = observe(spec, &node, &wl, &start, &end, &mut errors);

    // --- after the window: outcome checks ---
    let (mut read_s, mut scan_s) = (0.0, 0.0);
    if spec.outage {
        check_mirrors(&node, &window, &mut errors);
    }
    let (mut trail_bytes, mut entries) = (0, 0);
    if spec.recover {
        let acked: Vec<txnkit::TxnId> = wl.lock().committed_ids.clone();
        drop(node);
        store.reset_volatile();
        let trails;
        (trails, read_s) = timed(
            &mut trace,
            root,
            "recovery.read",
            || read_trails(&mut store, spec.shards),
            |_, _| {},
        );
        let rec;
        (rec, scan_s) = timed(
            &mut trace,
            root,
            "recovery.scan",
            || {
                let refs: Vec<Vec<&[u8]>> = trails
                    .iter()
                    .map(|s| s.iter().map(Vec::as_slice).collect())
                    .collect();
                txnkit::recovery::redo_scan_sharded(&refs)
            },
            |_, _| {},
        );
        trail_bytes = trails.iter().flatten().map(Vec::len).sum();
        entries = rec.shards.iter().map(|s| s.committed.len()).sum();
        // Compare as sets: a cross-shard transaction is recovered on
        // every shard it touched, so there are more entries than acks.
        let acked_set: HashSet<_> = acked.iter().copied().collect();
        if acked_set.len() != acked.len() {
            errors.push("a transaction was acknowledged twice".into());
        }
        let lost = acked_set.difference(&rec.committed).count();
        if acked.is_empty() || lost > 0 {
            errors.push(format!(
                "recovery lost {lost} of {} acknowledged commits",
                acked.len()
            ));
        }
    }
    window
        .counts
        .insert("recovery.trail_bytes", trail_bytes as u64);
    window.counts.insert("recovery.entries", entries as u64);
    if let (Some(t), Some(id)) = (trace, root) {
        t.close(id);
    }

    Rep {
        window,
        setup_s,
        setup_ref_s,
        build_s,
        install_s,
        warmup_s,
        window_s,
        window_ref_s,
        read_s,
        scan_s,
        allocs,
        errors,
    }
}

/// The window's counters and distributions; records failed consistency
/// checks in `errors`.
fn observe(
    spec: &Spec,
    node: &ClusterNode,
    wl: &SharedWorkloadStats,
    start: &Counters,
    end: &Counters,
    errors: &mut Vec<String>,
) -> Window {
    let mut w = Window::between(start, end);
    let committed = w.get("wl.committed");
    let aborted = w.get("wl.aborted");
    if committed == 0 {
        errors.push("no transaction committed".into());
    }
    // A settled workload has no transaction in flight: every attempt
    // ended in a commit or an abort, as the clients and the TMFs agree.
    if committed != w.get("txn.committed") || aborted != w.get("txn.aborted") {
        errors.push(format!(
            "clients saw {committed} commits / {aborted} aborts, the TMFs {} / {}",
            w.get("txn.committed"),
            w.get("txn.aborted")
        ));
    }
    if w.get("disk.audit_writes") != 0 {
        errors.push(format!(
            "{} audit writes went to disk",
            w.get("disk.audit_writes")
        ));
    }
    // With no device down, nothing acked into an NPMU's ingress buffer may
    // be lost. A down window does wipe the buffer; under PersistFlush the
    // wiped write's flush then fails and the client carries on with the
    // surviving half, which the resilver copies back.
    if !spec.outage && w.get("npmu.ingress_lost_bytes") != 0 {
        errors.push(format!(
            "{} bytes lost from NPMU ingress buffers with no device down",
            w.get("npmu.ingress_lost_bytes")
        ));
    }
    // The process-wide fabric counters are reset before each repetition;
    // they must then match the counters of this run's only network.
    let class = simnet::qos::process_stats();
    let fields = |c: &[simnet::ClassStats]| -> Vec<[u64; 4]> {
        c.iter()
            .map(|s| [s.ops, s.bytes, s.max_wait_ns, s.peak_depth])
            .collect()
    };
    if fields(&class) != fields(&node.net.lock().class_totals()) {
        errors.push("process-wide fabric counters disagree with this run's network".into());
    }
    for (c, wait, depth) in [
        (
            TrafficClass::Commit,
            "qos.commit.max_wait_ns",
            "qos.commit.peak_depth",
        ),
        (
            TrafficClass::Audit,
            "qos.audit.max_wait_ns",
            "qos.audit.peak_depth",
        ),
        (
            TrafficClass::Bulk,
            "qos.bulk.max_wait_ns",
            "qos.bulk.peak_depth",
        ),
    ] {
        w.peaks.insert(wait, class[c.idx()].max_wait_ns as f64);
        w.peaks.insert(depth, class[c.idx()].peak_depth as f64);
    }

    {
        let s = wl.lock();
        if s.response.count() != committed {
            errors.push("commit latency samples differ from commits".into());
        }
        w.response = s.response.clone();
        w.counts
            .insert("wl.measured_ns", s.finished_ns.saturating_sub(s.started_ns));
    }
    w.flush = node.stats.lock().flush_latency.clone();
    let resilver_ns = node.shards[0].pmm.as_ref().map_or(0, |p| {
        let s = p.stats.lock();
        s.resilver_completed_ns
            .saturating_sub(s.resilver_started_ns)
    });
    w.counts.insert("pmm.resilver_ns", resilver_ns);
    w
}

/// The reported simulated metrics of a (pooled) window: the end-to-end
/// ones first, then one group per layer.
pub fn metrics(w: &Window) -> Vec<(&'static str, f64)> {
    let committed = w.get("wl.committed");
    let aborted = w.get("wl.aborted");
    let attempted = committed + aborted;
    let per_commit = |k: &str| ratio(w.get(k), committed);
    let ms = |ns: f64| ns / 1e6;
    let commit_mean = ms(w.response.mean());
    let flush_mean = ms(w.flush.mean());
    let actions = [
        "txn.dbw_checkpoints",
        "txn.audit_deltas",
        "txn.adp_checkpoints",
        "txn.data_volume_writes",
        "txn.audit_volume_writes",
        "txn.pm_writes",
    ]
    .iter()
    .map(|k| w.get(k))
    .sum();
    let count = |k: &str| w.get(k) as f64;
    vec![
        (
            "commits_per_sec",
            ratio(committed, w.get("wl.measured_ns")) * 1e9,
        ),
        ("commit_p50_ms", ms(quantile(&w.response, 0.50))),
        ("commit_p99_ms", ms(quantile(&w.response, 0.99))),
        ("commit_mean_ms", commit_mean),
        ("simcore.events", count("events")),
        ("simcore.events_per_commit", per_commit("events")),
        ("nsk.cpu_busy_max", w.peak("cpu.busy_max")),
        (
            "nsk.cpu_busy_mean",
            ratio(w.get("cpu.work_ns"), w.get("cpu.capacity_ns")),
        ),
        ("nsk.ipc_msgs_per_commit", per_commit("net.msgs")),
        ("nsk.ipc_bytes_per_commit", per_commit("net.msg_bytes")),
        (
            "simnet.rdma_writes_per_commit",
            per_commit("net.rdma_writes"),
        ),
        (
            "simnet.rdma_flushes_per_commit",
            per_commit("net.rdma_flushes"),
        ),
        (
            "simnet.rdma_write_bytes_per_commit",
            per_commit("net.rdma_write_bytes"),
        ),
        ("simnet.retransmits", count("net.retransmits")),
        ("simnet.failovers", count("net.failovers")),
        ("simnet.unreachable", count("net.unreachable")),
        (
            "simnet.qos.commit.max_wait_us",
            w.peak("qos.commit.max_wait_ns") / 1e3,
        ),
        (
            "simnet.qos.commit.peak_depth",
            w.peak("qos.commit.peak_depth"),
        ),
        (
            "simnet.qos.audit.max_wait_us",
            w.peak("qos.audit.max_wait_ns") / 1e3,
        ),
        (
            "simnet.qos.bulk.max_wait_us",
            w.peak("qos.bulk.max_wait_ns") / 1e3,
        ),
        ("simnet.qos.bulk.bytes", count("net.bulk_bytes")),
        ("npmu.writes_per_commit", per_commit("npmu.writes")),
        ("npmu.flushes_per_commit", per_commit("npmu.flushes")),
        ("npmu.bytes_written", count("npmu.bytes_written")),
        ("npmu.bytes_read", count("npmu.bytes_read")),
        ("npmu.failed_ops", count("npmu.failed_ops")),
        ("npmu.ingress_lost_bytes", count("npmu.ingress_lost_bytes")),
        (
            "pmm.resilver_ms",
            ms(ratio(
                w.get("pmm.resilver_ns"),
                w.get("pmm.resilvers_completed"),
            )),
        ),
        (
            "pmm.resilver_mb_s",
            ratio(w.get("pmm.resilver_bytes"), w.get("pmm.resilver_ns")) * 1e3,
        ),
        ("pmm.resilver_bytes", count("pmm.resilver_bytes")),
        (
            "pmm.resilver_extra_passes",
            count("pmm.resilver_extra_passes"),
        ),
        ("pmm.bulk_throttle_waits", count("pmm.bulk_throttle_waits")),
        ("pmm.degraded_events", count("pmm.degraded_events")),
        ("txnkit.flush_p50_ms", ms(quantile(&w.flush, 0.50))),
        ("txnkit.flush_p99_ms", ms(quantile(&w.flush, 0.99))),
        ("txnkit.flush_mean_ms", flush_mean),
        (
            "txnkit.commit_minus_flush_mean_ms",
            commit_mean - flush_mean,
        ),
        (
            "txnkit.appends_per_batch",
            ratio(w.get("txn.pm_writes"), w.get("txn.pm_batches")),
        ),
        (
            "txnkit.ctrl_writes_per_commit",
            per_commit("txn.pm_ctrl_writes"),
        ),
        (
            "txnkit.actions_per_insert",
            ratio(actions, w.get("txn.inserts")),
        ),
        (
            "txnkit.dbw_checkpoints_per_commit",
            per_commit("txn.dbw_checkpoints"),
        ),
        (
            "txnkit.tmf_checkpoints_per_commit",
            per_commit("txn.tmf_checkpoints"),
        ),
        (
            "txnkit.twopc_prepares_per_commit",
            per_commit("txn.twopc_prepares"),
        ),
        ("txnkit.lock_timeouts", count("txn.lock_timeouts")),
        ("txnkit.deadlocks", count("txn.deadlocks")),
        (
            "txnkit.recovery.trail_mb",
            count("recovery.trail_bytes") / 1e6,
        ),
        ("txnkit.recovery.entries", count("recovery.entries")),
        (
            "simdisk.data_writes_per_commit",
            per_commit("txn.data_volume_writes"),
        ),
        ("simdisk.audit_writes", count("disk.audit_writes")),
        ("workload.attempted", attempted as f64),
        ("workload.committed", committed as f64),
        (
            "workload.cross_shard_committed",
            count("wl.cross_committed"),
        ),
        ("workload.txn_fail_ratio", ratio(aborted, attempted)),
    ]
}

/// repair1: exactly one resilver ran to completion, and the two mirror
/// halves now agree: the same newest metadata, and the same bytes past the
/// metadata area. (That area holds two alternating slots; the superseded
/// slot of the revived half keeps the older epoch it held before the
/// outage, which no reader consults.)
fn check_mirrors(node: &ClusterNode, w: &Window, errors: &mut Vec<String>) {
    let (started, completed) = (
        w.get("pmm.resilvers_started"),
        w.get("pmm.resilvers_completed"),
    );
    if started != 1 || completed != 1 {
        errors.push(format!(
            "expected exactly one resilver, saw {started} started / {completed} completed"
        ));
    }
    const CHUNK: u64 = 1 << 20;
    for (a, b) in &node.shards[0].pm_pool {
        let (a, b) = (a.mem.lock(), b.mem.lock());
        let meta_a = pmm::MetaStore::recover(|off, len| a.read(off, len));
        let meta_b = pmm::MetaStore::recover(|off, len| b.read(off, len));
        if meta_a != meta_b {
            errors.push(format!(
                "mirror halves recover different metadata: {meta_a:?} vs {meta_b:?}"
            ));
        }
        let cap = a.capacity();
        if cap != b.capacity() {
            errors.push("mirror halves differ in capacity".into());
            continue;
        }
        let mut off = pmm::META_BYTES;
        while off < cap {
            let len = CHUNK.min(cap - off) as usize;
            let (x, y) = (a.read(off, len), b.read(off, len));
            if let Some(i) = x.iter().zip(&y).position(|(p, q)| p != q) {
                errors.push(format!("mirror halves differ at byte {}", off + i as u64));
                break;
            }
            off += len as u64;
        }
    }
}

/// After power loss: every shard's audit trails, read from mirror half a
/// through the PMM's durable region table, as an offline tool would.
fn read_trails(store: &mut DurableStore, shards: u32) -> Vec<Vec<Vec<u8>>> {
    (0..shards)
        .map(|s| {
            let key = ClusterNode::npmu_store_key(s, 0, 'a');
            let img = store
                .get::<npmu::NvImage>(&key)
                .unwrap_or_else(|| panic!("no device image {key}"));
            let img = img.lock();
            let meta = pmm::MetaStore::recover(|off, len| img.read(off, len));
            let skip = txnkit::adp::PM_CTRL_BYTES;
            (0..)
                .map_while(|i| meta.find(&format!("adp{i}.audit")))
                .map(|r| img.read(r.base + skip, (r.len - skip) as usize))
                .collect()
        })
        .collect()
}

//! Acceptance tests for the partitioned, pipelined PM audit subsystem
//! under failure and backlog:
//!
//! * an ADP partition's primary is killed mid-run; the backup must
//!   recover the exact durable position — from the PM control cell, or
//!   from the devices' append tails when the trail rides the device-side
//!   append — so no acknowledged append is lost and no commit is
//!   double-counted, and offline recovery over the per-partition trails
//!   (merged by LSN) rebuilds exactly the acknowledged history;
//! * a burst of appends deeper than the pipeline ring coalesces into
//!   wide batched writes and into fewer control-cell publications than
//!   appends (one cell write covers every append completed since the
//!   previous one).

mod common;

use bytes::Bytes;
use common::read_region;
use hotstock::driver::{HotStockDriver, SharedDriverStats};
use npmu::NpmuConfig;
use nsk::machine::{install_primary, CpuId, Machine, MachineConfig, SharedMachine};
use nsk::Monitor;
use parking_lot::Mutex;
use pmem::{install_audit_partitions, install_pm_pool};
use simcore::actor::Start;
use simcore::fault::{Fault, FaultPlan};
use simcore::time::{MILLIS, SECS};
use simcore::{Actor, Ctx, DurableStore, Msg, Sim, SimDuration, SimTime};
use simnet::{EndpointId, NetDelivery};
use std::sync::Arc;
use txnkit::adp::{parse_ctrl_cell, PM_CTRL_BYTES};
use txnkit::recovery::redo_scan_partitioned;
use txnkit::scenario::{build_ods, AuditMode, OdsParams};
use txnkit::{AppendDone, AuditAppend, FlushDone, FlushReq, Lsn, TxnConfig};

#[test]
fn adp_primary_killed_mid_pipeline_loses_no_acknowledged_append() {
    kill_partition_primary_mid_pipeline(false);
}

#[test]
fn offload_adp_primary_killed_mid_append_loses_no_acknowledged_append() {
    kill_partition_primary_mid_pipeline(true);
}

/// `offload` selects the device-side append (`pm_offload_append`): the
/// takeover then recovers its position by probing the devices' tails
/// instead of reading a control cell.
fn kill_partition_primary_mid_pipeline(offload: bool) {
    let drivers = 2u32;
    let records_per_driver = 384u64;
    let inserts_per_txn = 8u32;

    // Drivers start at t = 1.1 s; partition 1's primary dies at 1.3 s
    // with appends in flight. PM-mode ADPs keep no backup checkpoints:
    // the takeover must recover the durable watermark from PM alone.
    let mut store = DurableStore::new();
    let mut params = OdsParams {
        audit: AuditMode::HardwareNpmu,
        ..OdsParams::pm(0xAD17)
    };
    params.txn.pm_offload_append = offload;
    let mut node = build_ods(&mut store, params);
    Monitor::install(
        &mut node.sim,
        &node.machine,
        FaultPlan::none().with(Fault::KillProcess {
            name: "$ADP1".into(),
            at: SimTime(1300 * MILLIS),
        }),
    );
    let warmup = SimDuration::from_millis(1100);
    let mut driver_stats: Vec<SharedDriverStats> = Vec::new();
    for d in 0..drivers {
        let st = HotStockDriver::install(
            &mut node.sim,
            &node.machine.clone(),
            node.tmf.clone(),
            node.partition_map.clone(),
            node.params.files,
            node.params.parts_per_file,
            d,
            CpuId(d % node.params.cpus),
            4096,
            inserts_per_txn,
            records_per_driver,
            warmup,
            node.params.txn.issue_cpu_ns,
        );
        driver_stats.push(st);
    }

    let ceiling = SimTime(600 * SECS);
    while !driver_stats.iter().all(|s| s.lock().done) {
        let now = node.sim.now();
        assert!(now < ceiling, "workload did not finish after ADP takeover");
        node.sim.run_until(SimTime(now.as_nanos() + 200 * MILLIS));
    }
    // Grace period for in-flight trail tails to land.
    let now = node.sim.now();
    node.sim.run_until(SimTime(now.as_nanos() + SECS));

    // Exactly the acknowledged work, once: nothing lost to the takeover,
    // nothing re-acknowledged after it.
    let committed: u64 = driver_stats.iter().map(|s| s.lock().committed_txns).sum();
    let inserted: u64 = driver_stats.iter().map(|s| s.lock().inserted_records).sum();
    let want_txns = drivers as u64 * records_per_driver / inserts_per_txn as u64;
    assert_eq!(inserted, drivers as u64 * records_per_driver);
    assert_eq!(committed, want_txns);
    // The killed partition's name still resolves: the backup took over.
    assert!(node.machine.lock().resolve("$ADP1").is_some());
    {
        let s = node.stats.lock();
        assert_eq!(s.adp_checkpoints, 0, "PM mode sends no data checkpoints");
        assert_eq!(s.pm_ctrl_writes > 0, !offload, "control cells iff classic");
        assert_eq!(s.txns_committed, want_txns);
    }

    if offload {
        // Both halves' append cells hold the same CRC-valid tail, and it
        // is exact: every byte of the trail lies below it.
        let mut tails = Vec::new();
        for half in ['a', 'b'] {
            let raw = read_region(&mut store, &format!("npmu:pm-{half}"), "adp1.audit", 0);
            let (tail, slot) = npmu::parse_append_cell(&raw);
            assert!(slot.is_some(), "no valid append-cell slot on half {half}");
            let trail = &raw[PM_CTRL_BYTES as usize..];
            assert!(
                trail[tail as usize..].iter().all(|&b| b == 0),
                "half {half} holds trail bytes past its tail {tail}"
            );
            tails.push(tail);
        }
        assert!(tails[0] > 0, "partition 1 appended nothing");
        assert_eq!(tails[0], tails[1], "mirrored tails diverged");
    } else {
        // The control cell the takeover read back is well-formed (at
        // least one CRC-valid slot) and covers the durable appends.
        let raw = read_region(&mut store, "npmu:pm-a", "adp1.audit", 0);
        let (wm, slot) = parse_ctrl_cell(&raw);
        assert!(slot.is_some(), "no valid control-cell slot");
        assert!(wm > 0, "partition 1 published no watermark");
    }

    // Offline recovery: merge the four per-partition trails by LSN and
    // redo. Every acknowledged commit (and only complete history) is
    // rebuilt, including the partition that failed over mid-run.
    let trails: Vec<Vec<u8>> = (0..4)
        .map(|i| {
            read_region(
                &mut store,
                "npmu:pm-a",
                &format!("adp{i}.audit"),
                PM_CTRL_BYTES,
            )
        })
        .collect();
    let refs: Vec<&[u8]> = trails.iter().map(|t| t.as_slice()).collect();
    let rec = redo_scan_partitioned(&refs);
    assert_eq!(rec.committed.len() as u64, want_txns);
    assert!(rec.inflight.is_empty(), "completed run leaves no inflight");
    let keys: usize = rec.tables.values().map(|t| t.len()).sum();
    assert_eq!(keys as u64, inserted, "all committed inserts redone");

    // Both mirror halves hold the same trail bytes, takeover included.
    for i in 0..4 {
        let b = read_region(&mut store, "npmu:pm-b", &format!("adp{i}.audit"), 0);
        let a = read_region(&mut store, "npmu:pm-a", &format!("adp{i}.audit"), 0);
        assert_eq!(a, b, "partition {i} mirrors diverged");
    }
}

// ---------------------------------------------------------------------
// Burst coalescing
// ---------------------------------------------------------------------

const BURST: u64 = 48;
const RECORD_BYTES: usize = 2048;
const REGION_LEN: u64 = 1 << 20;

#[derive(Default)]
struct BurstResults {
    appends_done: u64,
    flushed: bool,
}

/// Fires `BURST` appends at one partition in a single instant, then
/// flushes through the last LSN once they are all acknowledged.
struct BurstClient {
    machine: SharedMachine,
    ep: EndpointId,
    cpu: CpuId,
    adp: String,
    max_lsn: Lsn,
    results: Arc<Mutex<BurstResults>>,
}

struct Kickoff;

impl Actor for BurstClient {
    fn name(&self) -> &str {
        "burst-client"
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        if msg.is::<Start>() {
            ctx.send_self(SimDuration::from_millis(200), Kickoff);
            return;
        }
        if msg.is::<Kickoff>() {
            for seq in 0..BURST {
                let machine = self.machine.clone();
                nsk::proc::send_to_process(
                    ctx,
                    &machine,
                    self.ep,
                    self.cpu,
                    &self.adp,
                    RECORD_BYTES as u32 + 16,
                    AuditAppend {
                        records: Bytes::from(vec![0xB5u8; RECORD_BYTES]),
                        virtual_len: RECORD_BYTES as u32,
                        token: seq,
                    },
                );
            }
            return;
        }
        if let Ok((_, delivery)) = msg.take::<NetDelivery>() {
            let payload = match delivery.payload.downcast::<AppendDone>() {
                Ok(done) => {
                    self.max_lsn = self.max_lsn.max(done.lsn_end);
                    let mut r = self.results.lock();
                    r.appends_done += 1;
                    let all = r.appends_done == BURST;
                    drop(r);
                    if all {
                        let machine = self.machine.clone();
                        nsk::proc::send_to_process(
                            ctx,
                            &machine,
                            self.ep,
                            self.cpu,
                            &self.adp,
                            32,
                            FlushReq {
                                upto: self.max_lsn,
                                token: 0,
                            },
                        );
                    }
                    return;
                }
                Err(p) => p,
            };
            if payload.downcast::<FlushDone>().is_ok() {
                self.results.lock().flushed = true;
            }
        }
    }
}

#[test]
fn burst_appends_coalesce_batches_and_watermark_publication() {
    let mut store = DurableStore::new();
    let mut sim = Sim::with_seed(23);
    let net = simnet::Network::new(simnet::FabricConfig::default());
    let machine = Machine::new(
        MachineConfig {
            cpus: 2,
            ..MachineConfig::default()
        },
        net,
    );
    let cap = (REGION_LEN + pmm::META_BYTES) * 3 + (64 << 20);
    let pool = install_pm_pool(
        &mut sim,
        &mut store,
        &machine,
        "pm",
        NpmuConfig::hardware(cap),
        1,
        CpuId(1),
        Some(CpuId(0)),
    );
    let stats = txnkit::stats::shared();
    let adps = install_audit_partitions(
        &mut sim,
        &machine,
        &pool.pmm_name,
        1,
        1,
        REGION_LEN,
        true,
        TxnConfig::pm_enabled(),
        stats.clone(),
    );
    let results: Arc<Mutex<BurstResults>> = Arc::new(Mutex::new(BurstResults::default()));
    let machine2 = machine.clone();
    let adp = adps[0].clone();
    let results2 = results.clone();
    install_primary(&mut sim, &machine, "$burst", CpuId(1), move |ep| {
        Box::new(BurstClient {
            machine: machine2,
            ep,
            cpu: CpuId(1),
            adp,
            max_lsn: Lsn(0),
            results: results2,
        })
    });
    sim.run_until(SimTime(30 * SECS));

    let r = results.lock();
    assert_eq!(r.appends_done, BURST, "every append acknowledged");
    assert!(r.flushed, "flush through the last LSN answered");
    drop(r);

    // The burst arrives faster than the mirrored 2 KB writes drain, so
    // the ring backlogs: staged appends ride in shared batched writes,
    // and each control-cell write publishes several appends at once.
    let s = stats.lock();
    assert_eq!(s.pm_writes, BURST);
    assert!(
        s.pm_batches < BURST,
        "expected batched submissions, got {} batches for {} appends",
        s.pm_batches,
        BURST
    );
    assert!(
        s.pm_ctrl_writes < s.pm_writes,
        "expected coalesced publication: {} ctrl writes for {} appends",
        s.pm_ctrl_writes,
        s.pm_writes
    );
    assert!(s.pm_ctrl_writes >= 1);
}

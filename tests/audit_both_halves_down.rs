//! Both mirror halves of the audit trail down at once, mid-commit-burst.
//!
//! Half 1 dies first and half 0 follows while half 1 is still out, so for
//! a stretch no half persists anything: every trail write in that stretch
//! completes in error. The ADP must not treat a failed write as durable —
//! neither a data batch nor a control-cell publication. It re-drives the
//! batch from its kept payload until a half answers, and only then acks.
//! Half 1 then revives stale, so under the device-side append its tail
//! lags the pair's: acks wait until the pair's shorter tail covers them.
//! After both halves revive and the PMM resilvers, offline recovery over
//! the durable images must redo every acknowledged commit.

mod common;

use common::read_region;
use hotstock::driver::{HotStockDriver, SharedDriverStats};
use nsk::machine::CpuId;
use simcore::fault::{Fault, FaultPlan};
use simcore::time::{MILLIS, SECS};
use simcore::{DurableStore, SimDuration, SimTime};
use txnkit::adp::PM_CTRL_BYTES;
use txnkit::recovery::redo_scan_partitioned;
use txnkit::scenario::{build_ods, AuditMode, OdsParams};

#[test]
fn both_halves_down_loses_no_acknowledged_commit() {
    run_both_halves_down(false);
}

#[test]
fn offload_both_halves_down_loses_no_acknowledged_commit() {
    run_both_halves_down(true);
}

/// `offload` selects the device-side append (`pm_offload_append`).
fn run_both_halves_down(offload: bool) {
    let drivers = 2u32;
    let records_per_driver = 384u64;
    let inserts_per_txn = 8u32;

    // Drivers start at 1.1 s. Half 1 is down over [1.15 s, 1.40 s), half
    // 0 over [1.19994 s, 1.30 s): 100 ms with no half to write to. Half 0
    // fails while a control-cell write is in flight, so the classic run
    // re-drives a failed cell write as well as failed data batches.
    let plan = FaultPlan::none()
        .with(Fault::NpmuDown {
            volume_half: 1,
            from: SimTime(1150 * MILLIS),
            to: SimTime(1400 * MILLIS),
        })
        .with(Fault::NpmuDown {
            volume_half: 0,
            from: SimTime(1_199_940_000),
            to: SimTime(1300 * MILLIS),
        });
    let mut store = DurableStore::new();
    let mut params = OdsParams {
        audit: AuditMode::HardwareNpmu,
        fault_plan: plan,
        ..OdsParams::pm(0xB07D)
    };
    params.txn.pm_offload_append = offload;
    let mut node = build_ods(&mut store, params);

    let warmup = SimDuration::from_millis(1100);
    let mut driver_stats: Vec<SharedDriverStats> = Vec::new();
    for d in 0..drivers {
        driver_stats.push(HotStockDriver::install(
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
        ));
    }
    let pmm = node.pmm.clone().expect("PM mode has a PMM");
    let ceiling = SimTime(600 * SECS);
    while !driver_stats.iter().all(|s| s.lock().done) || pmm.stats.lock().resilvers_completed == 0 {
        let now = node.sim.now();
        assert!(now < ceiling, "workload or resilver did not finish");
        node.sim.run_until(SimTime(now.as_nanos() + 200 * MILLIS));
    }
    let now = node.sim.now();
    node.sim.run_until(SimTime(now.as_nanos() + SECS));

    let committed: u64 = driver_stats.iter().map(|s| s.lock().committed_txns).sum();
    let inserted: u64 = driver_stats.iter().map(|s| s.lock().inserted_records).sum();
    assert!(committed > 0, "workload committed nothing");
    drop(node);

    // Power-cut view: only what reached the arrays counts.
    store.reset_volatile();
    for half in ['a', 'b'] {
        let trails: Vec<Vec<u8>> = (0..4)
            .map(|i| {
                read_region(
                    &mut store,
                    &format!("npmu:pm-{half}"),
                    &format!("adp{i}.audit"),
                    PM_CTRL_BYTES,
                )
            })
            .collect();
        let refs: Vec<&[u8]> = trails.iter().map(|t| t.as_slice()).collect();
        let rec = redo_scan_partitioned(&refs);
        assert_eq!(
            rec.committed.len() as u64,
            committed,
            "half {half}: acknowledged commits missing from the recovered trail"
        );
        let keys: usize = rec.tables.values().map(|t| t.len()).sum();
        assert_eq!(keys as u64, inserted, "half {half}: committed inserts lost");
    }
}

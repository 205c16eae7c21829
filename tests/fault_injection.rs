//! Fault injection under load: the workload must complete — degraded,
//! never wrong — through packet corruption, a fabric outage, and the
//! mirrors must stay byte-identical through it all (§1.3 data integrity).

use hotstock::{run_hot_stock, HotStockParams, TxnSize};
use simcore::fault::{Fault, FaultPlan};
use simcore::time::SECS;
use simcore::{DurableStore, SimTime};
use txnkit::scenario::{build_ods, AuditMode, OdsParams};

#[test]
fn workload_completes_under_packet_corruption() {
    // A 2% CRC-corruption storm for the whole run: ServerNet detects and
    // retransmits in hardware; everything completes, just slower.
    let clean = run_hot_stock(HotStockParams::scaled(1, TxnSize::K32, AuditMode::Pmp, 200));

    let mut store = DurableStore::new();
    let mut node = build_ods(&mut store, OdsParams::pm(4242));
    node.net.lock().fault_plan = FaultPlan::none().with(Fault::PacketCorruption {
        rate: 0.02,
        from: SimTime(0),
        to: SimTime(3600 * SECS),
    });
    let tmf = node.tmf.clone();
    let pmap = node.partition_map.clone();
    let (files, parts) = (node.params.files, node.params.parts_per_file);
    let issue = node.params.txn.issue_cpu_ns;
    let machine = node.machine.clone();
    let stats = hotstock::driver::HotStockDriver::install(
        &mut node.sim,
        &machine,
        tmf,
        pmap,
        files,
        parts,
        0,
        nsk::machine::CpuId(0),
        4096,
        8,
        200,
        simcore::SimDuration::from_millis(1100),
        issue,
    );
    node.sim.run_until(SimTime(600 * SECS));
    let s = stats.lock();
    assert!(s.done, "run must complete under corruption");
    assert_eq!(s.inserted_records, 200);
    let net = node.net.lock();
    assert!(net.stats.retransmits > 0, "corruption must be exercised");
    drop(net);
    drop(s);
    let noisy_mean = stats.lock().response.mean();
    assert!(
        noisy_mean > clean.response.mean(),
        "retransmissions should cost latency: {noisy_mean} vs {}",
        clean.response.mean()
    );
}

#[test]
fn workload_survives_fabric_x_outage() {
    // Fabric X down for two seconds mid-run: ops fail over to Y.
    let mut store = DurableStore::new();
    let mut node = build_ods(&mut store, OdsParams::pm(4343));
    node.net.lock().fault_plan = FaultPlan::none().with(Fault::FabricDown {
        fabric: 0,
        from: SimTime(3 * SECS / 2),
        to: SimTime(3 * SECS),
    });
    let tmf = node.tmf.clone();
    let pmap = node.partition_map.clone();
    let (files, parts) = (node.params.files, node.params.parts_per_file);
    let issue = node.params.txn.issue_cpu_ns;
    let machine = node.machine.clone();
    let stats = hotstock::driver::HotStockDriver::install(
        &mut node.sim,
        &machine,
        tmf,
        pmap,
        files,
        parts,
        0,
        nsk::machine::CpuId(0),
        4096,
        8,
        3000,
        simcore::SimDuration::from_millis(1100),
        issue,
    );
    node.sim.run_until(SimTime(600 * SECS));
    assert!(stats.lock().done);
    assert_eq!(stats.lock().inserted_records, 3000);
    assert!(
        node.net.lock().stats.failovers > 0,
        "the outage window must have forced path failovers"
    );
}

#[test]
fn mirrors_byte_identical_after_workload() {
    // §1.3 duplicate-and-compare: after a full PM workload, scrub the
    // mirrored pair — every region byte-identical.
    let mut store = DurableStore::new();
    let mut node = build_ods(
        &mut store,
        OdsParams {
            audit: AuditMode::HardwareNpmu,
            ..OdsParams::pm(909)
        },
    );
    let tmf = node.tmf.clone();
    let pmap = node.partition_map.clone();
    let (files, parts) = (node.params.files, node.params.parts_per_file);
    let issue = node.params.txn.issue_cpu_ns;
    let machine = node.machine.clone();
    let stats = hotstock::driver::HotStockDriver::install(
        &mut node.sim,
        &machine,
        tmf,
        pmap,
        files,
        parts,
        0,
        nsk::machine::CpuId(0),
        4096,
        8,
        400,
        simcore::SimDuration::from_millis(1100),
        issue,
    );
    node.sim.run_until(SimTime(600 * SECS));
    assert!(stats.lock().done);

    let (a, b) = &node.pm_pool[0];
    let report = pmem::verify_mirrors(&a.mem, &b.mem, 16);
    assert!(
        report.is_clean(),
        "mirror scrub found: {:?}",
        report.discrepancies
    );
    assert!(report.regions_checked >= 4, "all ADP regions scrubbed");
    assert!(report.bytes_compared > 0);

    // Inject silent corruption into one mirror; the scrubber must catch it.
    b.mem.lock().write(pmm::META_BYTES + 4096 + 77, &[0x5A]);
    let report = pmem::verify_mirrors(&a.mem, &b.mem, 16);
    assert!(!report.is_clean(), "injected SDC must be detected");
}

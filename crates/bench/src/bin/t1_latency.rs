//! T1 — durable-write latency by attachment (§3.2/§3.3 claims):
//! "The handling of SCSI commands, DMA, interrupts and context switching
//! results in 100s of microseconds – usually milliseconds – of I/O
//! latency" vs host-initiated RDMA PM at "only 10s of microseconds".

use pm_bench::{measure_disk_write, measure_pm_write, Args, MeasureOpts, PmPathVariant, Table};
use pmem::NpmuConfig;
use simdisk::{DiskConfig, WriteCachePolicy};
use simnet::{FabricConfig, ServerNetGen};

fn main() {
    const N: u32 = 200;
    let args = Args::parse();
    let mut t = Table::new(&["path", "size_B", "mean_us", "p95_us", "durable"]);
    let mut metrics: Vec<(String, f64)> = Vec::new();
    let record =
        |metrics: &mut Vec<(String, f64)>, key: &str, size: u32, h: &simcore::Histogram| {
            metrics.push((format!("{key}_{size}b_mean_us"), h.mean() / 1e3));
            metrics.push((format!("{key}_{size}b_p50_us"), h.p50() as f64 / 1e3));
            metrics.push((format!("{key}_{size}b_p99_us"), h.p99() as f64 / 1e3));
        };

    for size in [64u32, 4096] {
        let disk_rand = measure_disk_write(DiskConfig::audit_volume(), size, N, false);
        t.row(&[
            "disk write-through (random)".into(),
            size.to_string(),
            format!("{:.1}", disk_rand.mean() / 1e3),
            format!("{:.1}", disk_rand.p95() as f64 / 1e3),
            "yes".into(),
        ]);
        record(&mut metrics, "disk_random", size, &disk_rand);
        let disk_seq = measure_disk_write(DiskConfig::audit_volume(), size, N, true);
        t.row(&[
            "disk write-through (log-sequential)".into(),
            size.to_string(),
            format!("{:.1}", disk_seq.mean() / 1e3),
            format!("{:.1}", disk_seq.p95() as f64 / 1e3),
            "yes".into(),
        ]);
        record(&mut metrics, "disk_sequential", size, &disk_seq);
        let disk_bb = measure_disk_write(
            DiskConfig {
                cache: WriteCachePolicy::BatteryBacked,
                ..DiskConfig::default()
            },
            size,
            N,
            false,
        );
        t.row(&[
            "disk + battery-backed cache".into(),
            size.to_string(),
            format!("{:.1}", disk_bb.mean() / 1e3),
            format!("{:.1}", disk_bb.p95() as f64 / 1e3),
            "yes (battery)".into(),
        ]);
        record(&mut metrics, "disk_battery_cache", size, &disk_bb);
        let pm_stack = measure_pm_write(MeasureOpts {
            variant: PmPathVariant::StorageStack,
            ..MeasureOpts::pm_default(N, size)
        });
        t.row(&[
            "PM behind block storage stack".into(),
            size.to_string(),
            format!("{:.1}", pm_stack.mean() / 1e3),
            format!("{:.1}", pm_stack.p95() as f64 / 1e3),
            "yes".into(),
        ]);
        record(&mut metrics, "pm_storage_stack", size, &pm_stack);
        for (label, generation) in [("gen1", ServerNetGen::Gen1), ("gen2", ServerNetGen::Gen2)] {
            let pm = measure_pm_write(MeasureOpts {
                fabric: FabricConfig::for_gen(generation),
                ..MeasureOpts::pm_default(N, size)
            });
            t.row(&[
                format!("PM direct RDMA ({label}, mirrored)"),
                size.to_string(),
                format!("{:.1}", pm.mean() / 1e3),
                format!("{:.1}", pm.p95() as f64 / 1e3),
                "yes (mirrored)".into(),
            ]);
            record(&mut metrics, &format!("pm_rdma_{label}"), size, &pm);
        }
        let pmp = measure_pm_write(MeasureOpts {
            device: NpmuConfig::pmp(64 << 20),
            ..MeasureOpts::pm_default(N, size)
        });
        t.row(&[
            "PMP prototype (direct RDMA)".into(),
            size.to_string(),
            format!("{:.1}", pmp.mean() / 1e3),
            format!("{:.1}", pmp.p95() as f64 / 1e3),
            "volatile (prototype)".into(),
        ]);
        record(&mut metrics, "pmp_prototype", size, &pmp);
    }

    t.print("T1: durable-write latency by attachment (paper §3.2–§3.3)");
    println!("paper bands: storage stack = 100s of us .. ms; PM direct = 10s of us");

    args.emit("t1_latency", &metrics);
}

//! # pm-bench — harnesses that regenerate the paper's figures and claims
//!
//! One binary per experiment (see DESIGN.md §12):
//!
//! | binary            | reproduces |
//! |-------------------|------------|
//! | `fig1`            | Figure 1 — response-time speedup vs transaction size, 1–4 drivers |
//! | `fig2`            | Figure 2 — elapsed time vs transaction size, {1,2} drivers × {PM, no-PM} |
//! | `t1_latency`      | §3.2/§3.3 — durable-write latency by attachment |
//! | `t2_actions`      | §3.4 — persistence actions per inserted row |
//! | `t3_mttr`         | §3.4 — recovery time (MTTR) by strategy |
//! | `t4_npmu_vs_pmp`  | §4.2 — hardware NPMU vs PMP prototype |
//! | `t5_adp_scaling`  | §4.2 — audit throughput vs ADPs per node |
//! | `pool_scaling`    | DESIGN.md §4 — aggregate write bandwidth vs pool members |
//! | `resilver_mttr`   | DESIGN.md §3 — redundancy-repair time vs region bytes |
//! | `audit_scaling`   | DESIGN.md §5 — commit rate vs audit partitions (T8) |
//! | `read_scaling`    | DESIGN.md §6 — read throughput vs window × routing (T9) |
//! | `persist_modes`   | DESIGN.md §7 — commit latency by persistence mode × pipeline depth (T10) |
//! | `shard_scaling`   | DESIGN.md §8 — sharded txn throughput, 2PC tax, population load (T11) |
//! | `qos_isolation`   | DESIGN.md §9 — commit p99 vs online resilver by QoS policy (T12) |
//! | `offload`         | DESIGN.md §10 — near-device offload: device append / scrub / NPMU→NPMU copy (T13) |
//! | `georep`          | DESIGN.md §11 — geo-replication: RPO/RTO by shipping mode × WAN delay (T14) |
//! | `ablations`       | DESIGN.md ablations A1–A3 |
//!
//! Each binary prints a CSV block (machine-readable) and an aligned text
//! table (human-readable). Every binary parses its flags once through
//! [`Args`]:
//!
//! * `--full` — the paper-scale run. The hot-stock figures default to
//!   2000 records/driver (≈ 1/16 of the paper's 32000, same shape).
//! * `--records N` — records per driver, read by `qos_isolation` alone.
//! * `--json` — also write `results/BENCH_<name>.json` ([`Args::emit`]).
//!
//! Shared rigs live in [`rig`]: the audit-commit loop behind
//! `audit_scaling`, `persist_modes` and `offload` ([`rig::run_commits`]),
//! and the mirror-repair setup behind `resilver_mttr` and `offload`
//! ([`rig::resilver_rig`]).

pub mod json;
pub mod measure;
pub mod measure_pool;
pub mod measure_read;
pub mod rig;
pub mod table;

pub use measure::{measure_disk_write, measure_pm_write, MeasureOpts, PmPathVariant};
pub use measure_pool::{measure_pool_write_bw, PoolBwOpts, PoolBwResult};
pub use measure_read::{measure_pool_read_bw, ReadBwOpts, ReadBwResult, ReadWorkload};
pub use table::Table;

/// The flags every bench binary accepts, parsed once.
pub struct Args {
    /// `--full`: paper-scale run.
    pub full: bool,
    /// `--json`: also write `results/BENCH_<name>.json`.
    pub json: bool,
    /// `--records N`: records per driver (`qos_isolation` only).
    pub records: Option<u64>,
}

impl Args {
    pub fn parse() -> Args {
        Self::from_iter(std::env::args().skip(1))
    }

    fn from_iter(args: impl IntoIterator<Item = String>) -> Args {
        let mut out = Args {
            full: false,
            json: false,
            records: None,
        };
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--full" => out.full = true,
                "--json" => out.json = true,
                "--records" => {
                    out.records = Some(
                        args.next()
                            .and_then(|n| n.parse().ok())
                            .expect("--records N"),
                    )
                }
                _ => {}
            }
        }
        out
    }

    /// Records per driver for the hot-stock figures: 32000 (the paper's
    /// scale) with `--full`, else 2000 (≈ 1/16, same shape).
    pub fn records_per_driver(&self) -> u64 {
        if self.full {
            32_000
        } else {
            2_000
        }
    }

    /// Under `--json`, write the artifact and say where.
    pub fn emit(&self, name: &str, metrics: &[(String, f64)]) {
        if self.json {
            let path = json::emit(name, metrics).expect("write json");
            println!("wrote {}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Args;

    #[test]
    fn parses_the_shared_flags() {
        let args = |v: &[&str]| Args::from_iter(v.iter().map(|s| s.to_string()));
        let a = args(&["--json", "--records", "500"]);
        assert!(a.json && !a.full);
        assert_eq!(a.records, Some(500));
        assert_eq!(a.records_per_driver(), 2_000);
        assert_eq!(args(&["--full"]).records_per_driver(), 32_000);
        assert_eq!(args(&[]).records_per_driver(), 2_000);
    }
}

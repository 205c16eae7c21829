//! Rigs shared by several bench binaries.
//!
//! * [`run_commits`] — the audit-commit rig behind T8 `audit_scaling`,
//!   T10 `persist_modes` and T13a `offload`. Closed-loop clients append a
//!   64-byte commit record to the partition chosen by
//!   `TxnId::audit_partition` and flush it (append → `AppendDone` →
//!   `FlushReq` → `FlushDone` = one hardened commit). The DP2 insert path
//!   is left out, so the PM audit trail is the bottleneck under test.
//! * [`resilver_rig`] — the mirror-repair setup behind `resilver_mttr`
//!   and T13b/c `offload`: a pool whose every member loses one half
//!   briefly, and a client that makes the PMM notice.

use bytes::Bytes;
use npmu::{Npmu, NpmuConfig};
use nsk::machine::{install_primary, CpuId, Machine, MachineConfig, SharedMachine};
use nsk::Monitor;
use parking_lot::Mutex;
use pmclient::PmLib;
use pmem::{install_audit_partitions, install_pm_pool};
use pmm::msgs::CreateRegionAck;
use pmm::{PlacementHint, PmmConfig, PmmHandle};
use simcore::actor::Start;
use simcore::fault::{Fault, FaultPlan};
use simcore::time::{MILLIS, SECS};
use simcore::{Actor, Ctx, DurableStore, Histogram, Msg, Sim, SimDuration, SimTime};
use simnet::{EndpointId, NetDelivery, NetStats, SharedNetwork};
use std::sync::Arc;
use txnkit::stats::SharedTxnStats;
use txnkit::{AppendDone, AuditAppend, FlushDone, FlushReq, TxnConfig, TxnId};

/// CPUs the commit clients and ADPs run on; one more hosts the PMM.
pub const WORKER_CPUS: u32 = 4;
/// Each audit partition's trail region.
pub const REGION_LEN: u64 = 8 << 20;
/// One commit record per commit (`TxnConfig::commit_record_bytes`).
const RECORD_BYTES: usize = 64;

/// One audit-commit run.
pub struct CommitRig {
    pub seed: u64,
    /// Members of the PM pool the trails stripe over.
    pub pool_volumes: u32,
    /// ADP process pairs, one trail region each.
    pub partitions: u32,
    /// Capacity of every NPMU, bytes.
    pub device_cap: u64,
    pub txn: TxnConfig,
    pub clients: u64,
    pub commits_per_client: u64,
}

/// What one run measured.
pub struct CommitPoint {
    pub commits_per_sec: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub committed: u64,
    /// Fabric counters over the workload phase only (setup excluded).
    pub net: NetStats,
    /// Fabric counters over setup: region create, trail adoption, boot
    /// reads and tail probes.
    pub setup_net: NetStats,
    pub stats: SharedTxnStats,
}

#[derive(Default)]
struct BenchResults {
    committed: u64,
    started_ns: u64,
    done_at_ns: u64,
    latency: Histogram,
}

type SharedResults = Arc<Mutex<BenchResults>>;

/// One closed-loop commit source: append a commit record to the hashed
/// partition, flush it, repeat.
struct Appender {
    machine: SharedMachine,
    ep: EndpointId,
    cpu: CpuId,
    adps: Vec<String>,
    id: u64,
    commits: u64,
    seq: u64,
    commit_started_ns: u64,
    results: SharedResults,
}

struct Kickoff;

/// The appenders start timing here, once every partition's region booted.
const KICKOFF_MS: u64 = 200;

impl Appender {
    fn current_adp(&self) -> String {
        let txn = TxnId(self.id * 1_000_000 + self.seq);
        self.adps[txn.audit_partition(self.adps.len())].clone()
    }

    fn begin_commit(&mut self, ctx: &mut Ctx<'_>) {
        if self.seq >= self.commits {
            self.results.lock().done_at_ns = ctx.now().as_nanos();
            return;
        }
        self.commit_started_ns = ctx.now().as_nanos();
        let adp = self.current_adp();
        let machine = self.machine.clone();
        nsk::proc::send_to_process(
            ctx,
            &machine,
            self.ep,
            self.cpu,
            &adp,
            RECORD_BYTES as u32 + 16,
            AuditAppend {
                records: Bytes::from(vec![0xC0u8; RECORD_BYTES]),
                virtual_len: RECORD_BYTES as u32,
                token: self.seq,
            },
        );
    }
}

impl Actor for Appender {
    fn name(&self) -> &str {
        "appender"
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        if msg.is::<Start>() {
            ctx.send_self(SimDuration::from_millis(KICKOFF_MS), Kickoff);
            return;
        }
        if msg.is::<Kickoff>() {
            self.results.lock().started_ns = ctx.now().as_nanos();
            self.begin_commit(ctx);
            return;
        }
        if let Ok((_, delivery)) = msg.take::<NetDelivery>() {
            let payload = match delivery.payload.downcast::<AppendDone>() {
                Ok(done) => {
                    let adp = self.current_adp();
                    let machine = self.machine.clone();
                    nsk::proc::send_to_process(
                        ctx,
                        &machine,
                        self.ep,
                        self.cpu,
                        &adp,
                        32,
                        FlushReq {
                            upto: done.lsn_end,
                            token: done.token,
                        },
                    );
                    return;
                }
                Err(p) => p,
            };
            if payload.downcast::<FlushDone>().is_ok() {
                let mut r = self.results.lock();
                r.committed += 1;
                r.latency
                    .record(ctx.now().as_nanos() - self.commit_started_ns);
                drop(r);
                self.seq += 1;
                self.begin_commit(ctx);
            }
        }
    }
}

/// Run `rig.clients` closed-loop commit sources to completion.
pub fn run_commits(rig: CommitRig) -> CommitPoint {
    let mut store = DurableStore::new();
    let mut sim = Sim::with_seed(rig.seed);
    let net = simnet::Network::new(simnet::FabricConfig::default());
    let machine = Machine::new(
        MachineConfig {
            cpus: WORKER_CPUS + 1,
            ..MachineConfig::default()
        },
        net.clone(),
    );
    let pool = install_pm_pool(
        &mut sim,
        &mut store,
        &machine,
        "pm",
        NpmuConfig::hardware(rig.device_cap),
        rig.pool_volumes,
        CpuId(WORKER_CPUS),
        Some(CpuId(0)),
    );
    let stats = txnkit::stats::shared();
    let adps = install_audit_partitions(
        &mut sim,
        &machine,
        &pool.pmm_name,
        rig.partitions,
        WORKER_CPUS,
        REGION_LEN,
        true,
        rig.txn,
        stats.clone(),
    );
    let results: SharedResults = Arc::new(Mutex::new(BenchResults::default()));
    for c in 0..rig.clients {
        let cpu = CpuId((c % WORKER_CPUS as u64) as u32);
        let machine2 = machine.clone();
        let adps2 = adps.clone();
        let results2 = results.clone();
        let commits = rig.commits_per_client;
        install_primary(&mut sim, &machine, &format!("$APP{c}"), cpu, move |ep| {
            Box::new(Appender {
                machine: machine2,
                ep,
                cpu,
                adps: adps2,
                id: c,
                commits,
                seq: 0,
                commit_started_ns: 0,
                results: results2,
            })
        });
    }
    // Let setup (region create, trail adoption, boot reads) finish, then
    // zero the fabric counters so they only count the workload phase.
    sim.run_until(SimTime((KICKOFF_MS - 1) * MILLIS));
    let setup_net = std::mem::take(&mut net.lock().stats);
    let target = rig.clients * rig.commits_per_client;
    let ceiling = SimTime(600 * SECS);
    while results.lock().committed < target {
        let now = sim.now();
        assert!(now < ceiling, "audit-commit point never completed");
        sim.run_until(SimTime(now.as_nanos() + 200 * MILLIS));
    }
    let r = results.lock();
    let elapsed_ns = r.done_at_ns.saturating_sub(r.started_ns).max(1);
    let net = net.lock().stats;
    CommitPoint {
        commits_per_sec: r.committed as f64 * SECS as f64 / elapsed_ns as f64,
        p50_us: r.latency.quantile(0.50) as f64 / 1_000.0,
        p99_us: r.latency.quantile(0.99) as f64 / 1_000.0,
        committed: r.committed,
        net,
        setup_net,
        stats,
    }
}

/// Creates one region, then — 4 ms after the PMM acks it, inside the
/// outage — writes 4 KiB at each of `pokes`.
struct PokeClient {
    lib: PmLib,
    region_len: u64,
    placement: PlacementHint,
    pokes: Vec<u64>,
    region: Option<u64>,
}

struct Poke;

impl Actor for PokeClient {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        if msg.is::<Start>() {
            self.lib.create_region_placed(
                ctx,
                "payload",
                self.region_len,
                false,
                self.placement,
                0,
            );
            return;
        }
        if msg.is::<Poke>() {
            if let Some(id) = self.region {
                for (i, &off) in self.pokes.iter().enumerate() {
                    let data = Bytes::from(vec![0xD6u8; 4096]);
                    self.lib.write(ctx, id, off, data, i as u64 + 1);
                }
            }
            return;
        }
        let msg = match self.lib.on_msg(ctx, msg) {
            Ok(_) => return,
            Err(m) => m,
        };
        if let Ok((_, d)) = msg.take::<NetDelivery>() {
            if let Ok(ack) = d.payload.downcast::<CreateRegionAck>() {
                let info = ack.result.expect("create failed");
                self.region = Some(info.region_id);
                self.lib.adopt(info);
                ctx.send_self(SimDuration::from_millis(4), Poke);
            }
        }
    }
}

/// The resilver benches' setup: `members` mirrored NPMU pairs
/// (`pm{v}-a/-b`, `cap` bytes each) behind `$PMM` on CPU 0, probing every
/// 10 ms. Half 1 of every member is down over [2 ms, 10 ms) and revives
/// stale, so the PMM must resilver it. A client on CPU 2 creates a
/// `region_len` region — striped over `stripe_unit` when given — and
/// writes 4 KiB to every member inside the outage, so the PMM learns
/// about each dead half. Returns the sim, its network and the PMM.
pub fn resilver_rig(
    members: u32,
    cap: u64,
    region_len: u64,
    stripe_unit: Option<u64>,
    pmm_cfg: PmmConfig,
) -> (Sim, SharedNetwork, PmmHandle) {
    let mut store = DurableStore::new();
    let mut sim = Sim::with_seed(7);
    let net = simnet::Network::new(simnet::FabricConfig::default());
    let machine = Machine::new(
        MachineConfig {
            cpus: 3,
            ..MachineConfig::default()
        },
        net.clone(),
    );
    let volumes: Vec<_> = (0..members)
        .map(|v| {
            let cfg = NpmuConfig {
                volume_id: v,
                ..NpmuConfig::hardware(cap)
            };
            Npmu::install_pair(
                &mut sim,
                &mut store,
                &net,
                Some(&machine),
                &format!("pm{v}"),
                cfg,
            )
        })
        .collect();
    let pmm = pmm::install_pmm_pool(
        &mut sim,
        &machine,
        "$PMM",
        &volumes,
        CpuId(0),
        None,
        PmmConfig {
            probe_interval: SimDuration::from_millis(10),
            ..pmm_cfg
        },
    );
    Monitor::install(
        &mut sim,
        &machine,
        FaultPlan::none().with(Fault::NpmuDown {
            volume_half: 1,
            from: SimTime(2 * MILLIS),
            to: SimTime(10 * MILLIS),
        }),
    );
    let (placement, stride) = match stripe_unit {
        Some(unit) => (PlacementHint::Striped { unit }, unit),
        None => {
            assert_eq!(members, 1, "an unstriped region pokes one member");
            (PlacementHint::default(), 0)
        }
    };
    let m2 = machine.clone();
    install_primary(&mut sim, &machine, "$client", CpuId(2), move |ep| {
        Box::new(PokeClient {
            lib: PmLib::new(m2, ep, CpuId(2), "$PMM"),
            region_len,
            placement,
            pokes: (0..members as u64).map(|v| v * stride).collect(),
            region: None,
        })
    });
    (sim, net, pmm)
}

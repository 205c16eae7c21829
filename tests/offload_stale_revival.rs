//! One mirror half of a device-append audit trail revives stale under a
//! single closed-loop committer, with no other traffic.
//!
//! While half 1 is down, device appends complete degraded on half 0
//! alone. Once half 1 answers again it appends at its own, shorter tail,
//! so the pair's min tail lags the batch and its acks are held. The only
//! client waits on exactly those acks, so no later append can bring a
//! covering tail: the ADP must re-probe the pair's tails itself and
//! release the acks once the probe (which skips the read-fenced stale
//! half, and sees equal tails after the resilver) covers them.

mod common;

use bytes::Bytes;
use common::read_region;
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
use txnkit::adp::PM_CTRL_BYTES;
use txnkit::{AppendDone, AuditAppend, FlushDone, FlushReq, TxnConfig};

const COMMITS: u64 = 600;
const RECORD_BYTES: usize = 64;
const REGION_LEN: u64 = 1 << 20;

#[derive(Default)]
struct Progress {
    committed: u64,
    /// The highest LSN a commit flushed through.
    flushed_upto: u64,
}

/// Append one record to `$ADP0`, flush it, repeat `COMMITS` times.
struct Committer {
    machine: SharedMachine,
    ep: EndpointId,
    cpu: CpuId,
    seq: u64,
    progress: Arc<Mutex<Progress>>,
}

struct Kickoff;

impl Committer {
    fn send(&self, ctx: &mut Ctx<'_>, bytes: u32, payload: impl std::any::Any + Send) {
        let machine = self.machine.clone();
        nsk::proc::send_to_process(ctx, &machine, self.ep, self.cpu, "$ADP0", bytes, payload);
    }

    fn begin_commit(&mut self, ctx: &mut Ctx<'_>) {
        if self.seq < COMMITS {
            let app = AuditAppend {
                records: Bytes::from(vec![0xA7u8; RECORD_BYTES]),
                virtual_len: RECORD_BYTES as u32,
                token: self.seq,
            };
            self.send(ctx, RECORD_BYTES as u32 + 16, app);
        }
    }
}

impl Actor for Committer {
    fn name(&self) -> &str {
        "committer"
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        if msg.is::<Start>() {
            ctx.send_self(SimDuration::from_millis(200), Kickoff);
            return;
        }
        if msg.is::<Kickoff>() {
            self.begin_commit(ctx);
            return;
        }
        let Ok((_, delivery)) = msg.take::<NetDelivery>() else {
            return;
        };
        let payload = match delivery.payload.downcast::<AppendDone>() {
            Ok(done) => {
                let flush = FlushReq {
                    upto: done.lsn_end,
                    token: done.token,
                };
                self.progress.lock().flushed_upto = done.lsn_end.0;
                self.send(ctx, 32, flush);
                return;
            }
            Err(p) => p,
        };
        if payload.downcast::<FlushDone>().is_ok() {
            self.progress.lock().committed += 1;
            self.seq += 1;
            self.begin_commit(ctx);
        }
    }
}

#[test]
fn offload_stale_half_releases_held_acks_without_other_traffic() {
    let mut store = DurableStore::new();
    let mut sim = Sim::with_seed(41);
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
    install_audit_partitions(
        &mut sim,
        &machine,
        &pool.pmm_name,
        1,
        1,
        REGION_LEN,
        true,
        TxnConfig {
            pm_offload_append: true,
            ..TxnConfig::pm_enabled()
        },
        stats.clone(),
    );
    // The committer starts at 200 ms; half 1 misses [210 ms, 230 ms) of
    // its appends and comes back stale.
    Monitor::install(
        &mut sim,
        &machine,
        FaultPlan::none().with(Fault::NpmuDown {
            volume_half: 1,
            from: SimTime(210 * MILLIS),
            to: SimTime(230 * MILLIS),
        }),
    );
    let progress = Arc::new(Mutex::new(Progress::default()));
    let (machine2, progress2) = (machine.clone(), progress.clone());
    install_primary(&mut sim, &machine, "$committer", CpuId(1), move |ep| {
        Box::new(Committer {
            machine: machine2,
            ep,
            cpu: CpuId(1),
            seq: 0,
            progress: progress2,
        })
    });
    // `run_until` leaves the clock where it is once the queue drains, so
    // a stalled committer shows as a clock that stops moving.
    let ceiling = SimTime(20 * SECS);
    while progress.lock().committed < COMMITS {
        let now = sim.now();
        sim.run_until(SimTime(now.as_nanos() + 100 * MILLIS));
        assert!(
            sim.now() > now && sim.now() < ceiling,
            "committer stalled at {} of {COMMITS} commits: held acks never released",
            progress.lock().committed
        );
    }
    assert!(
        pool.pmm.stats.lock().resilvers_completed > 0,
        "half 1 revived stale, so the PMM must have resilvered it"
    );
    let acked = progress.lock().flushed_upto;
    assert_eq!(acked, COMMITS * RECORD_BYTES as u64);
    drop(sim);

    // Power-cut view: both halves hold a CRC-valid tail covering every
    // acknowledged commit, and the same trail bytes beneath it.
    store.reset_volatile();
    let mut trails = Vec::new();
    for half in ['a', 'b'] {
        let raw = read_region(&mut store, &format!("npmu:pm-{half}"), "adp0.audit", 0);
        let (tail, slot) = npmu::parse_append_cell(&raw);
        assert!(slot.is_some(), "no valid append-cell slot on half {half}");
        assert!(
            tail >= acked,
            "half {half}: tail {tail} below acked {acked}"
        );
        let trail = raw[PM_CTRL_BYTES as usize..][..acked as usize].to_vec();
        assert!(
            trail.iter().all(|&b| b == 0xA7),
            "half {half}: an acknowledged record is missing"
        );
        trails.push(trail);
    }
    assert_eq!(
        trails[0], trails[1],
        "mirrors diverged below the acked tail"
    );
}

//! PM audit backend (the paper's ADP): every append is written to the
//! mirrored PM region immediately — "the database log is persistent
//! immediately" — through **one staging core** shared by both commit
//! paths:
//!
//! * Appends are assigned LSNs on arrival and staged. Whenever the ring of
//!   in-flight batches has a free slot, every staged append is submitted
//!   as ONE batch — the deeper the backlog, the wider the batch.
//! * Batches may complete out of order; the contiguous data watermark
//!   only advances as the ring head completes, so it never covers a gap.
//! * Each batch keeps its payload. A batch that no mirror half persisted
//!   completes in error and is **re-driven** verbatim, so a failed write
//!   is never mistaken for a durable one.
//! * Acks and commit-flush answers are released in one place, only from
//!   the acked (published) watermark.
//!
//! The two paths differ only in a small publication policy ([`Publish`]):
//! how a batch is submitted, how its durability is published, how the
//! durable position is recovered at boot, and so how deep the ring is.
//!
//! There is **no backup checkpoint at all** — exactly the redundancy
//! §3.4 says PM eliminates. Takeover recovers the exact durable position
//! from PM: acks only ever followed a *completed* publication, so a torn
//! or stale cell can only under-report unacknowledged work, never lose an
//! acknowledged append.

use super::{AdpShared, AuditLog, Role};
use crate::types::*;
use bytes::Bytes;
use nsk::machine::{CpuId, SharedMachine};
use pmclient::{PmAppendComplete, PmClientConfig, PmEvent, PmLib, PmWriteComplete};
use pmm::msgs::CreateRegionAck;
use simcore::{Ctx, Msg, SimDuration};
use simnet::{EndpointId, PersistMode, RdmaStatus, TrafficClass};
use std::any::Any;
use std::collections::{BTreeMap, VecDeque};

/// Bytes reserved at the base of a PM trail region for the control cell.
/// The cell is double-buffered: two 16 B slots at offsets 0 and 16,
/// written alternately so a torn slot write can never destroy the last
/// valid watermark.
pub const PM_CTRL_BYTES: u64 = 64;

/// One control-cell slot: `watermark u64 LE + crc32(watermark) u32 LE +
/// 4 B pad`.
pub const PM_CTRL_SLOT_BYTES: u64 = 16;

/// Parse the double-buffered control cell (both 16 B slots). Returns the
/// highest CRC-valid watermark — 0 when neither slot is valid (fresh
/// region, or both torn) — and the slot index holding it.
pub fn parse_ctrl_cell(raw: &[u8]) -> (u64, Option<usize>) {
    let mut best = 0u64;
    let mut slot = None;
    for s in 0..2usize {
        let base = s * PM_CTRL_SLOT_BYTES as usize;
        if raw.len() < base + 12 {
            continue;
        }
        let v = u64::from_le_bytes(raw[base..base + 8].try_into().unwrap());
        let crc = u32::from_le_bytes(raw[base + 8..base + 12].try_into().unwrap());
        if pmm::meta::crc32(&v.to_le_bytes()) == crc && (slot.is_none() || v > best) {
            best = v;
            slot = Some(s);
        }
    }
    (best, slot)
}

/// Split one append of `virt` virtual bytes at trail position
/// `lsn_start` into ≤ 2 circular-trail segments: `(region_off,
/// record_byte_range, wire_len)` per segment. All positions and lengths
/// are computed in `u64` — a trail's virtual length passes 4 GiB in
/// long-running populations, and narrowing them would silently wrap the
/// stream a geo-replica ships from this trail. Only the fabric's
/// per-write size field is `u32`, and that conversion is checked: a
/// single segment wider than `u32::MAX` fails loudly instead of
/// corrupting the trail.
pub(crate) fn split_trail_parts(
    lsn_start: u64,
    cap: u64,
    virt: u64,
    records_len: usize,
) -> Vec<(u64, std::ops::Range<usize>, u32)> {
    let wire = |len: u64| -> u32 {
        u32::try_from(len).expect("trail segment exceeds the u32 wire-size field")
    };
    let pos = lsn_start % cap;
    let off = PM_CTRL_BYTES + pos;
    if pos + virt <= cap {
        return vec![(off, 0..records_len, wire(virt))];
    }
    let first = cap - pos;
    let cut = usize::try_from(first)
        .unwrap_or(records_len)
        .min(records_len);
    vec![
        (off, 0..cut, wire(first)),
        (PM_CTRL_BYTES, cut..records_len, wire(virt - first)),
    ]
}

/// Retry timer for PM region creation at startup/takeover. `attempt`
/// counts the RPCs already sent, driving the capped exponential backoff.
struct RegionRetry {
    attempt: u32,
}

/// Retry timer: re-probe the devices' tails for acks a short tail holds
/// back ([`Publish::DeviceTail`]).
struct TailRetry;

/// An append whose CPU cost has been queued on the host CPU; the trail
/// work happens when the CPU gets to it (appends serialize on their
/// ADP's processor — the §4.2 reason "multiple ADPs can be configured
/// per node" to scale audit throughput).
struct CpuStaged {
    from_ep: EndpointId,
    app: AuditAppend,
}

/// How the trail publishes durability — the only thing the two commit
/// paths differ in.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Publish {
    /// Host-assigned offsets: each batch is one `write_batch_class` of its
    /// wrap-split trail segments, up to `pm_pipeline_depth` in flight. A
    /// coalesced write of the double-buffered control cell publishes the
    /// data watermark; boot reads the cell back.
    CtrlCell,
    /// Device-assigned offsets (`pm_offload_append`): each batch is one
    /// `append_class` of the records whole, and its completion carries the
    /// devices' durable tail — that is the publication; boot probes the
    /// tails. One batch in flight: two appends in flight could land in
    /// different orders on the two mirrors. A half that revived stale
    /// appends at its own, shorter tail, so the pair's min holds the
    /// batch's acks back; with no batch left in flight to bring a later
    /// tail, the ADP re-probes the tails until they cover the acks.
    DeviceTail,
}

/// What a completed PmLib token was for.
enum TokenKind {
    /// A data batch (ring entry).
    Batch,
    /// The coalesced control-cell write.
    Ctrl,
    /// The boot/takeover control-cell read or tail probe.
    BootRead,
    /// A re-probe of the devices' tails for held acks.
    TailProbe,
}

/// The ack owed for one append once a publication covers it.
struct AckSlot {
    from_ep: EndpointId,
    token: u64,
    lsn_start: u64,
    lsn_end: u64,
}

/// An append staged for the next submission: its trail segments (≤ 2
/// when the circular trail wraps) and the ack it owes.
struct StagedAppend {
    slot: AckSlot,
    parts: Vec<(u64, Bytes, u32)>,
}

/// One in-flight batch in the ring.
struct Batch {
    token: u64,
    lsn_end: u64,
    /// The payload as submitted, kept so a failed round re-drives it
    /// verbatim. Under [`Publish::DeviceTail`], one part carrying the
    /// batch's records back to back.
    parts: Vec<(u64, Bytes, u32)>,
    slots: Vec<AckSlot>,
    done: bool,
}

pub(crate) struct PmLog {
    lib: PmLib,
    region_name: String,
    region_id: Option<u64>,
    region_len: u64,
    /// The boot/takeover read (or tail probe) is in flight.
    boot_read_pending: bool,
    ready: bool,
    /// Appends with LSNs assigned, waiting for a ring slot.
    staged: VecDeque<StagedAppend>,
    /// In-flight batches, in submission (= LSN) order.
    ring: VecDeque<Batch>,
    /// All data writes complete through here (ring-head contiguous).
    data_watermark: u64,
    /// A publication covering this watermark has completed (acked
    /// appends and flush answers come from this).
    acked_watermark: u64,
    ctrl_write_inflight: Option<u64>, // watermark value being written
    /// Which control-cell slot the NEXT control write targets (the other
    /// slot holds the last published watermark).
    ctrl_slot: usize,
    /// Data complete, waiting for a publication to cover it; LSN-ordered.
    awaiting_publish: VecDeque<AckSlot>,
    /// A tail re-probe is armed or in flight.
    tail_retry: bool,
    /// PmLib token → purpose.
    tokens: BTreeMap<u64, TokenKind>,
    /// Appends received before the region/cell were ready.
    boot_pending: Vec<(EndpointId, AuditAppend)>,
    /// Fabric class the host-assigned trail batches ride (control ops use
    /// the library's default class — see [`PmLog::new`]).
    audit_class: TrafficClass,
    /// Fabric class for commit-gating ops (control cell / device appends).
    commit_class: TrafficClass,
    publish: Publish,
    /// A trail write bounced off an engaged device write fence: this ADP
    /// is a fenced-off old primary. Nothing is submitted, acked or
    /// re-driven past this point — the replica site owns the trail now,
    /// and any ack we sent would be a durability lie.
    fenced: bool,
}

impl PmLog {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        machine: SharedMachine,
        ep: EndpointId,
        cpu: CpuId,
        pmm: String,
        region_name: String,
        region_len: u64,
        persist_mode: PersistMode,
        commit_class: TrafficClass,
        audit_class: TrafficClass,
        offload: bool,
    ) -> Self {
        PmLog {
            // Control-cell publications and boot reads ride the commit
            // class (they gate commit acks); trail data batches ride the
            // audit class via `write_batch_class`.
            lib: PmLib::new(machine, ep, cpu, pmm).with_config(PmClientConfig {
                persist_mode,
                traffic_class: commit_class,
                ..PmClientConfig::default()
            }),
            audit_class,
            commit_class,
            publish: if offload {
                Publish::DeviceTail
            } else {
                Publish::CtrlCell
            },
            region_name,
            region_id: None,
            region_len,
            boot_read_pending: false,
            ready: false,
            staged: VecDeque::new(),
            ring: VecDeque::new(),
            data_watermark: 0,
            acked_watermark: 0,
            ctrl_write_inflight: None,
            ctrl_slot: 0,
            awaiting_publish: VecDeque::new(),
            tail_retry: false,
            tokens: BTreeMap::new(),
            boot_pending: Vec::new(),
            fenced: false,
        }
    }

    /// Did this completion bounce off an engaged device write fence? If
    /// so, freeze the log: drop the token, count it, and never submit,
    /// ack or re-drive again. (A fence rejection is a *logical* status —
    /// the library does not fail it over — so it surfaces here intact.)
    fn check_fence(&mut self, sh: &mut AdpShared, status: RdmaStatus) -> bool {
        if status == RdmaStatus::AccessViolation {
            self.fenced = true;
            sh.stats.lock().pm_fenced += 1;
        }
        self.fenced
    }

    fn trail_capacity(&self) -> u64 {
        self.region_len - PM_CTRL_BYTES
    }

    fn start_region(&mut self, sh: &mut AdpShared, ctx: &mut Ctx<'_>, attempt: u32) {
        let (region, region_len) = (self.region_name.clone(), self.region_len);
        self.lib.create_region(ctx, &region, region_len, true, 0);
        ctx.send_self(sh.cfg.region_retry_delay(attempt), RegionRetry { attempt });
    }

    /// Submit staged appends while the ring has room. Each submission
    /// takes EVERY currently staged append in one batch.
    fn pump(&mut self, sh: &mut AdpShared, ctx: &mut Ctx<'_>) {
        let depth = match self.publish {
            Publish::CtrlCell => sh.cfg.pm_pipeline_depth as usize,
            Publish::DeviceTail => 1,
        };
        while !self.fenced && self.ring.len() < depth && !self.staged.is_empty() {
            let mut parts: Vec<(u64, Bytes, u32)> = Vec::new();
            let mut slots: Vec<AckSlot> = Vec::new();
            for s in self.staged.drain(..) {
                parts.extend(s.parts);
                slots.push(s.slot);
            }
            if self.publish == Publish::DeviceTail {
                // The devices place the records at their own tails.
                let mut data = Vec::new();
                for (_, bytes, _) in &parts {
                    data.extend_from_slice(bytes);
                }
                let wire_len = parts.iter().map(|p| p.2).sum();
                parts = vec![(0, Bytes::from(data), wire_len)];
            }
            self.ring.push_back(Batch {
                token: 0,
                lsn_end: slots.last().map_or(0, |a| a.lsn_end),
                parts,
                slots,
                done: false,
            });
            self.submit(sh, ctx, self.ring.len() - 1);
        }
    }

    /// Send ring entry `i` under a fresh token: the first submission and
    /// every re-drive alike.
    fn submit(&mut self, sh: &mut AdpShared, ctx: &mut Ctx<'_>, i: usize) {
        let tok = sh.alloc_tag();
        self.tokens.insert(tok, TokenKind::Batch);
        sh.stats.lock().pm_batches += 1;
        let region = self.region_id.expect("region ready");
        let cap = self.trail_capacity();
        let batch = &mut self.ring[i];
        batch.token = tok;
        match self.publish {
            Publish::CtrlCell => {
                self.lib
                    .write_batch_class(ctx, region, &batch.parts, tok, self.audit_class)
            }
            Publish::DeviceTail => {
                let (_, data, wire_len) = &batch.parts[0];
                self.lib.append_class(
                    ctx,
                    region,
                    0,
                    cap,
                    data.clone(),
                    *wire_len,
                    tok,
                    self.commit_class,
                );
            }
        }
    }

    /// A data batch completed. `tail` is the devices' durable tail
    /// ([`Publish::DeviceTail`] only).
    fn batch_done(
        &mut self,
        sh: &mut AdpShared,
        ctx: &mut Ctx<'_>,
        token: u64,
        status: RdmaStatus,
        tail: u64,
    ) {
        let Some(i) = self.ring.iter().position(|b| b.token == token) else {
            return;
        };
        if self.check_fence(sh, status) {
            // Fenced: the batch dies unacked and the pipeline stays parked.
            return;
        }
        if status != RdmaStatus::Ok {
            // No half persisted it (both unreachable or rejected): re-drive
            // the same payload. The per-leg write timeout paces the
            // retries, and the published watermark cannot pass this batch
            // until a round succeeds.
            self.submit(sh, ctx, i);
            return;
        }
        self.ring[i].done = true;
        // Advance the contiguous data watermark from the ring head; a
        // completed batch behind an incomplete one waits.
        while self.ring.front().is_some_and(|b| b.done) {
            let b = self.ring.pop_front().unwrap();
            self.data_watermark = self.data_watermark.max(b.lsn_end);
            self.awaiting_publish.extend(b.slots);
        }
        if self.publish == Publish::DeviceTail {
            self.release(sh, ctx, tail);
        }
        self.pump(sh, ctx);
        self.maybe_write_ctrl(sh, ctx);
        self.maybe_reprobe(ctx);
    }

    /// Under [`Publish::DeviceTail`], arm a tail re-probe (paced by the
    /// write timeout) while acks are held and no batch is in flight to
    /// bring a later tail. The probe skips a read-fenced stale half, and
    /// the tails agree again once the PMM has resilvered it.
    fn maybe_reprobe(&mut self, ctx: &mut Ctx<'_>) {
        if self.publish == Publish::DeviceTail
            && !self.fenced
            && !self.tail_retry
            && self.ring.is_empty()
            && !self.awaiting_publish.is_empty()
        {
            self.tail_retry = true;
            ctx.send_self(self.lib.config().write_timeout, TailRetry);
        }
    }

    /// Ask every answering half for its durable tail; the completion folds
    /// them by min.
    fn probe_tail(&mut self, ctx: &mut Ctx<'_>, tok: u64) {
        let region = self.region_id.expect("region ready");
        let cap = self.trail_capacity();
        self.lib
            .probe_tail_class(ctx, region, 0, cap, tok, self.commit_class);
    }

    /// A publication covering `wm` completed: everything through it is
    /// provably recoverable. Release every append it covers, then answer
    /// the flush waiters.
    fn release(&mut self, sh: &mut AdpShared, ctx: &mut Ctx<'_>, wm: u64) {
        self.acked_watermark = self.acked_watermark.max(wm);
        sh.durable_upto = sh.durable_upto.max(wm);
        while let Some(a) = self
            .awaiting_publish
            .pop_front_if(|a| a.lsn_end <= self.acked_watermark)
        {
            sh.send_append_done(ctx, a.from_ep, a.token, a.lsn_start, a.lsn_end);
        }
        sh.answer_waiters(ctx);
    }

    /// A PmLib write completed (data batch or control cell).
    fn write_done(&mut self, sh: &mut AdpShared, ctx: &mut Ctx<'_>, c: PmWriteComplete) {
        match self.tokens.remove(&c.token) {
            Some(TokenKind::Batch) => self.batch_done(sh, ctx, c.token, c.status, 0),
            Some(TokenKind::Ctrl) if !self.check_fence(sh, c.status) => {
                let covered = self.ctrl_write_inflight.take().unwrap_or(0);
                if c.status == RdmaStatus::Ok {
                    self.release(sh, ctx, covered);
                } else {
                    // No half persisted the cell: the acked watermark
                    // stays, and the rewrite targets the same slot so the
                    // other one keeps the last published watermark.
                    self.ctrl_slot ^= 1;
                }
                self.maybe_write_ctrl(sh, ctx);
            }
            _ => {}
        }
    }

    /// A device append or the boot tail probe completed.
    fn append_complete(&mut self, sh: &mut AdpShared, ctx: &mut Ctx<'_>, c: PmAppendComplete) {
        match self.tokens.remove(&c.token) {
            // The shorter durable prefix of the mirrored pair: acked
            // appends always had both (healthy) halves' tails past their
            // end, so min() can only under-report unacked work.
            Some(TokenKind::BootRead) => self.recover(sh, ctx, c.tail),
            Some(TokenKind::Batch) => self.batch_done(sh, ctx, c.token, c.status, c.tail),
            Some(TokenKind::TailProbe) => {
                self.tail_retry = false;
                if c.status == RdmaStatus::Ok {
                    self.release(sh, ctx, c.tail);
                }
                self.maybe_reprobe(ctx);
            }
            _ => {}
        }
    }

    /// Keep at most one control write in flight while the acked watermark
    /// lags the data watermark; one cell write covers every append
    /// completed since the previous one.
    fn maybe_write_ctrl(&mut self, sh: &mut AdpShared, ctx: &mut Ctx<'_>) {
        if self.publish != Publish::CtrlCell
            || self.fenced
            || self.ctrl_write_inflight.is_some()
            || self.data_watermark <= self.acked_watermark
        {
            return;
        }
        let wm = self.data_watermark;
        self.ctrl_write_inflight = Some(wm);
        let mut cell = Vec::with_capacity(PM_CTRL_SLOT_BYTES as usize);
        cell.extend_from_slice(&wm.to_le_bytes());
        cell.extend_from_slice(&pmm::meta::crc32(&wm.to_le_bytes()).to_le_bytes());
        let tok = sh.alloc_tag();
        self.tokens.insert(tok, TokenKind::Ctrl);
        sh.stats.lock().pm_ctrl_writes += 1;
        let region = self.region_id.expect("region ready");
        // Alternate slots so a torn write to one slot leaves the other —
        // holding the last published watermark — intact.
        let off = self.ctrl_slot as u64 * PM_CTRL_SLOT_BYTES;
        self.ctrl_slot ^= 1;
        self.lib.write_sized(
            ctx,
            region,
            off,
            Bytes::from(cell),
            PM_CTRL_SLOT_BYTES as u32,
            tok,
        );
    }

    /// Boot/takeover: region acked → read the control cell, or probe the
    /// devices' tails.
    fn region_ready(&mut self, sh: &mut AdpShared, ctx: &mut Ctx<'_>, info: pmm::msgs::RegionInfo) {
        if self.region_id.is_none() {
            self.region_len = info.len;
            self.region_id = Some(info.region_id);
            self.lib.adopt(info);
        }
        if self.ready || self.boot_read_pending {
            return;
        }
        let tok = sh.alloc_tag();
        self.tokens.insert(tok, TokenKind::BootRead);
        self.boot_read_pending = true;
        match self.publish {
            Publish::CtrlCell => {
                let region = self.region_id.unwrap();
                self.lib
                    .read(ctx, region, 0, 2 * PM_CTRL_SLOT_BYTES as u32, tok)
            }
            Publish::DeviceTail => self.probe_tail(ctx, tok),
        }
    }

    fn ctrl_read_done(&mut self, sh: &mut AdpShared, ctx: &mut Ctx<'_>, data: &[u8]) {
        // Fresh region, or both slots torn → 0: covered appends were acked
        // only after a *completed* cell write, so a torn cell can only
        // under-report unacknowledged work. With one valid slot, the next
        // write must target the OTHER slot so the survivor is preserved.
        let (wm, slot) = parse_ctrl_cell(data);
        self.ctrl_slot = slot.map(|s| 1 - s).unwrap_or(0);
        self.recover(sh, ctx, wm);
    }

    /// Boot/takeover recovered the durable position `wm`: adopt it, then
    /// admit the appends that arrived meanwhile.
    fn recover(&mut self, sh: &mut AdpShared, ctx: &mut Ctx<'_>, wm: u64) {
        self.boot_read_pending = false;
        self.ready = true;
        self.data_watermark = self.data_watermark.max(wm);
        self.acked_watermark = self.acked_watermark.max(wm);
        sh.next_lsn = sh.next_lsn.max(wm);
        sh.durable_upto = sh.durable_upto.max(wm);
        for (ep, app) in std::mem::take(&mut self.boot_pending) {
            self.append(sh, ctx, ep, app);
        }
        sh.answer_waiters(ctx);
    }

    /// The CPU got to an append: assign its LSNs, stage its trail segments
    /// and submit with the next batch (immediately, if the ring has room).
    fn stage_append(
        &mut self,
        sh: &mut AdpShared,
        ctx: &mut Ctx<'_>,
        from_ep: EndpointId,
        app: AuditAppend,
    ) {
        if self.fenced {
            // A fenced old primary accepts no new trail work: the append
            // is dropped unacked (its requester will time out / abort).
            return;
        }
        let lsn_start = sh.next_lsn;
        let virt = (app.virtual_len as u64).max(app.records.len() as u64);
        sh.next_lsn += virt;
        let lsn_end = sh.next_lsn;
        let parts = split_trail_parts(lsn_start, self.trail_capacity(), virt, app.records.len())
            .into_iter()
            .map(|(off, range, wire)| (off, app.records.slice(range), wire))
            .collect();
        // One persistence action per appended row (§3.4 accounting); the
        // mirrored legs, wrap segments and batching are below the API.
        sh.stats.lock().pm_writes += 1;
        self.staged.push_back(StagedAppend {
            slot: AckSlot {
                from_ep,
                token: app.token,
                lsn_start,
                lsn_end,
            },
            parts,
        });
        self.pump(sh, ctx);
    }
}

impl AuditLog for PmLog {
    fn open(&mut self, sh: &mut AdpShared, ctx: &mut Ctx<'_>) {
        // Boot and takeover are the same: (re)open the region and recover
        // the exact durable position from PM; no shadow state is needed.
        self.start_region(sh, ctx, 0);
    }

    fn append(
        &mut self,
        sh: &mut AdpShared,
        ctx: &mut Ctx<'_>,
        from_ep: EndpointId,
        app: AuditAppend,
    ) {
        // Buffer until the region and the durable position are known.
        if !self.ready {
            self.boot_pending.push((from_ep, app));
            return;
        }
        // Charge the append's CPU cost and process once the CPU gets to
        // it: queue delays grow monotonically, so arrival (= LSN) order
        // is preserved while the processor, not the fabric, bounds one
        // partition's append rate.
        let now = ctx.now().as_nanos();
        let queue = sh
            .machine
            .lock()
            .cpu_work(sh.cpu, now, sh.cfg.append_cpu_ns);
        ctx.send_self(
            SimDuration::from_nanos(queue + sh.cfg.append_cpu_ns),
            CpuStaged { from_ep, app },
        );
    }

    fn flush_queued(&mut self, _sh: &mut AdpShared, _ctx: &mut Ctx<'_>) {
        // The trail is persistent immediately; the waiter is answered as
        // soon as a publication covering its LSN completes.
    }

    fn on_msg(
        &mut self,
        sh: &mut AdpShared,
        ctx: &mut Ctx<'_>,
        role: Role,
        msg: Msg,
    ) -> Option<Msg> {
        let msg = match msg.take::<RegionRetry>() {
            Ok((_, r)) => {
                if role == Role::Primary && !self.ready {
                    self.start_region(sh, ctx, r.attempt + 1);
                }
                return None;
            }
            Err(m) => m,
        };

        let msg = match msg.take::<TailRetry>() {
            Ok(_) => {
                if role == Role::Primary && !self.fenced {
                    let tok = sh.alloc_tag();
                    self.tokens.insert(tok, TokenKind::TailProbe);
                    self.probe_tail(ctx, tok);
                }
                return None;
            }
            Err(m) => m,
        };

        let msg = match msg.take::<CpuStaged>() {
            Ok((_, s)) => {
                if role == Role::Primary {
                    if self.ready {
                        self.stage_append(sh, ctx, s.from_ep, s.app);
                    } else {
                        self.boot_pending.push((s.from_ep, s.app));
                    }
                }
                return None;
            }
            Err(m) => m,
        };

        // Library completions: data batches, cell writes and the persist
        // phases behind them, device appends and tail probes, and the
        // boot cell read.
        match self.lib.on_msg(ctx, msg) {
            Ok(Some(PmEvent::Write(c))) => self.write_done(sh, ctx, c),
            Ok(Some(PmEvent::Append(c))) => self.append_complete(sh, ctx, c),
            Ok(Some(PmEvent::Read(c))) => {
                self.tokens.remove(&c.token);
                self.ctrl_read_done(sh, ctx, &c.data);
            }
            Ok(None) => {}
            Err(m) => return Some(m),
        }
        None
    }

    fn on_net(
        &mut self,
        sh: &mut AdpShared,
        ctx: &mut Ctx<'_>,
        role: Role,
        _from_ep: EndpointId,
        payload: Box<dyn Any + Send>,
    ) -> Option<Box<dyn Any + Send>> {
        match payload.downcast::<CreateRegionAck>() {
            Ok(ack) => {
                if let Ok(info) = ack.result {
                    if role == Role::Primary {
                        self.region_ready(sh, ctx, info);
                    }
                }
                None
            }
            Err(p) => Some(p),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Trail positions past 4 GiB must not wrap: the split is computed in
    /// u64 end to end, with only the per-segment wire length narrowed
    /// (checked) to u32. Exercises both sides of the 4 GiB boundary and a
    /// wrap whose first segment alone exceeds what a u32 position could
    /// have represented.
    #[test]
    fn split_preserves_positions_past_4gib() {
        const GIB: u64 = 1 << 30;
        let cap = 6 * GIB;

        // No wrap, start beyond 4 GiB: offset must keep the full position.
        let parts = split_trail_parts(5 * GIB, cap, 1024, 1024);
        assert_eq!(parts, vec![(PM_CTRL_BYTES + 5 * GIB, 0..1024usize, 1024)]);

        // Second lap of the trail (virtual LSN 11 GiB → position 5 GiB).
        let parts = split_trail_parts(11 * GIB, cap, 512, 512);
        assert_eq!(parts, vec![(PM_CTRL_BYTES + 5 * GIB, 0..512usize, 512)]);

        // Wrap across the capacity boundary at a > 4 GiB position: the
        // first segment starts past 4 GiB, the remainder restarts at the
        // trail base, and the wire lengths partition the append exactly.
        let start = 6 * GIB - 100;
        let parts = split_trail_parts(start, cap, 300, 300);
        assert_eq!(
            parts,
            vec![
                (PM_CTRL_BYTES + start, 0..100usize, 100),
                (PM_CTRL_BYTES, 100..300usize, 200),
            ]
        );

        // Virtual-length appends (records shorter than virt) still split
        // by trail geometry, clamping the byte ranges to the real payload.
        let parts = split_trail_parts(6 * GIB - 64, cap, 4096, 32);
        assert_eq!(
            parts,
            vec![
                (PM_CTRL_BYTES + 6 * GIB - 64, 0..32usize, 64),
                (PM_CTRL_BYTES, 32..32usize, 4032),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "wire-size field")]
    fn oversized_segment_fails_loudly_instead_of_wrapping() {
        // A single segment wider than u32::MAX cannot be expressed on the
        // wire; it must panic, not truncate.
        split_trail_parts(0, 1 << 40, (1 << 32) + 8, 0);
    }
}

//! A host clock that does not drift with the machine's speed.
//!
//! The benchmark shares a few vCPUs of a host with other tenants, and the
//! speed those vCPUs run at moves by up to 60% over seconds (a fixed
//! arithmetic loop takes 0.23–0.39 s from one second to the next, with no
//! steal time and the process alone on its run queue), so a raw host time
//! measures the neighbours as much as the program. [`RefClock`] therefore
//! pauses every [`SEGMENT_S`] of host time to time a fixed reference
//! kernel, and scales each segment by how long the kernel took at its two
//! ends: a host time reads as it would on a machine that runs the kernel in
//! [`KERNEL_REF_S`]. The kernel is the benchmark's own code, so a change to
//! the program moves the scaled times as it moves the raw ones.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Host seconds between two kernel timings.
const SEGMENT_S: f64 = 0.05;
/// What one kernel timing is scaled to: about its median on the 2-vCPU
/// virtual machine the benchmark was sized on.
const KERNEL_REF_S: f64 = 0.0014;
/// Operations in one kernel timing.
const KERNEL_OPS: u64 = 12_000;
/// Slots of the kernel's table (2 MiB: past L2, like the simulator's
/// actor and lock tables).
const TABLE_SLOTS: usize = 1 << 18;

/// The reference kernel: a timer heap and random updates to a table, the
/// two things a discrete-event step does most. It allocates only when
/// built, so timing it changes no allocation count.
pub struct Kernel {
    heap: BinaryHeap<Reverse<u64>>,
    table: Vec<u64>,
    x: u64,
}

impl Kernel {
    pub fn new() -> Self {
        let mut k = Kernel {
            heap: BinaryHeap::with_capacity(4096),
            table: vec![0; TABLE_SLOTS],
            x: 0x9E37_79B9_7F4A_7C15,
        };
        k.time();
        k
    }

    /// Host seconds one run of the kernel takes now.
    pub fn time(&mut self) -> f64 {
        let t = Instant::now();
        self.heap.clear();
        let mut acc = 0u64;
        for i in 0..KERNEL_OPS {
            self.x = txnkit::shard::splitmix64(self.x);
            let x = self.x;
            self.heap.push(Reverse((x >> 24) + i));
            if self.heap.len() > 2048 {
                acc ^= self.heap.pop().map_or(0, |Reverse(v)| v);
            }
            let slot = &mut self.table[(x as usize) & (TABLE_SLOTS - 1)];
            *slot = slot.wrapping_add(x | 1);
            acc = acc.wrapping_add(*slot >> 7);
        }
        black_box(acc);
        t.elapsed().as_secs_f64()
    }
}

/// Host time, raw and scaled to the reference kernel, of one stretch of
/// the benchmark. Call [`RefClock::tick`] often (between simulated slices);
/// it times the kernel once a segment is long enough, outside the stretch.
pub struct RefClock<'a> {
    kernel: &'a mut Kernel,
    /// The kernel's time at the start of the open segment.
    last: f64,
    seg_start: Instant,
    raw_s: f64,
    scaled_s: f64,
}

impl<'a> RefClock<'a> {
    pub fn start(kernel: &'a mut Kernel) -> Self {
        let last = kernel.time();
        RefClock {
            kernel,
            last,
            seg_start: Instant::now(),
            raw_s: 0.0,
            scaled_s: 0.0,
        }
    }

    pub fn tick(&mut self) {
        if self.seg_start.elapsed().as_secs_f64() >= SEGMENT_S {
            self.close_segment();
        }
    }

    fn close_segment(&mut self) {
        let seg = self.seg_start.elapsed().as_secs_f64();
        let now = self.kernel.time();
        self.raw_s += seg;
        self.scaled_s += seg * KERNEL_REF_S / ((self.last + now) / 2.0);
        self.last = now;
        self.seg_start = Instant::now();
    }

    /// End the stretch: (raw host seconds, scaled host seconds).
    pub fn finish(mut self) -> (f64, f64) {
        self.close_segment();
        (self.raw_s, self.scaled_s)
    }
}

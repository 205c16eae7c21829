//! Tracing for the per-layer run: a counting global allocator and an
//! in-memory span log written out when the benchmark ends.
//!
//! Spans are recorded from the benchmark's own code, around each call it
//! makes into a layer; the program itself is not instrumented.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// The system allocator, counting calls and bytes while [`COUNTING`] is
/// set. The counters are statistics only (`Relaxed`): the benchmark is
/// single-threaded and reads them between calls into the simulator.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

fn note(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the only addition is a
// relaxed atomic counter update, which neither allocates nor touches the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Allocation calls and bytes requested since counting was switched on.
#[derive(Clone, Copy)]
pub struct Allocs {
    pub calls: u64,
    pub bytes: u64,
}

impl Allocs {
    pub fn now() -> Self {
        Allocs {
            calls: ALLOCS.load(Ordering::Relaxed),
            bytes: ALLOC_BYTES.load(Ordering::Relaxed),
        }
    }

    pub fn since(self, start: Allocs) -> Allocs {
        Allocs {
            calls: self.calls - start.calls,
            bytes: self.bytes - start.bytes,
        }
    }
}

/// Start or stop counting allocations (only traced repetitions count).
pub fn count_allocations(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// One recorded span: a call from the benchmark into one layer.
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    /// Host nanoseconds since the trace began.
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Simulated clock at the start and end of the call, ns.
    pub sim_from_ns: u64,
    pub sim_to_ns: u64,
    pub events: u64,
    pub allocs: Allocs,
    /// Transactions the workload committed during the span.
    pub commits: u64,
}

/// Where an open span began.
pub struct Mark {
    at: Instant,
    allocs: Allocs,
}

/// In-memory span log.
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn begin(&self) -> Mark {
        Mark {
            at: Instant::now(),
            allocs: Allocs::now(),
        }
    }

    /// Close a span opened by `begin`; the caller fills the simulated
    /// fields with `f`. Returns the span's id (the parent of later spans).
    pub fn end(
        &mut self,
        mark: Mark,
        name: &'static str,
        parent: Option<u32>,
        f: impl FnOnce(&mut Span),
    ) -> u32 {
        let id = self.spans.len() as u32;
        let mut span = Span {
            id,
            parent,
            name,
            start_ns: mark.at.duration_since(self.epoch).as_nanos() as u64,
            dur_ns: mark.at.elapsed().as_nanos() as u64,
            sim_from_ns: 0,
            sim_to_ns: 0,
            events: 0,
            allocs: Allocs::now().since(mark.allocs),
            commits: 0,
        };
        f(&mut span);
        self.spans.push(span);
        id
    }

    /// Reserve an id for a span whose extent is known only later (the
    /// repetition that parents every other span).
    pub fn open(&mut self, name: &'static str) -> u32 {
        let mark = self.begin();
        self.end(mark, name, None, |_| {})
    }

    /// Stretch an `open` span to end now.
    pub fn close(&mut self, id: u32) {
        let s = &mut self.spans[id as usize];
        let end = self.epoch.elapsed().as_nanos() as u64;
        s.dur_ns = end - s.start_ns;
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 200);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\
                 \"sim_from_ns\":{},\"sim_to_ns\":{},\"events\":{},\"allocs\":{},\
                 \"alloc_bytes\":{},\"commits\":{}}}",
                s.id,
                parent,
                s.name,
                s.start_ns,
                s.dur_ns,
                s.sim_from_ns,
                s.sim_to_ns,
                s.events,
                s.allocs.calls,
                s.allocs.bytes,
                s.commits
            )
            .expect("writing to a String cannot fail");
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

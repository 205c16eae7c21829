//! Dispatch tracing for determinism verification.
//!
//! When enabled (`SimConfig::trace`), every dispatch is folded into an
//! FNV-1a digest (and counted). Two runs with the same scenario and seed
//! must produce the same digest. Only `simcore`'s own unit tests turn
//! tracing on; the integration suite checks determinism through pinned
//! event counts and stats in `tests/determinism.rs` instead.

use crate::actor::ActorId;
use crate::time::SimTime;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

pub struct Trace {
    enabled: bool,
    digest: u64,
    len: usize,
}

impl Trace {
    pub fn new(enabled: bool) -> Self {
        Trace {
            enabled,
            digest: FNV_OFFSET,
            len: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn fold(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.digest ^= b as u64;
            self.digest = self.digest.wrapping_mul(FNV_PRIME);
        }
    }

    pub fn record_dispatch(&mut self, now: SimTime, target: ActorId, name: &str, from: ActorId) {
        if !self.enabled {
            return;
        }
        self.len += 1;
        self.fold(&now.0.to_le_bytes());
        self.fold(&target.0.to_le_bytes());
        self.fold(&from.0.to_le_bytes());
        self.fold(name.as_bytes());
    }

    pub fn record(&mut self, now: SimTime, id: ActorId, detail: &str) {
        if !self.enabled {
            return;
        }
        self.len += 1;
        self.fold(&now.0.to_le_bytes());
        self.fold(&id.0.to_le_bytes());
        self.fold(detail.as_bytes());
    }

    pub fn digest(&self) -> u64 {
        self.digest
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new(false);
        t.record(SimTime(1), ActorId(0), "x");
        assert_eq!(t.len(), 0);
        assert_eq!(t.digest(), Trace::new(false).digest());
    }

    #[test]
    fn digest_depends_on_content() {
        let mut a = Trace::new(true);
        let mut b = Trace::new(true);
        a.record(SimTime(1), ActorId(0), "x");
        b.record(SimTime(1), ActorId(0), "y");
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn digest_depends_on_order() {
        let mut a = Trace::new(true);
        a.record(SimTime(1), ActorId(0), "x");
        a.record(SimTime(2), ActorId(0), "y");
        let mut b = Trace::new(true);
        b.record(SimTime(2), ActorId(0), "y");
        b.record(SimTime(1), ActorId(0), "x");
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn identical_sequences_match() {
        let mk = || {
            let mut t = Trace::new(true);
            t.record_dispatch(SimTime(5), ActorId(1), "disk", ActorId(2));
            t.record(SimTime(6), ActorId(1), "io-done");
            t
        };
        assert_eq!(mk().digest(), mk().digest());
        assert_eq!(mk().len(), 2);
    }
}

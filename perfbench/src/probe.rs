//! Reading the layers from outside: counter snapshots taken from each
//! layer's public stats at the window edges, and percentile helpers.

use simcore::Histogram;
use std::collections::BTreeMap;
use txnkit::scenario::ClusterNode;
use workload::SharedWorkloadStats;

/// Monotone counters of every layer at one instant, by name.
pub struct Counters {
    pub sim_ns: u64,
    values: BTreeMap<&'static str, u64>,
    /// Compute consumed so far by each worker CPU, ns.
    pub cpu_work_ns: Vec<u64>,
}

impl Counters {
    pub fn snapshot(node: &ClusterNode, wl: &SharedWorkloadStats) -> Counters {
        let mut v = BTreeMap::new();
        v.insert("events", node.sim.dispatched());
        {
            let w = wl.lock();
            v.insert("wl.committed", w.committed);
            v.insert("wl.aborted", w.aborted);
            v.insert("wl.cross_committed", w.cross_shard_committed);
        }
        {
            let t = node.stats.lock();
            v.insert("txn.dbw_checkpoints", t.dbw_checkpoints);
            v.insert("txn.audit_deltas", t.audit_deltas);
            v.insert("txn.adp_checkpoints", t.adp_checkpoints);
            v.insert("txn.data_volume_writes", t.data_volume_writes);
            v.insert("txn.audit_volume_writes", t.audit_volume_writes);
            v.insert("txn.pm_writes", t.pm_writes);
            v.insert("txn.pm_ctrl_writes", t.pm_ctrl_writes);
            v.insert("txn.pm_batches", t.pm_batches);
            v.insert("txn.tmf_checkpoints", t.tmf_checkpoints);
            v.insert("txn.committed", t.txns_committed);
            v.insert("txn.aborted", t.txns_aborted);
            v.insert("txn.inserts", t.inserts);
            v.insert("txn.deadlocks", t.deadlocks);
            v.insert("txn.twopc_prepares", t.twopc_prepares);
            v.insert("txn.lock_timeouts", t.lock_timeouts);
        }
        {
            let n = node.net.lock();
            let s = n.stats;
            v.insert("net.msgs", s.msgs);
            v.insert("net.msg_bytes", s.msg_bytes);
            v.insert("net.rdma_writes", s.rdma_writes);
            v.insert("net.rdma_write_bytes", s.rdma_write_bytes);
            v.insert("net.rdma_flushes", s.rdma_flushes);
            v.insert("net.retransmits", s.retransmits);
            v.insert("net.failovers", s.failovers);
            v.insert("net.unreachable", s.unreachable);
            let bulk = n.class_totals()[simnet::TrafficClass::Bulk.idx()];
            v.insert("net.bulk_bytes", bulk.bytes);
        }
        let sum = |key: &'static str, x: u64, v: &mut BTreeMap<&'static str, u64>| {
            *v.entry(key).or_insert(0) += x;
        };
        for shard in &node.shards {
            for (a, b) in &shard.pm_pool {
                for dev in [a, b] {
                    let s = dev.stats.lock();
                    sum("npmu.writes", s.writes, &mut v);
                    sum("npmu.flushes", s.flushes, &mut v);
                    sum("npmu.bytes_written", s.bytes_written, &mut v);
                    sum("npmu.bytes_read", s.bytes_read, &mut v);
                    sum("npmu.failed_ops", s.failed_ops, &mut v);
                    sum("npmu.ingress_lost_bytes", s.ingress_lost_bytes, &mut v);
                }
            }
            if let Some(pmm) = &shard.pmm {
                let s = pmm.stats.lock();
                sum("pmm.degraded_events", s.degraded_events, &mut v);
                sum("pmm.resilver_bytes", s.resilver_bytes_copied, &mut v);
                sum("pmm.resilver_extra_passes", s.resilver_extra_passes, &mut v);
                sum("pmm.bulk_throttle_waits", s.bulk_throttle_waits, &mut v);
                sum("pmm.resilvers_started", s.resilvers_started, &mut v);
                sum("pmm.resilvers_completed", s.resilvers_completed, &mut v);
            }
        }
        let disk_writes = node
            .audit_volume_stats
            .iter()
            .map(|d| d.lock().writes)
            .sum();
        v.insert("disk.audit_writes", disk_writes);

        let view = node.view();
        let machine = node.machine.lock();
        let cpu_work_ns = view
            .shard_cpu_base
            .iter()
            .flat_map(|&base| (base..base + view.cpus_per_shard).map(nsk::machine::CpuId))
            .map(|cpu| machine.cpu_work_total(cpu))
            .collect();
        Counters {
            sim_ns: node.sim.now().as_nanos(),
            values: v,
            cpu_work_ns,
        }
    }

    fn get(&self, key: &str) -> u64 {
        *self
            .values
            .get(key)
            .unwrap_or_else(|| panic!("no counter {key}"))
    }
}

/// What one measured window did. Windows of several runs pool into one
/// result: `counts` add up, `peaks` take the maximum, histograms merge.
#[derive(Clone, Default)]
pub struct Window {
    pub counts: BTreeMap<&'static str, u64>,
    pub peaks: BTreeMap<&'static str, f64>,
    pub response: Histogram,
    pub flush: Histogram,
}

impl Window {
    /// Counter growth from `start` to `end`, with the worker CPUs' busy
    /// time. The caller adds what only it knows (latencies, peaks).
    pub fn between(start: &Counters, end: &Counters) -> Window {
        let mut w = Window::default();
        for (&k, &v) in &end.values {
            w.counts.insert(k, v - start.get(k));
        }
        let window_ns = end.sim_ns - start.sim_ns;
        let busy: Vec<u64> = end
            .cpu_work_ns
            .iter()
            .zip(&start.cpu_work_ns)
            .map(|(e, s)| e - s)
            .collect();
        w.counts.insert("window_ns", window_ns);
        w.counts.insert("cpu.work_ns", busy.iter().sum());
        w.counts
            .insert("cpu.capacity_ns", window_ns * busy.len() as u64);
        let busiest = busy.iter().copied().max().unwrap_or(0);
        w.peaks.insert("cpu.busy_max", ratio(busiest, window_ns));
        w
    }

    pub fn get(&self, key: &str) -> u64 {
        *self
            .counts
            .get(key)
            .unwrap_or_else(|| panic!("no counter {key}"))
    }

    pub fn peak(&self, key: &str) -> f64 {
        *self
            .peaks
            .get(key)
            .unwrap_or_else(|| panic!("no peak {key}"))
    }

    /// Pool `windows` into one.
    pub fn pool<'a>(windows: impl IntoIterator<Item = &'a Window>) -> Window {
        let mut out = Window::default();
        for w in windows {
            for (&k, &v) in &w.counts {
                *out.counts.entry(k).or_insert(0) += v;
            }
            for (&k, &v) in &w.peaks {
                let p = out.peaks.entry(k).or_insert(v);
                *p = p.max(v);
            }
            out.response.merge(&w.response);
            out.flush.merge(&w.flush);
        }
        out
    }
}

/// `num / den`, or 0 when `den` is 0 (a layer the workload never used).
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Quantile `q` of `h`, in the histogram's unit, linearly interpolated
/// inside the log-linear bucket that holds it. `Histogram::quantile`
/// returns that bucket's floor, which steps by up to 6.25% (16 linear
/// sub-buckets per power of two); interpolating by rank within the
/// bucket, as if its samples were spread evenly over it, lets the value
/// move with the data instead of jumping between floors.
pub fn quantile(h: &Histogram, q: f64) -> f64 {
    let n = h.count();
    if n == 0 {
        return 0.0;
    }
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    // Bucket floor of the sample at rank `r` (1-based); monotone in `r`.
    let floor_at = |r: u64| h.quantile((r as f64 - 0.5) / n as f64);
    let floor = floor_at(rank);
    // First rank of the bucket, and first rank past it.
    let first = partition_point(1, rank, |r| floor_at(r) < floor);
    let past = partition_point(rank, n + 1, |r| floor_at(r) <= floor);
    let lower = floor as f64;
    let upper = (bucket_start(floor) + bucket_width(floor)).min(h.max()) as f64;
    let share = (rank - first) as f64 + 0.5;
    lower + (upper - lower).max(0.0) * share / (past - first) as f64
}

/// Smallest `r` in `[lo, hi)` with `!pred(r)`, for `pred` true then false.
fn partition_point(mut lo: u64, mut hi: u64, pred: impl Fn(u64) -> bool) -> u64 {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Width of the `Histogram` bucket holding `v`: 1 below 16, else 1/16 of
/// `v`'s power of two.
fn bucket_width(v: u64) -> u64 {
    if v < 16 {
        1
    } else {
        1 << (63 - v.leading_zeros() - 4)
    }
}

fn bucket_start(v: u64) -> u64 {
    v & !(bucket_width(v) - 1)
}

/// Median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolated_quantile_stays_inside_its_bucket() {
        let mut h = Histogram::new();
        for v in 1_000_000..1_010_000u64 {
            h.record(v);
        }
        let q = quantile(&h, 0.5);
        let floor = h.quantile(0.5) as f64;
        assert!(q >= floor && q < floor + bucket_width(floor as u64) as f64);
        // Evenly spread samples: interpolation lands near the true median.
        assert!((q - 1_005_000.0).abs() < 1_000.0, "{q}");
    }

    #[test]
    fn single_sample_quantile_is_that_sample() {
        let mut h = Histogram::new();
        h.record(5);
        assert_eq!(quantile(&h, 0.99), 5.0);
    }
}

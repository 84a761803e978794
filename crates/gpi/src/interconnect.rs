//! The DMA interconnect: latency/bandwidth model and traffic accounting.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Cost model for crossing the interconnect. All costs in nanoseconds.
///
/// Remote operations *spin* for their modelled duration on the calling
/// worker, so wall-clock measurements of the solver exhibit the local vs.
/// remote asymmetry that shapes MaCS' hierarchical design. The default is
/// free (zero cost) so functional tests run at full speed; benchmarks use
/// [`LatencyModel::infiniband_ddr`], calibrated to the paper's testbed
/// class (InfiniBand DDR, ~2 µs small-message latency, ~1.5 GB/s).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencyModel {
    /// One-sided remote read: base latency.
    pub read_base_ns: u64,
    /// One-sided remote write: base latency charged to the poster when the
    /// write is synchronous (see `post_overhead_ns` for queued writes).
    pub write_base_ns: u64,
    /// Per-byte transfer cost (inverse bandwidth), in picoseconds to keep
    /// integer precision: 1000 ps/B ≙ 1 GB/s.
    pub byte_ps: u64,
    /// Remote atomic (CAS / fetch-add) round trip.
    pub atomic_ns: u64,
    /// CPU cost of posting a non-blocking operation to the queue (the DMA
    /// engine does the rest — this is all a queued one-sided write costs
    /// its poster).
    pub post_overhead_ns: u64,
}

impl LatencyModel {
    /// Free interconnect: every remote operation costs nothing (functional
    /// testing).
    pub const fn zero() -> Self {
        LatencyModel {
            read_base_ns: 0,
            write_base_ns: 0,
            byte_ps: 0,
            atomic_ns: 0,
            post_overhead_ns: 0,
        }
    }

    /// InfiniBand DDR-class interconnect (the paper's testbed fabric).
    pub const fn infiniband_ddr() -> Self {
        LatencyModel {
            read_base_ns: 2_000,
            write_base_ns: 1_500,
            byte_ps: 667, // ≈ 1.5 GB/s
            atomic_ns: 2_500,
            post_overhead_ns: 150,
        }
    }

    #[inline]
    fn transfer_ns(&self, bytes: usize) -> u64 {
        (self.byte_ps.saturating_mul(bytes as u64)) / 1000
    }

    #[inline]
    pub fn read_cost(&self, bytes: usize) -> Duration {
        Duration::from_nanos(self.read_base_ns + self.transfer_ns(bytes))
    }

    #[inline]
    pub fn write_cost(&self, bytes: usize) -> Duration {
        Duration::from_nanos(self.write_base_ns + self.transfer_ns(bytes))
    }

    #[inline]
    pub fn atomic_cost(&self) -> Duration {
        Duration::from_nanos(self.atomic_ns)
    }

    #[inline]
    pub fn post_cost(&self) -> Duration {
        Duration::from_nanos(self.post_overhead_ns)
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel::zero()
    }
}

/// Aggregate traffic counters (whole-run totals, relaxed).
#[derive(Debug, Default)]
pub struct TrafficCounters {
    pub remote_reads: AtomicU64,
    pub remote_writes: AtomicU64,
    pub remote_atomics: AtomicU64,
    pub bytes_read: AtomicU64,
    pub bytes_written: AtomicU64,
}

impl TrafficCounters {
    pub fn snapshot(&self) -> TrafficSnapshot {
        TrafficSnapshot {
            remote_reads: self.remote_reads.load(Ordering::Relaxed),
            remote_writes: self.remote_writes.load(Ordering::Relaxed),
            remote_atomics: self.remote_atomics.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`TrafficCounters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TrafficSnapshot {
    pub remote_reads: u64,
    pub remote_writes: u64,
    pub remote_atomics: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
}

/// The interconnect: charges modelled latencies and counts traffic.
#[derive(Debug, Default)]
pub struct Interconnect {
    pub model: LatencyModel,
    pub counters: TrafficCounters,
}

/// Busy-wait for `d` (sub-scheduler-tick delays cannot sleep).
#[inline]
fn spin_for(d: Duration) {
    if d.is_zero() {
        return;
    }
    let end = Instant::now() + d;
    while Instant::now() < end {
        std::hint::spin_loop();
    }
}

impl Interconnect {
    pub fn new(model: LatencyModel) -> Self {
        Interconnect {
            model,
            counters: TrafficCounters::default(),
        }
    }

    /// Charge a one-sided remote read of `bytes`.
    #[inline]
    pub fn charge_read(&self, bytes: usize) {
        self.counters.remote_reads.fetch_add(1, Ordering::Relaxed);
        self.counters
            .bytes_read
            .fetch_add(bytes as u64, Ordering::Relaxed);
        spin_for(self.model.read_cost(bytes));
    }

    /// Charge a synchronous one-sided remote write of `bytes`.
    #[inline]
    pub fn charge_write(&self, bytes: usize) {
        self.counters.remote_writes.fetch_add(1, Ordering::Relaxed);
        self.counters
            .bytes_written
            .fetch_add(bytes as u64, Ordering::Relaxed);
        spin_for(self.model.write_cost(bytes));
    }

    /// Charge a *queued* (non-blocking) one-sided write: the poster pays
    /// only the posting overhead; the DMA engine moves the data. Counted as
    /// a remote write for traffic purposes.
    #[inline]
    pub fn charge_queued_write(&self, bytes: usize) {
        self.counters.remote_writes.fetch_add(1, Ordering::Relaxed);
        self.counters
            .bytes_written
            .fetch_add(bytes as u64, Ordering::Relaxed);
        spin_for(self.model.post_cost());
    }

    /// Charge a remote atomic round trip.
    #[inline]
    pub fn charge_atomic(&self) {
        self.counters.remote_atomics.fetch_add(1, Ordering::Relaxed);
        spin_for(self.model.atomic_cost());
    }

    /// Spin until at least one read round-trip has elapsed since `since`
    /// (used by a thief waiting for a steal response, so the response can
    /// never appear faster than the fabric allows).
    #[inline]
    pub fn enforce_rtt_floor(&self, since: Instant, bytes: usize) {
        let floor = self.model.read_cost(bytes);
        let elapsed = since.elapsed();
        if elapsed < floor {
            spin_for(floor - elapsed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_model_is_free_and_counts() {
        let ic = Interconnect::new(LatencyModel::zero());
        let t = Instant::now();
        for _ in 0..1000 {
            ic.charge_read(64);
            ic.charge_write(64);
            ic.charge_atomic();
        }
        assert!(t.elapsed() < Duration::from_millis(50));
        let s = ic.counters.snapshot();
        assert_eq!(s.remote_reads, 1000);
        assert_eq!(s.remote_writes, 1000);
        assert_eq!(s.remote_atomics, 1000);
        assert_eq!(s.bytes_read, 64_000);
    }

    #[test]
    fn latency_is_actually_charged() {
        let ic = Interconnect::new(LatencyModel {
            read_base_ns: 200_000,
            ..LatencyModel::zero()
        });
        let t = Instant::now();
        ic.charge_read(8);
        assert!(t.elapsed() >= Duration::from_micros(200));
    }

    #[test]
    fn bandwidth_term_scales_with_bytes() {
        let m = LatencyModel {
            byte_ps: 1000, // 1 GB/s
            ..LatencyModel::zero()
        };
        assert_eq!(m.read_cost(1024), Duration::from_nanos(1024));
        assert_eq!(m.write_cost(0), Duration::from_nanos(0));
    }

    #[test]
    fn queued_write_charges_only_post_overhead() {
        let ic = Interconnect::new(LatencyModel {
            write_base_ns: 1_000_000,
            post_overhead_ns: 0,
            ..LatencyModel::zero()
        });
        let t = Instant::now();
        ic.charge_queued_write(4096);
        assert!(t.elapsed() < Duration::from_millis(100));
        assert_eq!(ic.counters.snapshot().bytes_written, 4096);
    }

    #[test]
    fn rtt_floor_waits_remaining_time() {
        let ic = Interconnect::new(LatencyModel {
            read_base_ns: 150_000,
            ..LatencyModel::zero()
        });
        let t0 = Instant::now();
        ic.enforce_rtt_floor(t0, 8);
        assert!(t0.elapsed() >= Duration::from_micros(150));
        // Already elapsed: no extra wait.
        let t1 = Instant::now() - Duration::from_millis(1);
        let before = Instant::now();
        ic.enforce_rtt_floor(t1, 8);
        assert!(before.elapsed() < Duration::from_micros(150));
    }
}

//! Service-level metrics: what a multi-tenant solve service is judged
//! by, computed identically for both backends.

use macs_sim::{fnv1a, FNV_OFFSET};

use crate::job::JobAnswer;

/// The full life of one job as the service saw it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobRecord {
    pub id: u64,
    pub tenant: usize,
    pub class: usize,
    /// Virtual (sim) or scaled-wall (threaded) instants, nanoseconds.
    pub arrival_ns: u64,
    pub start_ns: u64,
    pub finish_ns: u64,
    /// True if admission control bounced the job (queue full). Rejected
    /// jobs carry no timing beyond `arrival_ns` and no answer.
    pub rejected: bool,
    /// Nodes granted at dispatch.
    pub lease_nodes: usize,
    /// Workers granted at dispatch.
    pub workers: usize,
    /// Lease resizes applied while running (shrinks + grows).
    pub resizes: u32,
    /// Worker-nanoseconds consumed: the integral of lease width over the
    /// job's run — the fairness axis (a tenant's bill).
    pub worker_ns: u64,
    /// The checkable slice of the solve.
    pub answer: JobAnswer,
    /// Simulator backend: the inner [`macs_sim::SimReport::digest`] of
    /// the job's own run, folded into the service digest so same-seed
    /// service runs are pinned all the way down to each job's event
    /// trace. Zero on the threaded backend (wall time is not
    /// reproducible).
    pub sim_digest: u64,
}

impl JobRecord {
    /// Queueing delay: dispatch minus arrival.
    pub fn wait_ns(&self) -> u64 {
        self.start_ns.saturating_sub(self.arrival_ns)
    }

    /// Sojourn time: completion minus arrival (what a tenant feels).
    pub fn sojourn_ns(&self) -> u64 {
        self.finish_ns.saturating_sub(self.arrival_ns)
    }
}

/// Everything one service run produced.
#[derive(Clone, Debug, Default)]
pub struct ServiceReport {
    /// Which backend produced this ("sim" or "threaded").
    pub backend: &'static str,
    /// One record per job of the trace, in job-id order (rejected jobs
    /// included).
    pub records: Vec<JobRecord>,
    /// Tenants the workload was generated for.
    pub tenants: usize,
    /// Deepest the request queue ever got.
    pub max_queue_depth: usize,
    /// Arrival of the first job to completion of the last (ns).
    pub makespan_ns: u64,
    /// Scheduler-invariant violations (job conservation, lease
    /// disjointness, ledger drift). Always empty on a correct scheduler;
    /// the property suite asserts exactly that.
    pub violations: Vec<String>,
}

impl ServiceReport {
    pub fn completed(&self) -> u64 {
        self.records.iter().filter(|r| !r.rejected).count() as u64
    }

    pub fn rejected(&self) -> u64 {
        self.records.iter().filter(|r| r.rejected).count() as u64
    }

    pub fn rejection_rate(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.rejected() as f64 / self.records.len() as f64
    }

    /// Completed jobs per (virtual or scaled-wall) second.
    pub fn throughput_per_sec(&self) -> f64 {
        self.completed() as f64 / (self.makespan_ns.max(1) as f64 / 1e9)
    }

    /// Sojourn-time percentile over completed jobs (`p` in 0..=100, e.g.
    /// 50, 99, 99.9). Nearest-rank on the sorted sample; 0 if nothing
    /// completed.
    pub fn sojourn_percentile_ns(&self, p: f64) -> u64 {
        let mut s: Vec<u64> = self
            .records
            .iter()
            .filter(|r| !r.rejected)
            .map(|r| r.sojourn_ns())
            .collect();
        if s.is_empty() {
            return 0;
        }
        s.sort_unstable();
        let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
        s[rank.clamp(1, s.len()) - 1]
    }

    /// Worker-nanoseconds billed per tenant (fairness axis).
    pub fn tenant_worker_ns(&self) -> Vec<u64> {
        let mut per = vec![0u64; self.tenants];
        for r in &self.records {
            if !r.rejected && r.tenant < per.len() {
                per[r.tenant] += r.worker_ns;
            }
        }
        per
    }

    /// Max/min worker-seconds across tenants that completed work — 1.0 is
    /// perfectly fair; `f64::INFINITY` means a tenant was starved to
    /// zero while another ran.
    pub fn fairness_ratio(&self) -> f64 {
        let active: Vec<u64> = self
            .tenant_worker_ns()
            .into_iter()
            .filter(|&ns| ns > 0)
            .collect();
        let served_tenants: std::collections::BTreeSet<usize> = self
            .records
            .iter()
            .filter(|r| !r.rejected)
            .map(|r| r.tenant)
            .collect();
        if served_tenants.len() > active.len() {
            return f64::INFINITY;
        }
        match (active.iter().max(), active.iter().min()) {
            (Some(&max), Some(&min)) if min > 0 => max as f64 / min as f64,
            _ => 1.0,
        }
    }

    /// FNV-1a fold of every deterministic field: counters, per-job
    /// timings, answers and inner sim digests. Two same-seed simulator
    /// service runs must agree bit for bit (the threaded backend's wall
    /// times make its digest a label, not a pin).
    pub fn digest(&self) -> u64 {
        let mut h = FNV_OFFSET;
        let mut mix = |v: u64| h = fnv1a(h, v);
        mix(self.records.len() as u64);
        mix(self.tenants as u64);
        mix(self.max_queue_depth as u64);
        mix(self.makespan_ns);
        mix(self.violations.len() as u64);
        for r in &self.records {
            mix(r.id);
            mix(r.tenant as u64);
            mix(r.class as u64);
            mix(r.arrival_ns);
            mix(r.start_ns);
            mix(r.finish_ns);
            mix(r.rejected as u64);
            mix(r.lease_nodes as u64);
            mix(r.workers as u64);
            mix(r.resizes as u64);
            mix(r.worker_ns);
            mix(r.answer.solutions);
            mix(r.answer.nodes);
            mix(r.answer.best_cost.map(|c| c as u64 ^ 1).unwrap_or(0));
            mix(r.sim_digest);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, tenant: usize, arrival: u64, finish: u64, worker_ns: u64) -> JobRecord {
        JobRecord {
            id,
            tenant,
            class: 0,
            arrival_ns: arrival,
            start_ns: arrival,
            finish_ns: finish,
            rejected: false,
            lease_nodes: 1,
            workers: 4,
            resizes: 0,
            worker_ns,
            answer: JobAnswer::default(),
            sim_digest: 0,
        }
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let mut report = ServiceReport {
            tenants: 2,
            makespan_ns: 1_000_000_000,
            ..Default::default()
        };
        for i in 0..100u64 {
            report.records.push(rec(i, 0, 0, (i + 1) * 10, 1));
        }
        assert_eq!(report.sojourn_percentile_ns(50.0), 500);
        assert_eq!(report.sojourn_percentile_ns(99.0), 990);
        assert_eq!(report.sojourn_percentile_ns(99.9), 1000);
        assert_eq!(report.completed(), 100);
        assert!((report.throughput_per_sec() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn fairness_flags_starved_tenants() {
        let mut report = ServiceReport {
            tenants: 2,
            ..Default::default()
        };
        report.records.push(rec(0, 0, 0, 10, 300));
        report.records.push(rec(1, 1, 0, 10, 100));
        assert!((report.fairness_ratio() - 3.0).abs() < 1e-9);
        // A completed job billed zero worker-ns = starvation signal.
        report.records.push(rec(2, 1, 0, 10, 0));
        assert!((report.fairness_ratio() - 3.0).abs() < 1e-9);
        let mut starved = ServiceReport {
            tenants: 2,
            ..Default::default()
        };
        starved.records.push(rec(0, 0, 0, 10, 300));
        starved.records.push(rec(1, 1, 0, 10, 0));
        assert!(starved.fairness_ratio().is_infinite());
    }

    #[test]
    fn digest_moves_with_any_field() {
        let base = ServiceReport {
            tenants: 1,
            records: vec![rec(0, 0, 5, 50, 7)],
            ..Default::default()
        };
        let mut other = base.clone();
        other.records[0].worker_ns += 1;
        assert_ne!(base.digest(), other.digest());
        let mut other = base.clone();
        other.records[0].answer.solutions = 3;
        assert_ne!(base.digest(), other.digest());
    }
}

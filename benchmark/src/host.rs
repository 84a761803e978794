//! The machine the benchmark runs on: how many solver threads it may
//! use, which CPUs they pin to, and the process's peak memory.

use macs::runtime::{detect_machine, pin_current_thread, RuntimeConfig};
use macs::topo::MachineTopology;

use crate::json::Json;

/// Detected host and the thread budget derived from it.
#[derive(Clone, Debug)]
pub struct Host {
    /// `std::thread::available_parallelism()`.
    pub nproc: usize,
    /// One entry per physical core (hyperthread siblings deduplicated by
    /// `detect_machine`); the flat fallback when sysfs is unreadable.
    pub cpus: Vec<u32>,
    /// Detected topology shape (`[2]` on a flat 2-core host).
    pub shape: Vec<usize>,
    /// False when sysfs detection failed and the flat fallback is in use.
    pub detected: bool,
}

impl Host {
    pub fn detect() -> Host {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let (machine, detected) = match detect_machine() {
            Ok(m) => (m, true),
            Err(_) => (macs::runtime::DetectedMachine::flat_fallback(), false),
        };
        Host {
            nproc,
            cpus: machine.cpus,
            shape: machine.topo.shape().to_vec(),
            detected,
        }
    }

    /// `W`: the most solver threads ever alive at once — the smaller of
    /// the schedulable CPUs and the physical cores.
    pub fn w(&self) -> usize {
        self.nproc.min(self.cpus.len()).max(1)
    }

    /// The thread-budget guard: a request for more workers than `W` is
    /// refused, never run oversubscribed.
    pub fn worker_budget(&self, requested: usize) -> Result<usize, String> {
        if requested == 0 {
            return Err("a run needs at least one worker".into());
        }
        if requested > self.w() {
            return Err(format!(
                "{requested} workers requested but this host allows {} (nproc {}, {} physical cores): refusing to oversubscribe",
                self.w(),
                self.nproc,
                self.cpus.len()
            ));
        }
        Ok(requested)
    }

    /// Runtime configuration for a threaded run on `workers` pinned
    /// cores of this host (one shared-memory node, the detected CPU map).
    pub fn runtime(&self, workers: usize, seed: u64) -> Result<RuntimeConfig, String> {
        let workers = self.worker_budget(workers)?;
        Ok(RuntimeConfig {
            topology: MachineTopology::flat(workers),
            pin_threads: true,
            cpu_map: Some(self.cpus[..workers].to_vec()),
            seed,
            ..RuntimeConfig::default()
        })
    }

    /// Run single-threaded work on a scratch thread pinned to the first
    /// core. The calling thread keeps its own (unrestricted) affinity, so
    /// threads spawned later by unpinned backends are not confined to one
    /// CPU; it blocks meanwhile, so one solver thread is alive.
    pub fn on_first_core<T: Send>(&self, work: impl FnOnce() -> T + Send) -> T {
        let cpu = self.cpus[0];
        std::thread::scope(|s| {
            s.spawn(move || {
                pin_current_thread(cpu);
                work()
            })
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        })
    }

    pub fn describe(&self) -> Json {
        Json::obj([
            ("nproc", Json::Num(self.nproc as f64)),
            ("physical_cores", Json::Num(self.cpus.len() as f64)),
            ("W", Json::Num(self.w() as f64)),
            (
                "shape",
                Json::Arr(self.shape.iter().map(|&e| Json::Num(e as f64)).collect()),
            ),
            (
                "cpu_map",
                Json::Arr(self.cpus.iter().map(|&c| Json::Num(c as f64)).collect()),
            ),
            ("detected", Json::Bool(self.detected)),
        ])
    }
}

/// Peak resident set (`VmHWM`) of this process in MB; `None` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host(nproc: usize, cores: usize) -> Host {
        Host {
            nproc,
            cpus: (0..cores as u32).collect(),
            shape: vec![cores],
            detected: true,
        }
    }

    #[test]
    fn w_is_the_smaller_of_nproc_and_physical_cores() {
        assert_eq!(host(2, 2).w(), 2);
        assert_eq!(host(4, 2).w(), 2, "SMT: 4 hardware threads, 2 cores");
        assert_eq!(host(1, 8).w(), 1, "cgroup-limited to one CPU");
    }

    #[test]
    fn asking_for_more_workers_than_the_host_has_is_refused() {
        let h = host(2, 2);
        assert_eq!(h.worker_budget(1), Ok(1));
        assert_eq!(h.worker_budget(2), Ok(2));
        assert!(h.worker_budget(3).is_err());
        assert!(h.worker_budget(0).is_err());
        assert!(h.runtime(3, 1).is_err());
        let real = Host::detect();
        assert!(real.worker_budget(real.nproc + 1).is_err());
    }

    #[test]
    fn runtime_config_pins_to_the_detected_cpus() {
        let h = Host {
            cpus: vec![0, 2],
            ..host(4, 2)
        };
        let cfg = h.runtime(2, 7).unwrap();
        assert!(cfg.pin_threads);
        assert_eq!(cfg.cpu_map, Some(vec![0, 2]));
        assert_eq!(cfg.workers(), 2);
        assert_eq!(cfg.seed, 7);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb().unwrap() > 0.0);
        }
    }
}

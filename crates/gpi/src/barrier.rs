//! A sense-reversing barrier (GPI's collective synchronisation).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Checks a waiter spins before each further check yields: some 50–500 µs,
/// past the few tens of µs a spawned party takes to arrive, so a solve's
/// rendezvous stays a spin unless a party is kept off the cores.
const SPINS: u32 = 1 << 14;

/// A reusable barrier for a fixed set of participants. Implemented with a
/// central counter and a generation word (sense reversal), like the
/// fabric-level barrier GPI provides; workers spin rather than block, which
/// is appropriate for the short rendezvous at start/end of a solve (the
/// paper's "Barrier" state). A wait that outlasts `SPINS` checks yields the core
/// on every further check: with more threads than cores, the party still
/// to arrive may need the very core a waiter spins on.
#[derive(Debug)]
pub struct GpiBarrier {
    parties: usize,
    arrived: AtomicUsize,
    generation: AtomicU64,
}

impl GpiBarrier {
    pub fn new(parties: usize) -> Self {
        assert!(parties > 0);
        GpiBarrier {
            parties,
            arrived: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
        }
    }

    pub fn parties(&self) -> usize {
        self.parties
    }

    /// Wait until all parties arrive. Returns `true` for exactly one caller
    /// per generation (the "leader", who may perform a serial action).
    pub fn wait(&self) -> bool {
        let gen = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            self.arrived.store(0, Ordering::Release);
            self.generation.fetch_add(1, Ordering::AcqRel);
            true
        } else {
            let mut checks = 0u32;
            while self.generation.load(Ordering::Acquire) == gen {
                if checks < SPINS {
                    checks += 1;
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn single_party_never_waits() {
        let b = GpiBarrier::new(1);
        assert!(b.wait());
        assert!(b.wait());
    }

    #[test]
    fn all_threads_cross_together_many_generations() {
        const N: usize = 4;
        const ROUNDS: usize = 200;
        let barrier = Arc::new(GpiBarrier::new(N));
        let phase = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..N)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                let phase = Arc::clone(&phase);
                std::thread::spawn(move || {
                    let mut leader_count = 0usize;
                    for round in 0..ROUNDS as u64 {
                        // Everybody must still observe the current phase.
                        assert_eq!(phase.load(Ordering::SeqCst), round);
                        if barrier.wait() {
                            leader_count += 1;
                            phase.store(round + 1, Ordering::SeqCst);
                        }
                        // Leader bumps the phase; a second barrier makes the
                        // bump visible to all before the next assert.
                        barrier.wait();
                    }
                    leader_count
                })
            })
            .collect();
        let total_leaders: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total_leaders, ROUNDS, "exactly one leader per generation");
    }
}

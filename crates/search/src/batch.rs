//! The steal-chunk sizing rules and their granularity policy.
//!
//! Every victim in the system answers a steal with "the oldest half of my
//! work, capped" — those are the largest sub-problems, the ones worth the
//! transfer. [`WorkBatch`] holds that split arithmetic; the items
//! themselves move through each execution's own pools.
//!
//! The *cap* itself is a policy, not a constant: steal cost grows with
//! topological distance (a cross-cluster round trip is orders of magnitude
//! dearer than a same-socket lock), so the amount of work moved per steal
//! should too. [`ChunkPolicy`] decides the reservation granted to one
//! thief from the thief↔victim [`distance`](macs_topo::MachineTopology::distance):
//! small near chunks keep local stealing cheap and responsive, large far
//! chunks amortise the expensive round trip. [`AdaptiveBatch`] additionally
//! tunes the *response batch* (how many co-located pools top up one thin
//! reply) online from an EWMA of observed reply thinness.

use std::fmt;
use std::str::FromStr;

/// How large a reservation a victim grants one thief — the steal-chunk
/// granularity policy threaded through every backend (MaCS replies and
/// local steals, PaCCS grants, threaded and simulated alike).
///
/// The configured `max_steal_chunk` stays the *static* reference cap; the
/// policy maps it (and the steal's topological distance) to the effective
/// per-steal cap via [`cap_for`](ChunkPolicy::cap_for).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ChunkPolicy {
    /// One flat cap for every steal, whatever it crosses — the original
    /// (PR-2) behaviour and the ablation baseline.
    #[default]
    Static,
    /// Scale the cap with distance: `base` items for a distance-1 steal,
    /// growing linearly to `base × factor` at the machine's full depth.
    /// A same-socket thief keeps the near granularity (it can come back
    /// for more almost for free); a cross-cluster thief's one expensive
    /// round trip carries a proportionally bigger reservation. `base`
    /// should normally equal the static cap — shrinking near steals below
    /// the tuned baseline only drains pools faster and sends thieves
    /// remote sooner (measured in `paper ablation_chunk`).
    DistanceScaled {
        /// Cap for the nearest (distance-1) steal, clamped to ≥ 1.
        base: u64,
        /// Growth to the machine diameter: the farthest steal is capped at
        /// `base × factor` (clamped to ≥ 1).
        factor: u64,
    },
    /// Distance-scaled grants with the base taken from the static cap
    /// (growth ×2 to the diameter), plus online tuning of the response
    /// batch from reply thinness (see [`AdaptiveBatch`]): chronically
    /// thin replies raise how many co-located pools top up one response,
    /// fat replies lower it.
    Adaptive,
}

impl ChunkPolicy {
    /// The canonical sweep order for ablation harnesses.
    pub const ALL: [ChunkPolicy; 3] = [
        ChunkPolicy::Static,
        ChunkPolicy::DistanceScaled {
            base: 16,
            factor: 2,
        },
        ChunkPolicy::Adaptive,
    ];

    /// The effective per-steal cap for a thief `distance` levels away on a
    /// machine `levels` deep, given the configured static cap. Monotone
    /// non-decreasing in `distance` for every policy; `Static` ignores the
    /// distance entirely.
    pub fn cap_for(&self, distance: usize, levels: usize, static_cap: u64) -> u64 {
        let scaled = |base: u64, factor: u64| {
            let base = base.max(1);
            let factor = factor.max(1);
            let d = distance.clamp(1, levels.max(1)) as u64;
            let span = levels.max(1) as u64 - 1;
            // Linear interpolation from `base` at distance 1 to
            // `base × factor` at the machine diameter (flat machine:
            // base). Saturating: absurd user-supplied base/factor pairs
            // must clamp, not wrap (wrapping would break monotonicity).
            base.saturating_add(base.saturating_mul(factor - 1).saturating_mul(d - 1) / span.max(1))
        };
        match *self {
            ChunkPolicy::Static => static_cap.max(1),
            ChunkPolicy::DistanceScaled { base, factor } => scaled(base, factor),
            ChunkPolicy::Adaptive => scaled(static_cap.max(1), 2),
        }
    }

    /// Does this policy tune the response batch online?
    #[inline]
    pub fn is_adaptive(&self) -> bool {
        matches!(self, ChunkPolicy::Adaptive)
    }
}

impl fmt::Display for ChunkPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChunkPolicy::Static => write!(f, "static"),
            ChunkPolicy::DistanceScaled { base, factor } => write!(f, "distance:{base},{factor}"),
            ChunkPolicy::Adaptive => write!(f, "adaptive"),
        }
    }
}

impl FromStr for ChunkPolicy {
    type Err = String;

    /// Parse `static`, `distance[:base,factor]` (default `16,2`) or
    /// `adaptive` — the `--chunk-policy` argument of the bench bins.
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "static" => Ok(ChunkPolicy::Static),
            "adaptive" => Ok(ChunkPolicy::Adaptive),
            "distance" => Ok(ChunkPolicy::DistanceScaled {
                base: 16,
                factor: 2,
            }),
            _ => match s.strip_prefix("distance:") {
                Some(params) => {
                    let (b, f) = params.split_once(',').ok_or_else(|| {
                        format!("chunk policy {s:?} needs distance:base,factor (e.g. distance:8,4)")
                    })?;
                    let parse = |t: &str| {
                        t.parse::<u64>()
                            .map_err(|e| format!("bad number {t:?} in chunk policy {s:?}: {e}"))
                    };
                    let (base, factor) = (parse(b)?, parse(f)?);
                    if base == 0 || factor == 0 {
                        return Err(format!("chunk policy {s:?}: base and factor must be ≥ 1"));
                    }
                    // A cap is a number of work items in one reply; 2^20
                    // already exceeds any pool. Bounding the product here
                    // keeps cap_for's interpolation far from overflow.
                    if base.saturating_mul(factor) > (1 << 20) {
                        return Err(format!(
                            "chunk policy {s:?}: base × factor must be ≤ 2^20 items"
                        ));
                    }
                    Ok(ChunkPolicy::DistanceScaled { base, factor })
                }
                None => Err(format!(
                    "unknown chunk policy {s:?} (expected static, \
                     distance[:base,factor] or adaptive)"
                )),
            },
        }
    }
}

/// Online response-batch tuner for [`ChunkPolicy::Adaptive`]: an EWMA of
/// reply thinness (1024 = every recent reply thin, 0 = every reply fat)
/// with an ~8-reply horizon. Thin replies — the signal that no single
/// co-located pool can fill the cap — raise the batch towards
/// [`MAX_BATCH`](AdaptiveBatch::MAX_BATCH); fat replies lower it towards 1.
/// Each serving worker owns one (the signal is its own node's surplus).
#[derive(Clone, Copy, Debug)]
pub struct AdaptiveBatch {
    /// Thinness EWMA in 1/1024 units.
    ewma: u32,
}

impl AdaptiveBatch {
    pub const MIN_BATCH: u32 = 1;
    pub const MAX_BATCH: u32 = 4;

    /// Start in the middle of the batch-2 band — the tuned PR-2 default —
    /// so the first observations move it either way.
    pub fn new() -> Self {
        AdaptiveBatch::starting_at(2)
    }

    /// Start from a configured batch (the `response_batch` knob): the
    /// EWMA is seeded at the centre of the band [`batch`](Self::batch)
    /// maps back onto, so the tuner begins at the configured ceiling and
    /// moves from there.
    pub fn starting_at(batch: u32) -> Self {
        let b = batch.clamp(Self::MIN_BATCH, Self::MAX_BATCH);
        AdaptiveBatch {
            ewma: (300 * (b - 1) + 150).min(1024),
        }
    }

    /// Record one served reply of `len` items against its per-steal `cap`.
    pub fn observe(&mut self, len: u64, cap: u64) {
        let thin = len < WorkBatch::thin_threshold(cap);
        self.ewma = (self.ewma * 7 + if thin { 1024 } else { 0 }) / 8;
    }

    /// The response batch the thinness EWMA currently argues for, clamped
    /// to `[MIN_BATCH, MAX_BATCH]`.
    pub fn batch(&self) -> u32 {
        (1 + self.ewma / 300).clamp(Self::MIN_BATCH, Self::MAX_BATCH)
    }
}

impl Default for AdaptiveBatch {
    fn default() -> Self {
        AdaptiveBatch::new()
    }
}

/// One relocatable work item: a fixed-size store image.
pub type WorkItem = Box<[u64]>;

/// The split arithmetic of a steal: how much of a victim's work one thief
/// is granted, and when a reply counts as thin.
#[derive(Debug)]
pub struct WorkBatch;

impl WorkBatch {
    /// The MaCS share policy: up to ⌈available/2⌉ items, capped — and the
    /// victim always retains at least one item. ⌈1/2⌉ = 1 used to grant
    /// the victim's *only* item, leaving its pool empty and forcing an
    /// immediate re-steal; the `available − 1` clamp pins the retention
    /// invariant for every `available`.
    #[inline]
    pub fn share_ceil(available: u64, cap: u64) -> u64 {
        available
            .div_ceil(2)
            .min(cap)
            .min(available.saturating_sub(1))
    }

    /// The PaCCS share policy: up to ⌊available/2⌋ items, capped — the
    /// victim always keeps at least one item, so it stays active (the
    /// floor already guarantees it; the clamp keeps both policies under
    /// the same invariant by construction).
    #[inline]
    pub fn share_floor(available: u64, cap: u64) -> u64 {
        (available / 2).min(cap).min(available.saturating_sub(1))
    }

    /// Below how many items a reply counts as *thin* (eligible for a
    /// batched top-up from co-located pools). `max(cap/4, 2)` — but
    /// clamped to the cap itself: with integer division a cap below 4
    /// would otherwise make the threshold *exceed* the cap, so every
    /// reply (even a full one) counted as thin and the thinness gate was
    /// meaningless. A full reply is never thin.
    #[inline]
    pub fn thin_threshold(cap: u64) -> u64 {
        (cap / 4).max(2).min(cap.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn share_policies() {
        assert_eq!(
            WorkBatch::share_floor(1, 8),
            0,
            "victim keeps its last item"
        );
        assert_eq!(WorkBatch::share_floor(7, 8), 3);
        assert_eq!(WorkBatch::share_floor(64, 8), 8, "cap applies");
        assert_eq!(
            WorkBatch::share_ceil(1, 8),
            0,
            "ceil must not grant the victim's only item"
        );
        assert_eq!(WorkBatch::share_ceil(2, 8), 1);
        assert_eq!(WorkBatch::share_ceil(7, 8), 4);
        assert_eq!(WorkBatch::share_ceil(64, 8), 8);
        assert_eq!(WorkBatch::share_ceil(0, 8), 0);
        // The retention invariant, over the interesting small range.
        for available in 0..=20u64 {
            for cap in 1..=20u64 {
                for grant in [
                    WorkBatch::share_ceil(available, cap),
                    WorkBatch::share_floor(available, cap),
                ] {
                    assert!(grant < available.max(1), "victim retains ≥ 1");
                    assert!(grant <= cap);
                }
            }
        }
    }

    #[test]
    fn thin_threshold_never_exceeds_the_cap() {
        assert_eq!(WorkBatch::thin_threshold(16), 4);
        assert_eq!(WorkBatch::thin_threshold(8), 2);
        // Degenerate small caps: the old max(cap/4, 2) returned 2 for cap
        // 1..=3, so a *full* reply counted as thin.
        assert_eq!(WorkBatch::thin_threshold(3), 2);
        assert_eq!(WorkBatch::thin_threshold(2), 2);
        assert_eq!(WorkBatch::thin_threshold(1), 1);
        assert_eq!(WorkBatch::thin_threshold(0), 1);
        for cap in 1..=64u64 {
            assert!(
                WorkBatch::thin_threshold(cap) <= cap,
                "a full reply is never thin (cap {cap})"
            );
        }
    }

    #[test]
    fn chunk_policy_parses_and_round_trips() {
        for p in ChunkPolicy::ALL {
            assert_eq!(p.to_string().parse::<ChunkPolicy>().unwrap(), p);
        }
        assert_eq!(
            "distance".parse::<ChunkPolicy>().unwrap(),
            ChunkPolicy::DistanceScaled {
                base: 16,
                factor: 2
            }
        );
        assert_eq!(
            "distance:2,16".parse::<ChunkPolicy>().unwrap(),
            ChunkPolicy::DistanceScaled {
                base: 2,
                factor: 16
            }
        );
        for bad in [
            "",
            "Static",
            "distance:",
            "distance:8",
            "distance:x,4",
            "distance:0,4",
            "distance:8,0",
        ] {
            assert!(
                bad.parse::<ChunkPolicy>().is_err(),
                "{bad:?} must not parse"
            );
        }
    }

    #[test]
    fn chunk_caps_scale_with_distance() {
        let p = ChunkPolicy::DistanceScaled { base: 8, factor: 4 };
        // 3-level machine: 8 at the socket, 32 at the diameter, between
        // in between.
        assert_eq!(p.cap_for(1, 3, 16), 8);
        assert_eq!(p.cap_for(2, 3, 16), 20);
        assert_eq!(p.cap_for(3, 3, 16), 32);
        // Flat machine: one distance, the base.
        assert_eq!(p.cap_for(1, 1, 16), 8);
        // Static ignores distance; Adaptive takes its base from the
        // static cap, doubling to the diameter.
        assert_eq!(ChunkPolicy::Static.cap_for(3, 3, 16), 16);
        assert_eq!(ChunkPolicy::Adaptive.cap_for(1, 3, 16), 16);
        assert_eq!(ChunkPolicy::Adaptive.cap_for(2, 3, 16), 24);
        assert_eq!(ChunkPolicy::Adaptive.cap_for(3, 3, 16), 32);
        // Monotone in distance, and never zero.
        for levels in 1..=5usize {
            for policy in ChunkPolicy::ALL {
                let caps: Vec<u64> = (1..=levels)
                    .map(|d| policy.cap_for(d, levels, 16))
                    .collect();
                assert!(caps.windows(2).all(|w| w[0] <= w[1]), "{policy}: {caps:?}");
                assert!(caps.iter().all(|&c| c >= 1));
            }
        }
        // Absurd parameters saturate (stay monotone) instead of wrapping,
        // and the parser refuses them outright.
        let huge = ChunkPolicy::DistanceScaled {
            base: u64::MAX / 2,
            factor: u64::MAX / 2,
        };
        assert!(huge.cap_for(2, 3, 16) <= huge.cap_for(3, 3, 16));
        assert!("distance:6000000000,6000000000"
            .parse::<ChunkPolicy>()
            .is_err());
    }

    #[test]
    fn adaptive_batch_follows_reply_thinness() {
        for start in 0..=6u32 {
            let b = AdaptiveBatch::starting_at(start).batch();
            assert_eq!(
                b,
                start.clamp(AdaptiveBatch::MIN_BATCH, AdaptiveBatch::MAX_BATCH),
                "seeding lands in the configured band"
            );
        }
        let mut a = AdaptiveBatch::new();
        assert_eq!(a.batch(), 2, "starts at the tuned default");
        for _ in 0..32 {
            a.observe(16, 16); // fat replies
        }
        assert_eq!(a.batch(), AdaptiveBatch::MIN_BATCH);
        for _ in 0..32 {
            a.observe(1, 16); // thin replies
        }
        assert_eq!(a.batch(), AdaptiveBatch::MAX_BATCH);
        // A mixed stream settles strictly between the extremes.
        let mut m = AdaptiveBatch::new();
        for i in 0..64 {
            m.observe(if i % 2 == 0 { 1 } else { 16 }, 16);
        }
        let b = m.batch();
        assert!((AdaptiveBatch::MIN_BATCH..=AdaptiveBatch::MAX_BATCH).contains(&b));
    }
}

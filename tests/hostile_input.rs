//! Hostile input: seeded byte mutations of every text format the
//! workspace reads from outside — cost-model files, DIMACS `.col` graphs,
//! QAPLIB instances, sysfs cpulists, and the option values of the bench
//! bins (`--shape`, `--fabric`, `--lease-policy`, `--chunk-policy`,
//! `--bound-policy`, `--mode`). Each mutant must parse to an `Err` or to
//! a value that re-validates (its invariants hold and it survives a
//! write-and-reparse round trip unchanged); a panic, an overflow or a
//! runaway allocation is a parser bug. Run it in release too
//! (`cargo test --release --test hostile_input`), where an arithmetic
//! overflow would wrap silently instead of panicking.

use std::fmt::{Debug, Display};
use std::path::Path;
use std::str::FromStr;

use macs_bench::parse_shape;
use macs_engine::SearchMode;
use macs_problems::coloring::MYCIEL3_COL;
use macs_problems::qap::ESC16E_DAT;
use macs_problems::{ColoringInstance, QapInstance};
use macs_search::{BoundPolicy, ChunkPolicy};
use macs_service::LeasePolicy;
use macs_sim::{CostModel, CostModelError, FabricModel, MAX_PRICE};
use macs_topo::detect::{parse_cpulist, CPU_ID_LIMIT};
use macs_topo::MAX_LEVELS;

/// Mutants per base input.
const MUTANTS: usize = 3_000;

/// SplitMix64 — the workspace's standard seeded stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Bytes a mutation writes: the formats' own punctuation and keywords'
/// letters, digits, whitespace, and a few that belong to none of them.
const ALPHABET: &[u8] = b"0123456789-+,.:=# \t\nepcfix\x00\xff";

/// Numbers at the edges of the integer types the parsers read into.
const BOUNDARIES: [&str; 7] = [
    "0",
    "65536",
    "4294967296",
    "9223372036854775807",
    "9223372036854775808",
    "18446744073709551615",
    "18446744073709551616",
];

/// One to four random edits of `base`: overwrite, insert or delete a
/// byte, duplicate a span, splice in a long digit run, or replace the
/// number at a random spot with a type boundary (the overflow probes).
/// Invalid UTF-8 is replaced, as a lossy file read would.
fn mutate(base: &str, rng: &mut Rng) -> String {
    let mut b = base.as_bytes().to_vec();
    for _ in 0..1 + rng.below(4) {
        let at = rng.below(b.len() + 1);
        match rng.below(6) {
            5 => {
                let start = (at..b.len()).find(|&i| b[i].is_ascii_digit());
                let Some(start) = start else { continue };
                let len = b[start..].iter().take_while(|c| c.is_ascii_digit()).count();
                let value = BOUNDARIES[rng.below(BOUNDARIES.len())];
                b.splice(start..start + len, value.bytes());
            }
            0 if at < b.len() => b[at] = ALPHABET[rng.below(ALPHABET.len())],
            1 => b.insert(at, ALPHABET[rng.below(ALPHABET.len())]),
            2 if at < b.len() => {
                b.remove(at);
            }
            3 => {
                let end = (at + 1 + rng.below(16)).min(b.len());
                let span = b[at.min(end)..end].to_vec();
                b.splice(at..at, span);
            }
            _ => {
                let run = "9".repeat(1 + rng.below(24));
                b.splice(at..at, run.bytes());
            }
        }
    }
    String::from_utf8_lossy(&b).into_owned()
}

/// Feed `MUTANTS` mutants of each base to `check`; returns how many
/// parsed (so a test can insist the corpus is not all rejections).
fn fuzz(seed: u64, bases: &[&str], mut check: impl FnMut(&str) -> bool) -> usize {
    let mut rng = Rng(seed);
    let mut accepted = 0;
    for base in bases {
        assert!(check(base), "the unmutated base input must parse");
        for _ in 0..MUTANTS {
            accepted += usize::from(check(&mutate(base, &mut rng)));
        }
    }
    accepted
}

#[test]
fn cost_model_mutants_are_rejected_or_valid() {
    let default = CostModel::default().to_string();
    let calibrated = include_str!("../crates/bench/data/calibrated_host.cost");
    let accepted = fuzz(0xC057, &[&default, calibrated], |text| {
        let Ok(m) = text.parse::<CostModel>() else {
            return false;
        };
        assert!(m.node.jitter_pct <= 100, "{text:?}");
        assert_eq!(m.to_string().parse::<CostModel>(), Ok(m), "{text:?}");
        // Derived costs saturate instead of wrapping: each is at least
        // its base term and at most the ceiling, at every distance a
        // machine can have.
        assert!((m.byte_ps / 1000..=MAX_PRICE).contains(&m.transfer_ns(u64::MAX)));
        for d in 1..=MAX_LEVELS {
            let lat = m.remote_latency_for(d);
            assert!((m.remote_latency_ns..=MAX_PRICE).contains(&lat), "{text:?}");
            let lock = m.local_steal_ns(d);
            assert!((m.steal_local_ns..=MAX_PRICE).contains(&lock), "{text:?}");
        }
        true
    });
    assert!(
        accepted > 0,
        "some mutants (comments, digits) must still parse"
    );
}

/// One past the ceiling, on any key of either base file, is a typed
/// error naming that key; the ceiling itself parses.
#[test]
fn cost_model_values_above_the_ceiling_are_rejected() {
    let default = CostModel::default().to_string();
    let calibrated = include_str!("../crates/bench/data/calibrated_host.cost");
    for base in [default.as_str(), calibrated] {
        let lines: Vec<&str> = base.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            let Some((key, _)) = line.split_once(" = ") else {
                continue;
            };
            let set = |v: u64| {
                let mut text = lines.clone();
                let value = match key {
                    "node" => format!("node = fixed:{v},0"),
                    _ => format!("{key} = {v}"),
                };
                text[i] = &value;
                text.join("\n").parse::<CostModel>()
            };
            assert!(set(MAX_PRICE).is_ok(), "{key} at the ceiling");
            let named = if key == "node" { "node.ns" } else { key };
            match set(MAX_PRICE + 1) {
                Err(CostModelError::AboveCeiling { key: k, max, .. }) => {
                    assert_eq!((k.as_str(), max), (named, MAX_PRICE));
                }
                other => panic!("{key} above the ceiling: {other:?}"),
            }
        }
    }
}

#[test]
fn dimacs_mutants_are_rejected_or_valid() {
    let triangle = "c a triangle\np edge 3 3\ne 1 2\ne 2 3\ne 1 3\n";
    let accepted = fuzz(0xD1AC5, &[MYCIEL3_COL, triangle], |text| {
        let Ok(g) = ColoringInstance::parse("mutant", text) else {
            return false;
        };
        assert!(g.n >= 1, "{text:?}");
        assert!(
            g.edges.windows(2).all(|w| w[0] < w[1]),
            "sorted, deduplicated"
        );
        assert!(g.edges.iter().all(|&(u, v)| u < v && v < g.n), "{text:?}");
        let mut again = format!("p edge {} {}\n", g.n, g.edges.len());
        for (u, v) in &g.edges {
            again.push_str(&format!("e {} {}\n", u + 1, v + 1));
        }
        let back = ColoringInstance::parse("mutant", &again).expect("re-emitted graph parses");
        assert_eq!((back.n, &back.edges), (g.n, &g.edges));
        true
    });
    assert!(accepted > 0);
}

#[test]
fn qaplib_mutants_are_rejected_or_valid() {
    let small = "3\n\n0 1 2\n1 0 3\n2 3 0\n\n0 5 2\n5 0 1\n2 1 0\n";
    let accepted = fuzz(0x9A9, &[small, ESC16E_DAT], |text| {
        let Ok(q) = QapInstance::parse("mutant", text) else {
            return false;
        };
        let cells = q.n * q.n;
        assert!((1..=64).contains(&q.n), "{text:?}");
        assert_eq!((q.flow.len(), q.dist.len()), (cells, cells));
        assert!(q.flow.iter().chain(&q.dist).all(|&x| x >= 0));
        // Every assignment's objective — and so every bound below it —
        // fits an i64: the solver's arithmetic cannot overflow.
        let max = |m: &[i64]| m.iter().copied().max().unwrap_or(0);
        let worst = max(&q.flow)
            .checked_mul(max(&q.dist))
            .and_then(|x| x.checked_mul(cells as i64));
        assert!(worst.is_some(), "objective can overflow: {text:?}");
        let identity: Vec<_> = (0..q.n as u32).collect();
        assert!(q.cost(&identity) <= worst.unwrap());
        assert_eq!(
            QapInstance::parse("mutant", &q.to_qaplib()).as_ref(),
            Ok(&q)
        );
        true
    });
    assert!(accepted > 0);
}

#[test]
fn cpulist_mutants_are_rejected_or_valid() {
    let path = Path::new("node0/cpulist");
    let accepted = fuzz(0xC9, &["0-3,8,10-11", "0-63", "5"], |text| {
        let Ok(cpus) = parse_cpulist(text, path) else {
            return false;
        };
        assert!(cpus.iter().all(|&c| c < CPU_ID_LIMIT), "{text:?}");
        let again: Vec<String> = cpus.iter().map(u32::to_string).collect();
        assert_eq!(parse_cpulist(&again.join(","), path).unwrap(), cpus);
        true
    });
    assert!(accepted > 0);
}

/// Mutants of `bases` parse as `T` to an `Err` or to a value whose
/// `Display` parses back to it; returns how many parsed.
fn round_trips<T: FromStr + Display + PartialEq + Debug>(seed: u64, bases: &[&str]) -> usize {
    fuzz(seed, bases, |text| {
        let Ok(v) = text.parse::<T>() else {
            return false;
        };
        assert_eq!(v.to_string().parse::<T>().ok(), Some(v), "{text:?}");
        true
    })
}

#[test]
fn option_value_mutants_are_rejected_or_round_trip() {
    let bases = [
        "latency",
        "contention",
        "contention:667,64,64",
        "contention:,32",
    ];
    let mut accepted = round_trips::<FabricModel>(0xFAB, &bases);
    accepted += round_trips::<LeasePolicy>(0x1EA5E, &["static", "static:2", "queue-depth:1,4"]);
    let bases = ["static", "adaptive", "distance", "distance:8,4"];
    accepted += round_trips::<ChunkPolicy>(0xC4, &bases);
    let bases = ["immediate", "hierarchical", "periodic", "periodic:32"];
    accepted += round_trips::<BoundPolicy>(0xB0, &bases);
    let bases = ["exhaustive", "first-solution", "first_solution", "first"];
    accepted += round_trips::<SearchMode>(0x5EA, &bases);
    assert!(accepted > 0);
}

#[test]
fn shape_mutants_are_rejected_or_valid() {
    let accepted = fuzz(
        0x5A,
        &["2x2x4", "2x2x4:1", "16", "4x8:0", "2x2x2x2:3"],
        |text| {
            let Ok(topo) = parse_shape(text) else {
                return false;
            };
            let shape = topo.shape();
            assert!(
                !shape.is_empty() && shape.iter().all(|&e| e > 0),
                "{text:?}"
            );
            assert!(topo.node_prefix() <= topo.levels(), "{text:?}");
            let total = shape.iter().try_fold(1usize, |t, &e| t.checked_mul(e));
            assert_eq!(total, Some(topo.total_workers()), "{text:?}");
            // Display names the levels; with the prefix appended it is the
            // `--shape` spelling again.
            let shown = topo.to_string();
            let dims = shown.split(' ').next().unwrap();
            let back =
                parse_shape(&format!("{dims}:{}", topo.node_prefix())).expect("re-emitted shape");
            assert_eq!(back, topo, "{text:?}");
            true
        },
    );
    assert!(accepted > 0);
}

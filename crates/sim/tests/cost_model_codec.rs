//! The cost-model codec: `parse ∘ emit = id` on seeded random models, a
//! typed rejection for every way a file can be wrong, a pinned golden
//! file (so the on-disk format can only change deliberately), and the
//! acceptance check that a loaded model reproducing the default
//! constants is *bit-identical* in behaviour — same determinism digest,
//! same event trace.

use std::path::Path;

use macs_core::{CpProcessor, SearchMode};
use macs_problems::{queens, QueensModel};
use macs_sim::{
    simulate_macs, ContentionParams, CostModel, CostModelError, FabricModel, NodeCost, SimConfig,
    MAX_PRICE,
};
use macs_topo::MachineTopology;

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
}

fn random_model(rng: &mut Rng) -> CostModel {
    CostModel {
        node: NodeCost {
            ns: rng.next() % 100_000,
            jitter_pct: (rng.next() % 101) as u8,
        },
        pool_op_ns: rng.next() % 10_000,
        release_ns: rng.next() % 10_000,
        steal_local_ns: rng.next() % 10_000,
        per_item_ns: rng.next() % 1_000,
        poll_ns: rng.next() % 1_000,
        find_remote_ns: rng.next() % 100_000,
        post_request_ns: rng.next() % 100_000,
        write_response_ns: rng.next() % 10_000,
        remote_latency_ns: rng.next() % 1_000_000,
        level_hop_factor: 1 + rng.next() % 8,
        cross_level_ns: rng.next() % 10_000,
        byte_ps: rng.next() % 100_000,
        ctrl_bytes: rng.next() % 4_096,
        header_bytes: rng.next() % 4_096,
        idle_backoff_ns: rng.next() % 100_000,
    }
}

#[test]
fn parse_emit_is_identity_on_random_models() {
    let mut rng = Rng(0xC057);
    for _ in 0..200 {
        let m = random_model(&mut rng);
        let text = m.to_string();
        let back: CostModel = text.parse().expect("canonical emit must parse");
        assert_eq!(back, m, "parse ∘ emit = id");
        // And the emit itself is stable (canonical form is a fixpoint).
        assert_eq!(back.to_string(), text);
    }
}

#[test]
fn golden_file_is_pinned_and_loads_to_the_default() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/default.cost");
    let loaded = CostModel::load(&path).expect("golden file must load");
    assert_eq!(
        loaded,
        CostModel::default(),
        "golden file drifted from the built-in defaults"
    );
    // The canonical emit *is* the golden file: the on-disk format can
    // only change by touching both this file and the codec.
    let text = std::fs::read_to_string(&path).unwrap();
    assert_eq!(CostModel::default().to_string(), text);
}

#[test]
fn comments_blanks_and_order_are_tolerated() {
    let text = "\n# a calibrated model\nmacs-cost-model v1\n\nbyte_ps = 667 # inline note\nnode = fixed:2000,20\npool_op_ns = 60\nrelease_ns = 650\nsteal_local_ns = 400\nper_item_ns = 40\npoll_ns = 50\nfind_remote_ns = 2000\npost_request_ns = 2500\nwrite_response_ns = 300\nremote_latency_ns = 2000\nlevel_hop_factor = 4\ncross_level_ns = 150\nctrl_bytes = 64\nheader_bytes = 64\nidle_backoff_ns = 500\n";
    let m: CostModel = text.parse().expect("free-form order/comments parse");
    assert_eq!(m, CostModel::default());
}

#[test]
fn rejections_are_typed() {
    // No header.
    assert_eq!(
        "node = fixed:1,1".parse::<CostModel>(),
        Err(CostModelError::MissingHeader)
    );
    // Unknown key.
    let text = "macs-cost-model v1\nwarp_factor = 9\n";
    assert!(matches!(
        text.parse::<CostModel>(),
        Err(CostModelError::UnknownKey { line: 2, ref key }) if key == "warp_factor"
    ));
    // Duplicate key.
    let text = "macs-cost-model v1\npoll_ns = 1\npoll_ns = 2\n";
    assert!(matches!(
        text.parse::<CostModel>(),
        Err(CostModelError::DuplicateKey { line: 3, .. })
    ));
    // Negative latency: a *typed* rejection, not a generic parse error.
    let text = "macs-cost-model v1\npoll_ns = -5\n";
    assert!(matches!(
        text.parse::<CostModel>(),
        Err(CostModelError::NegativeValue { line: 2, ref value, .. }) if value == "-5"
    ));
    // Unparseable value.
    let text = "macs-cost-model v1\npoll_ns = fast\n";
    assert!(matches!(
        text.parse::<CostModel>(),
        Err(CostModelError::BadValue { line: 2, .. })
    ));
    // A node-cost kind that is not `fixed` (the wall-clock `measured`
    // kind is gone: the simulator reads no host clock).
    let text = "macs-cost-model v1\nnode = measured:1,2\n";
    assert!(matches!(
        text.parse::<CostModel>(),
        Err(CostModelError::BadValue { line: 2, ref key, ref value })
            if key == "node" && value == "measured:1,2"
    ));
    // Not key = value at all.
    let text = "macs-cost-model v1\njust some words\n";
    assert!(matches!(
        text.parse::<CostModel>(),
        Err(CostModelError::BadLine { line: 2, .. })
    ));
    // Missing field: drop idle_backoff_ns from the golden text.
    let full = CostModel::default().to_string();
    let trimmed: String = full
        .lines()
        .filter(|l| !l.starts_with("idle_backoff_ns"))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(
        trimmed.parse::<CostModel>(),
        Err(CostModelError::MissingField {
            key: "idle_backoff_ns"
        })
    );
    // Missing node line.
    let no_node: String = full
        .lines()
        .filter(|l| !l.starts_with("node"))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(
        no_node.parse::<CostModel>(),
        Err(CostModelError::MissingField { key: "node" })
    );
    // Loading a missing path is Io, not a panic.
    assert!(matches!(
        CostModel::load(Path::new("/no/such/model.cost")),
        Err(CostModelError::Io { .. })
    ));
}

#[test]
fn save_load_round_trips_through_disk() {
    let mut rng = Rng(0x5A7E);
    let path = std::env::temp_dir().join(format!("macs-cost-rt-{}.cost", std::process::id()));
    for _ in 0..8 {
        let m = random_model(&mut rng);
        m.save(&path).unwrap();
        assert_eq!(CostModel::load(&path).unwrap(), m);
    }
    std::fs::remove_file(&path).ok();
}

/// The acceptance criterion: a loaded model whose values match the old
/// constants reproduces the default behaviour *bit-identically* — the
/// determinism digest and event-trace hash of a simulated run cannot
/// tell the two apart.
#[test]
fn loaded_default_model_is_digest_identical() {
    let prob = queens(9, QueensModel::Pairwise);
    let run = |costs: CostModel| {
        let topo = MachineTopology::try_new(&[4, 2, 2], 1).unwrap();
        let cfg = SimConfig::new(topo).with_cost_model(costs);
        simulate_macs(
            &cfg,
            prob.layout.store_words(),
            &[prob.root.as_words().to_vec()],
            |_| CpProcessor::new(&prob, 1, SearchMode::Exhaustive),
        )
    };
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/default.cost");
    let baseline = run(CostModel::default());
    let loaded = run(CostModel::load(&path).unwrap());
    assert_eq!(baseline.digest(), loaded.digest(), "digest must not move");
    assert_eq!(baseline.makespan_ns, loaded.makespan_ns);
    assert_eq!(baseline.total_solutions(), loaded.total_solutions());
}

/// Every price at [`MAX_PRICE`] — the largest model a file can hold —
/// still simulates to the end without wrapping the virtual clock, and
/// finds every solution, also under the contention fabric, whose derived prices (per-level latency,
/// link serialization of a ceiling-sized header) would overflow unclamped.
#[test]
fn a_model_at_the_ceiling_simulates_to_completion() {
    let text = CostModel::default()
        .to_string()
        .lines()
        .map(|l| match l.split_once(" = ") {
            Some(("node", _)) => format!("node = fixed:{MAX_PRICE},100"),
            Some((key, _)) => format!("{key} = {MAX_PRICE}"),
            None => l.to_string(),
        })
        .collect::<Vec<_>>()
        .join("\n");
    let costs: CostModel = text.parse().expect("the ceiling itself is accepted");
    let prob = queens(6, QueensModel::Pairwise);
    let contention = FabricModel::Contention(ContentionParams::default());
    // Two nodes; then two clusters of two nodes, where a steal crosses
    // two remote levels.
    let cells = [
        (&[2, 2][..], 1, FabricModel::Latency),
        (&[2, 2, 2], 2, contention),
    ];
    for (shape, node_prefix, fabric) in cells {
        let topo = MachineTopology::try_new(shape, node_prefix).unwrap();
        let mut cfg = SimConfig::new(topo).with_cost_model(costs);
        cfg.fabric = fabric;
        let report = simulate_macs(
            &cfg,
            prob.layout.store_words(),
            &[prob.root.as_words().to_vec()],
            |_| CpProcessor::new(&prob, 1, SearchMode::Exhaustive),
        );
        assert_eq!(report.total_solutions(), 4, "{shape:?}");
        assert!(report.makespan_ns >= MAX_PRICE);
    }
}

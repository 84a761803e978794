//! The virtual-time perf records: `--sim` → `BENCH_8.json`, `--service` →
//! `BENCH_9.json`, `--calibration` → `BENCH_10.json` (`--help` says what
//! each measures and gates). Wall-clock speed — a solve, a service drain,
//! the per-layer ladder — is `benchmark/run.sh`'s job, against the parent
//! commit; these three stay because their gated values do not depend on
//! the host.
//!
//! Every mode fills one [`Record`] — rows of named values plus the gated
//! keys, each carrying its [`Gate`] — which [`write_json`] renders and
//! [`check`] holds against a committed file. Simulated points are re-run
//! with the same seed where the budget allows; a trace or digest
//! divergence is a hard failure, and `--check` holds each re-measured
//! point's trace hash or digest to the committed row's, bit for bit.

use std::time::Instant;

use macs_bench::{arg, cost_model_arg, maybe_help, sim_cp_macs, usage};
use macs_gpi::MachineTopology;
use macs_problems::{qap::QapInstance, qap_model, queens, QueensModel};
use macs_service::{
    generate, JobScheduler, LeasePolicy, Oracle, ServiceConfig, SimBackend, WorkloadConfig,
};
use macs_sim::{simulate_macs, CostModel, FabricModel, SimConfig, SimReport};
use macs_uts::{TreeShape, UtsProcessor, SLOT_WORDS};

// The repo's one JSON value (writer and reader) lives with the benchmark.
#[allow(dead_code)]
#[path = "../../../../benchmark/src/json.rs"]
mod json;
use json::Json;

// --- the record: rows, gated keys, one writer, one comparator ----------------

type Row = Vec<(&'static str, Json)>;

fn int(n: u64) -> Json {
    Json::Num(n as f64)
}

/// A float recorded to `decimals` places.
fn fixed(x: f64, decimals: i32) -> Json {
    let scale = 10f64.powi(decimals);
    Json::Num((x * scale).round() / scale)
}

fn hex(h: u64) -> Json {
    Json::str(format!("{h:#018x}"))
}

/// How a measured value is held against the recorded one.
#[derive(Clone, Copy)]
enum Gate {
    /// measured ≥ factor × recorded (a ratio must not regress).
    Floor(f64),
    /// |measured − recorded| ≤ tolerance (a deterministic value must not drift).
    Drift(f64),
}

impl Gate {
    fn holds(self, measured: f64, recorded: f64) -> bool {
        match self {
            Gate::Floor(factor) => measured >= recorded * factor,
            Gate::Drift(tolerance) => (measured - recorded).abs() <= tolerance,
        }
    }
}

struct Gated {
    key: String,
    value: f64,
    gate: Gate,
}

fn gated(key: String, value: f64, gate: Gate) -> Gated {
    Gated { key, value, gate }
}

struct Record {
    /// `BENCH_<n>`: the committed file's stem and its `"record"` field.
    name: &'static str,
    mode: &'static str,
    note: &'static str,
    meta: Row,
    rows: Vec<Row>,
    gated: Vec<Gated>,
}

/// The one envelope all three records share.
fn write_json(rec: &Record, quick: bool) -> String {
    let rows = rec.rows.iter().map(|r| Json::obj(r.iter().cloned()));
    let gated = rec
        .gated
        .iter()
        .map(|g| (g.key.as_str(), fixed(g.value, 3)));
    Json::obj([
        ("record", Json::str(rec.name)),
        ("bin", Json::str(format!("perf_record {}", rec.mode))),
        ("quick", Json::Bool(quick)),
        ("note", Json::str(rec.note)),
        ("meta", Json::obj(rec.meta.iter().cloned())),
        ("rows", Json::Arr(rows.collect())),
        ("gated", Json::obj(gated)),
    ])
    .pretty()
}

/// What a deterministic replay must reproduce exactly: the row field
/// holding the run's identity, and the fields that name the row.
const PINNED: [(&str, &[&str]); 2] = [
    ("trace_hash", &["workload", "cores", "fabric"]),
    ("digest", &["cores", "policy"]),
];

/// Hold every measured row's pinned identity against the recorded row of
/// the same key: any difference means the run no longer replays the
/// recorded behaviour. A row the record lacks is reported and skipped.
fn check_pinned(rows: &[Row], recorded: &[Json], failures: &mut Vec<String>) {
    let field =
        |row: &Row, name: &str| row.iter().find(|(k, _)| *k == name).map(|(_, v)| v.clone());
    for row in rows {
        let Some((pin, hash, keys)) = PINNED
            .iter()
            .find_map(|&(pin, keys)| Some((pin, field(row, pin)?, keys)))
        else {
            continue;
        };
        let key: Vec<Option<Json>> = keys.iter().map(|k| field(row, k)).collect();
        let label = key
            .iter()
            .flatten()
            .map(Json::compact)
            .collect::<Vec<_>>()
            .join(" ");
        let same_key = |r: &&Json| keys.iter().zip(&key).all(|(k, v)| r.get(k) == v.as_ref());
        match recorded.iter().find(same_key).and_then(|r| r.get(pin)) {
            None => eprintln!("check: no {pin} for {label} in the record (skipped)"),
            Some(r) if *r == hash => eprintln!("check ok: {pin} of {label} = {}", r.compact()),
            Some(r) => failures.push(format!(
                "{pin} of {label} is {}, the record pins {}: not the recorded behaviour",
                hash.compact(),
                r.compact()
            )),
        }
    }
}

/// Hold the measured gated keys, and the measured rows' pinned hashes,
/// against the committed record `text`. A key or row the record lacks is
/// skipped (a full run checked against a quick record measures more than
/// was recorded), but a check that compared nothing, a record of another
/// mode, or a malformed record all fail.
fn check(name: &str, measured: &[Gated], rows: &[Row], text: &str) -> Result<usize, String> {
    let doc = Json::parse(text)?;
    let recorded_name = doc.get("record");
    if recorded_name != Some(&Json::str(name)) {
        return Err(format!(
            "this mode measures {name:?}, not {recorded_name:?}"
        ));
    }
    let recorded = doc.get("gated").ok_or("record has no \"gated\" object")?;
    let (mut compared, mut failures) = (0, Vec::new());
    if let Some(Json::Arr(recorded_rows)) = doc.get("rows") {
        check_pinned(rows, recorded_rows, &mut failures);
    }
    for g in measured {
        let r = match recorded.get(&g.key) {
            None => {
                eprintln!("check: no \"{}\" in the record (skipped)", g.key);
                continue;
            }
            Some(v) => v
                .as_f64()
                .ok_or_else(|| format!("recorded \"{}\" is not a number", g.key))?,
        };
        compared += 1;
        if g.gate.holds(g.value, r) {
            eprintln!("check ok: {} = {:.3} (recorded {r:.3})", g.key, g.value);
        } else {
            let bound = match g.gate {
                Gate::Floor(f) => format!("fell below {f}x the recorded {r:.3}"),
                Gate::Drift(d) => format!("drifted from the recorded {r:.3} by more than {d}"),
            };
            failures.push(format!("{} = {:.3} {bound}", g.key, g.value));
        }
    }
    if compared == 0 {
        failures.push("no gated key of this run is in the record: nothing was compared".into());
    }
    failures
        .is_empty()
        .then_some(compared)
        .ok_or_else(|| failures.join("\n"))
}

// --- --sim: events/sec + peak RSS per scale point ----------------------------

/// Process-lifetime peak RSS in kB (`VmHWM`), 0 where /proc is absent.
/// Monotone over the process: callers run scale points smallest-first so
/// each reading approximates that point's own peak.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Simulate one point `runs`× with the same seed (every repetition must
/// replay bit-identically): its row, timed by the fastest repetition, and
/// its events/sec.
fn sim_point<O>(
    kind: &str,
    workload: &str,
    cfg: &SimConfig,
    runs: u32,
    simulate: impl Fn(&SimConfig) -> SimReport<O>,
) -> (Row, f64) {
    let cores = cfg.topology.total_workers();
    eprintln!(
        "sim: {workload} @ {cores} cores, {} ({runs} run(s))...",
        cfg.fabric
    );
    let (mut report, mut wall) = (None::<SimReport<O>>, f64::INFINITY);
    for _ in 0..runs {
        // Keep only the identity of the previous repetition: its report
        // must not sit in this repetition's peak RSS.
        let seen = report.take().map(|r| (r.trace_hash, r.digest()));
        let t0 = Instant::now();
        let r = simulate(cfg);
        wall = wall.min(t0.elapsed().as_secs_f64());
        assert!(
            seen.is_none_or(|id| id == (r.trace_hash, r.digest())),
            "NON-DETERMINISTIC: {workload} @ {cores} {} diverged between same-seed runs",
            cfg.fabric
        );
        report = Some(r);
    }
    let r = report.expect("at least one run");
    let rate = r.events as f64 / wall;
    let rss = peak_rss_kb();
    eprintln!(
        "     {rate:.0} events/s, wall {wall:.1}s, peak RSS {} MB",
        rss / 1024
    );
    let row = vec![
        ("kind", Json::str(kind)),
        ("workload", Json::str(workload)),
        ("cores", int(cores as u64)),
        ("fabric", Json::str(cfg.fabric.to_string())),
        ("nodes", int(r.total_items())),
        ("events", int(r.events)),
        ("events_per_sec", fixed(rate, 0)),
        ("wall_s", fixed(wall, 2)),
        ("makespan_ms", fixed(r.makespan_ns as f64 / 1e6, 3)),
        ("peak_rss_kb", int(rss)),
        ("peak_live_items", int(r.peak_live_items)),
        ("trace_hash", hex(r.trace_hash)),
        ("determinism_runs", int(runs as u64)),
    ];
    (row, rate)
}

fn sim_record(quick: bool) -> Record {
    const BASE_CORES: usize = 4_096;
    let scales: &[usize] = if quick {
        &[BASE_CORES, 65_536]
    } else {
        &[BASE_CORES, 65_536, 131_072, 262_144]
    };
    let cluster = |cores: usize, costs: CostModel, fabric: FabricModel| {
        let mut cfg = SimConfig::new(MachineTopology::clustered(cores, 4)).with_cost_model(costs);
        cfg.fabric = fabric;
        cfg
    };
    let contention: FabricModel = "contention".parse().expect("the default contention model");
    let q14 = queens(14, QueensModel::Pairwise);

    // Gated: events/sec at each point over the same-model base. Both
    // sides move with the host, so the ratio is machine-independent.
    let (mut rows, mut gates) = (Vec::new(), Vec::new());
    let mut base_rate = [0.0f64; 2];
    for &cores in scales {
        for (base, fabric) in base_rate.iter_mut().zip([FabricModel::Latency, contention]) {
            // The same-seed double-run pins determinism where the test
            // suite stops (it covers up to 32k); the contention model is
            // double-checked at the base point only — the big points'
            // budget goes to the latency series.
            let once = fabric.is_contention() && cores > BASE_CORES && !quick;
            let runs = if once { 1 } else { 2 };
            let cfg = cluster(cores, CostModel::paper_queens(), fabric);
            let run = |c: &SimConfig| sim_cp_macs(&q14, c);
            let (row, rate) = sim_point("scale_point", "queens-14", &cfg, runs, run);
            rows.push(row);
            if cores == BASE_CORES {
                *base = rate;
            } else {
                let key = format!("{fabric}_{cores}_vs_base");
                gates.push(gated(key, rate / base.max(1.0), Gate::Floor(0.9)));
            }
        }
    }

    // Completeness rows at 64k: the other two workload families the event
    // core must carry (recorded, not gated — different cost models).
    if !quick {
        let esc = qap_model(&QapInstance::esc16e().sub_instance(11));
        let cfg = cluster(65_536, CostModel::paper_qap(), FabricModel::Latency);
        let run = |c: &SimConfig| sim_cp_macs(&esc, c);
        rows.push(sim_point("completeness_64k", "esc16e11", &cfg, 1, run).0);
        let seed = 3u32;
        let shape = TreeShape::medium_bin(seed);
        let cfg = cluster(65_536, CostModel::woodcrest_ib(1_500), FabricModel::Latency);
        let root = [UtsProcessor::root_item(seed)];
        let run = |c: &SimConfig| simulate_macs(c, SLOT_WORDS, &root, |_| UtsProcessor::new(shape));
        rows.push(sim_point("completeness_64k", "uts-bin", &cfg, 1, run).0);
    }

    let host_par = std::thread::available_parallelism().map_or(1, |n| n.get());
    Record {
        name: "BENCH_8",
        mode: "--sim",
        note: "absolute events/sec and RSS are machine-dependent; the gated ratios (each point's events/sec over the same fabric's base_cores point) are the tracked trajectory. VmHWM is a process-lifetime high-water mark — points run smallest-first so each row approximates its own peak.",
        meta: vec![
            ("available_parallelism", int(host_par as u64)),
            ("base_cores", int(BASE_CORES as u64)),
        ],
        rows,
        gated: gates,
    }
}

// --- --calibration: calibrated vs default speedup curves ---------------------

/// The calibrated model the record is pinned against: a real artifact of
/// running the `calibrate` bin on a dev host. `--cost-model` overrides it.
const COMMITTED_MODEL: &str = "crates/bench/data/calibrated_host.cost";

/// Each workload at every width of a flat 2–32-core host under both the
/// default constants and the calibrated model; gated is the per-width
/// relative error between the two speedup curves. All virtual time, so
/// the tolerance absorbs intentional cost-charging changes, not noise.
fn calibration_record(quick: bool) -> Record {
    let calibrated = cost_model_arg().unwrap_or_else(|| {
        include_str!("../../data/calibrated_host.cost")
            .parse()
            .unwrap_or_else(|e| panic!("the committed model {COMMITTED_MODEL} is malformed: {e}"))
    });
    let widths: &[usize] = if quick { &[2, 8] } else { &[2, 4, 8, 16, 32] };
    let workloads = [
        ("queens11", queens(11, QueensModel::Pairwise)),
        ("esc16e9", qap_model(&QapInstance::esc16e().sub_instance(9))),
    ];
    let (mut rows, mut gates) = (Vec::new(), Vec::new());
    for (name, prob) in &workloads {
        // The host-shaped case: one shared-memory node, flat.
        let makespan = |p: usize, costs: CostModel| {
            let cfg = SimConfig::new(MachineTopology::flat(p)).with_cost_model(costs);
            sim_cp_macs(prob, &cfg).makespan_ns.max(1) as f64
        };
        let (mut base_def, mut base_cal) = (0.0, 0.0);
        for &p in widths {
            let (def, cal) = (makespan(p, CostModel::default()), makespan(p, calibrated));
            if p == widths[0] {
                (base_def, base_cal) = (def, cal);
            }
            let (s_def, s_cal) = (base_def / def, base_cal / cal);
            let err = (s_cal / s_def - 1.0).abs();
            rows.push(vec![
                ("workload", Json::str(*name)),
                ("cores", int(p as u64)),
                ("makespan_default_ms", fixed(def / 1e6, 3)),
                ("makespan_calibrated_ms", fixed(cal / 1e6, 3)),
                ("speedup_default", fixed(s_def, 3)),
                ("speedup_calibrated", fixed(s_cal, 3)),
                ("err", fixed(err, 3)),
            ]);
            gates.push(gated(format!("err_{name}_{p}"), err, Gate::Drift(0.05)));
        }
    }
    Record {
        name: "BENCH_10",
        mode: "--calibration",
        note: "speedup curves of the simulator under the committed calibrated model vs the built-in defaults, per width of a flat 2-32-core host prefix; every number is virtual-time and bit-deterministic, so the record is machine-independent. err = |S_cal/S_def - 1| per point.",
        meta: vec![("model", Json::str(arg("cost-model", COMMITTED_MODEL.to_string())))],
        rows,
        gated: gates,
    }
}

// --- --service: lease policies under load ------------------------------------

/// Serve one trace at one scale under one policy, twice with the same
/// seed (it must replay bit-identically), hard-gating the scheduler
/// invariants and the oracle: the row, jobs completed, peak queue depth.
fn service_point(
    (nodes, tenants, jobs): (usize, usize, usize),
    policy: LeasePolicy,
    oracle: &mut Oracle,
) -> (Row, u64, usize) {
    let cores = nodes * 4;
    eprintln!("service: {cores} cores, {tenants} tenants, {jobs} jobs, {policy}...");
    let trace = generate(&WorkloadConfig {
        jobs,
        tenants,
        mean_interarrival_ns: 5_000,
        seed: 0x9E1_5EED ^ ((nodes as u64) << 32) ^ jobs as u64,
    });
    let cfg = ServiceConfig {
        nodes,
        cores_per_node: 4,
        queue_cap: (jobs / 4).max(4),
        policy,
        cost_model: Default::default(),
    };
    let t0 = Instant::now();
    let r = SimBackend::default().serve(&cfg, &trace);
    let wall = t0.elapsed().as_secs_f64();
    assert_eq!(
        r.digest(),
        SimBackend::default().serve(&cfg, &trace).digest(),
        "NON-DETERMINISTIC: service @ {cores} cores {policy} diverged between same-seed runs"
    );
    assert!(
        r.violations.is_empty(),
        "service @ {cores} cores {policy}: {:?}",
        r.violations
    );
    for rec in r.records.iter().filter(|rec| !rec.rejected) {
        oracle
            .verify(rec.class, &rec.answer)
            .unwrap_or_else(|e| panic!("service @ {nodes} nodes job {}: {e}", rec.id));
    }
    let row = vec![
        ("cores", int(cores as u64)),
        ("tenants", int(tenants as u64)),
        ("jobs", int(jobs as u64)),
        ("policy", Json::str(policy.to_string())),
        ("completed", int(r.completed())),
        ("rejected", int(r.rejected())),
        ("throughput_per_sec", fixed(r.throughput_per_sec(), 1)),
        ("p50_ns", int(r.sojourn_percentile_ns(50.0))),
        ("p99_ns", int(r.sojourn_percentile_ns(99.0))),
        ("p999_ns", int(r.sojourn_percentile_ns(99.9))),
        ("max_queue_depth", int(r.max_queue_depth as u64)),
        ("fairness", fixed(r.fairness_ratio(), 3)),
        ("makespan_ms", fixed(r.makespan_ns as f64 / 1e6, 3)),
        ("wall_s", fixed(wall, 2)),
        ("digest", hex(r.digest())),
    ];
    (row, r.completed(), r.max_queue_depth)
}

fn service_record(quick: bool) -> Record {
    // (nodes, tenants, jobs): 32 → 512 simulated cores; the last point is
    // the 512-core × 64-tenant acceptance cell. Quick mode runs the end
    // points of the same series — the cells must be identical to the full
    // record's, or the (deterministic) ratios would differ by design.
    let scales: &[(usize, usize, usize)] = if quick {
        &[(8, 8, 32), (128, 64, 96)]
    } else {
        &[(8, 8, 32), (32, 16, 48), (128, 64, 96)]
    };
    let mut oracle = Oracle::new();
    let (mut rows, mut gates) = (Vec::new(), Vec::new());
    for &scale in scales {
        let (nodes, cores) = (scale.0, scale.0 * 4);
        let lease = LeasePolicy::Static {
            nodes: (nodes / 4).max(1),
        };
        let elastic = LeasePolicy::QueueDepth { min: 1, max: nodes };
        let (s_row, s_completed, s_depth) = service_point(scale, lease, &mut oracle);
        let (e_row, e_completed, e_depth) = service_point(scale, elastic, &mut oracle);
        rows.extend([s_row, e_row]);
        // Jobs the machine actually served: elastic admission over static
        // (≥ 1 when elasticity absorbs the burst).
        let served = e_completed as f64 / (s_completed as f64).max(1.0);
        gates.push(gated(
            format!("served_elastic_vs_static_{cores}"),
            served,
            Gate::Floor(0.9),
        ));
        // Worst-case queueing: static peak depth over elastic.
        let depth = s_depth as f64 / (e_depth as f64).max(1.0);
        gates.push(gated(
            format!("queue_depth_static_vs_elastic_{cores}"),
            depth,
            Gate::Floor(0.9),
        ));
    }
    Record {
        name: "BENCH_9",
        mode: "--service",
        note: "all throughput/sojourn/queue numbers are virtual-time quantities of the bit-deterministic service simulator; only wall_s is machine-dependent. The tracked trajectory is the elastic/static ratio set.",
        meta: Vec::new(),
        rows,
        gated: gates,
    }
}

type Mode = (&'static str, fn(bool) -> Record);
const MODES: &[Mode] = &[
    ("--sim", sim_record),
    ("--service", service_record),
    ("--calibration", calibration_record),
];

fn main() {
    let u = usage(
        "perf_record",
        "records the three machine-independent perf trajectories (wall-clock\n\
         speed is benchmark/run.sh's job). Exactly one mode flag is required.",
        &[
            (
                "--sim",
                "BENCH_8: simulator events/sec + peak RSS per scale point, 4k to\n\
                 262k simulated cores; gated: each point's events/sec ratio vs\n\
                 the 4096-core base (floor 0.9x)",
            ),
            (
                "--service",
                "BENCH_9: lease-policy throughput/sojourn at 32 to 512 simulated\n\
                 cores; gated: the elastic/static ratios (floor 0.9x)",
            ),
            (
                "--calibration",
                "BENCH_10: speedup curves under the committed calibrated cost\n\
                 model (or --cost-model) vs the defaults; gated: the per-width\n\
                 curve error (absolute drift 0.05)",
            ),
            (
                "--out <FILE>",
                "where to write the record [default: BENCH_<n>.json]",
            ),
            (
                "--check <FILE>",
                "measure, then compare the gated keys against a committed record\n\
                 instead of writing one; exit 1 on a regression, a record of\n\
                 another mode, or when nothing could be compared",
            ),
            (
                "--quick",
                "CI smoke: the 4k and 64k points with --sim, the 32- and 512-core\n\
                 points with --service, the 2- and 8-core widths with --calibration",
            ),
        ],
        &[macs_bench::CommonFlag::CostModel],
    );
    maybe_help(&u);
    let chosen: Vec<_> = MODES
        .iter()
        .filter(|(flag, _)| std::env::args().any(|a| a == *flag))
        .collect();
    let [(_, measure)] = chosen[..] else {
        eprintln!("exactly one of --sim, --service, --calibration is required\n\n{u}");
        std::process::exit(2);
    };
    let quick = std::env::args().any(|a| a == "--quick");
    let rec = measure(quick);
    let json = write_json(&rec, quick);
    print!("{json}");
    let check_path: String = arg("check", String::new());
    if check_path.is_empty() {
        let out_path = arg("out", format!("{}.json", rec.name));
        std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
        eprintln!("wrote {out_path}");
        return;
    }
    let text = std::fs::read_to_string(&check_path).map_err(|e| e.to_string());
    match text.and_then(|text| check(rec.name, &rec.gated, &rec.rows, &text)) {
        Ok(n) => eprintln!("check passed: {n} gated key(s) within bounds of {check_path}"),
        Err(e) => {
            eprintln!("check FAILED against {check_path}:\n{e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A committed record holding `gated`, and a run that measured `measured`.
    fn run(
        recorded: &[(&str, f64)],
        measured: &[(&str, f64)],
        gate: Gate,
    ) -> Result<usize, String> {
        let keyed = |kv: &[(&str, f64)]| {
            kv.iter()
                .map(|(k, v)| gated(k.to_string(), *v, gate))
                .collect()
        };
        let rec = Record {
            name: "BENCH_T",
            mode: "--test",
            note: "a \"quoted\" note",
            meta: Vec::new(),
            rows: vec![vec![("digest", hex(7))]],
            gated: keyed(recorded),
        };
        let measured: Vec<Gated> = keyed(measured);
        check("BENCH_T", &measured, &[], &write_json(&rec, true))
    }

    #[test]
    fn a_one_nibble_hash_change_fails_and_a_missing_row_is_skipped() {
        let sim = |cores: u64, hash: u64| -> Row {
            vec![
                ("workload", Json::str("queens-14")),
                ("cores", int(cores)),
                ("fabric", Json::str("latency")),
                ("trace_hash", hex(hash)),
            ]
        };
        let service = |policy: &str, hash: u64| -> Row {
            vec![
                ("cores", int(32)),
                ("policy", Json::str(policy)),
                ("digest", hex(hash)),
            ]
        };
        let rec = Record {
            name: "BENCH_T",
            mode: "--test",
            note: "",
            meta: Vec::new(),
            rows: vec![
                sim(4096, 0xeb21_0518_25bf_419f),
                service("static:2", 0x8311),
            ],
            gated: vec![gated("r".into(), 1.0, Gate::Floor(0.9))],
        };
        let text = write_json(&rec, true);
        let run = |rows: &[Row]| check("BENCH_T", &rec.gated, rows, &text);
        assert_eq!(run(&rec.rows), Ok(1), "the recorded hashes reproduce");
        let err = run(&[sim(4096, 0xeb21_0518_25bf_419e)]).unwrap_err();
        assert!(err.contains("trace_hash") && err.contains("4096"), "{err}");
        assert!(run(&[service("static:2", 0x8312)]).is_err());
        // Rows the record does not hold — another scale, another policy —
        // are reported and skipped, like a gated key it lacks.
        assert_eq!(run(&[sim(65_536, 1), service("queue-depth:1,8", 2)]), Ok(1));
    }

    #[test]
    fn floor_gate_allows_a_tenth_below_and_anything_above() {
        for (measured, ok) in [(1.81, true), (5.0, true), (1.79, false)] {
            let got = run(&[("r", 2.0)], &[("r", measured)], Gate::Floor(0.9));
            assert_eq!(got.is_ok(), ok, "{measured}: {got:?}");
        }
    }

    #[test]
    fn drift_gate_is_two_sided() {
        for (measured, ok) in [(0.15, true), (0.16, false), (0.05, false)] {
            let got = run(&[("e", 0.106)], &[("e", measured)], Gate::Drift(0.05));
            assert_eq!(got.is_ok(), ok, "{measured}: {got:?}");
        }
    }

    #[test]
    fn a_key_the_record_lacks_is_skipped_but_zero_compared_fails() {
        let floor = Gate::Floor(0.9);
        assert_eq!(run(&[("a", 1.0)], &[("a", 1.0), ("b", 0.0)], floor), Ok(1));
        assert!(run(&[("a", 1.0)], &[("b", 0.0)], floor).is_err());
        assert!(run(&[], &[("a", 1.0)], floor).is_err());
    }

    #[test]
    fn wrong_record_name_and_malformed_records_fail() {
        let m = [gated("a".into(), 1.0, Gate::Floor(0.9))];
        let good = "{\"record\": \"BENCH_T\", \"gated\": {\"a\": 1.0}}";
        let check = |name, text: &str| check(name, &m, &[], text);
        assert_eq!(check("BENCH_T", good), Ok(1));
        assert!(check("BENCH_8", good).is_err());
        assert!(check("BENCH_T", &good.replace("1.0", "1.0.0")).is_err());
        assert!(check("BENCH_T", &good.replace("1.0", "\"fast\"")).is_err());
        assert!(check("BENCH_T", &good[..good.len() - 2]).is_err());
        assert!(check("BENCH_T", "{\"record\": \"BENCH_T\"}").is_err());
    }
}

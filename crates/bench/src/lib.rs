//! Shared harness code for the bins in `src/bin/`: flag parsing and
//! `--help` text, the paper's machine shapes, simulator drivers, the one
//! service cell both `perf_record --service` and `paper ablation_service`
//! serve, and the table printers of the `paper` bin (which regenerates
//! the tables, figures and ablations of the paper's evaluation, §IV–§VI,
//! on the discrete-event simulator). Wall-clock measurement lives in
//! `benchmark/`, not here.

use std::fmt::Display;
use std::str::FromStr;

use macs_core::{CpOutput, CpProcessor, SearchMode};
use macs_engine::CompiledProblem;
use macs_gpi::MachineTopology;
use macs_runtime::WorkerState;
use macs_search::{BoundPolicy, ChunkPolicy};
use macs_service::{
    generate, JobScheduler, LeasePolicy, Oracle, ServiceConfig, ServiceReport, SimBackend,
    WorkloadConfig,
};
use macs_sim::{simulate_macs, simulate_paccs, CostModel, FabricModel, SimConfig, SimReport};

/// The cross-bin flags, defined once so their wording is identical in
/// every bin's `--help` (before this helper each bin hand-rolled its
/// usage block and the common flags drifted). A bin lists exactly the
/// subset it actually parses — advertising a flag the bin ignores would
/// be worse than drift.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommonFlag {
    /// `--mode exhaustive|first-solution` (via [`mode_arg`]).
    Mode,
    /// `--shape AxBxC[:p]` (via [`shape_arg`]).
    Shape,
    /// `--bound-policy immediate|periodic[:k]|hierarchical` (via
    /// [`bound_policy_arg`]).
    BoundPolicy,
    /// `--chunk-policy static|distance[:base,factor]|adaptive` (via
    /// [`chunk_policy_arg`]).
    ChunkPolicy,
    /// `--fabric latency|contention[:PS[,CTRL[,HDR]]]` (via [`fabric_arg`]).
    Fabric,
    /// `--cost-model <path>` (via [`cost_model_arg`]).
    CostModel,
    /// `--detect-topo` (via [`sim_cell`]).
    DetectTopo,
    /// `--full` (via [`full_scale`] / [`core_series`]).
    Full,
    /// `--xl` (via [`xl_scale`] / [`xl_cells`]).
    Xl,
}

impl CommonFlag {
    fn row(self) -> (&'static str, &'static str) {
        match self {
            CommonFlag::Mode => (
                "--mode <M>",
                "search mode for every backend: exhaustive or\nfirst-solution (satisfaction instances race to\nthe first solution) [default: exhaustive]",
            ),
            CommonFlag::Shape => (
                "--shape AxBxC[:p]",
                "machine shape (levels outermost-first, `:p` =\nnode prefix, default 1)",
            ),
            CommonFlag::BoundPolicy => (
                "--bound-policy <P>",
                "bound dissemination for all backends: immediate,\nperiodic[:k] or hierarchical",
            ),
            CommonFlag::ChunkPolicy => (
                "--chunk-policy <P>",
                "steal-chunk granularity for all backends: static,\ndistance[:base,factor] (reservation scales with the\nthief's topological distance) or adaptive",
            ),
            CommonFlag::Fabric => (
                "--fabric <F>",
                "steal-plane message pricing for the simulator:\nlatency (flat per-ring) or contention[:PS[,CTRL[,HDR]]]\n(finite links, FIFO queueing) [default: latency]",
            ),
            CommonFlag::CostModel => (
                "--cost-model <path>",
                "load the simulator's protocol costs from a\n`macs-cost-model v1` file (see the calibrate bin)\ninstead of the built-in paper constants",
            ),
            CommonFlag::DetectTopo => (
                "--detect-topo",
                "simulate this host's detected topology (Linux\nsysfs; flat fallback elsewhere) instead of the\ndeclared shapes",
            ),
            CommonFlag::Full => ("--full", "paper-scale series (up to 512 simulated cores)"),
            CommonFlag::Xl => (
                "--xl",
                "64k-core cells on depth-5/6 shapes, with divergence\ngates (exit non-zero if the pinned shape inverts)",
            ),
        }
    }
}

/// Compose a bin's `--help` text: its own flags first, then the uniform
/// rows for whichever `--mode` / `--shape` / `--bound-policy` /
/// `--chunk-policy` / `--full` flags the bin parses, and `-h` —
/// identically formatted everywhere. Pass the result to [`maybe_help`].
pub fn usage(bin: &str, about: &str, extra: &[(&str, &str)], common: &[CommonFlag]) -> String {
    let common: Vec<(&str, &str)> = common.iter().map(|c| c.row()).collect();
    let width = extra
        .iter()
        .chain(common.iter())
        .map(|(flag, _)| flag.len())
        .max()
        .unwrap_or(0)
        .max("-h, --help".len());
    // `bin` may carry its positional part ("paper -- fig3").
    let name = bin.replace(" -- ", " ");
    let mut out = format!(
        "{name} — {about}\n\nUSAGE:\n    cargo run --release -p macs-bench --bin {bin} [OPTIONS]\n\nOPTIONS:\n"
    );
    let mut row = |flag: &str, desc: &str| {
        for (i, line) in desc.lines().enumerate() {
            if i == 0 {
                out.push_str(&format!("    {flag:<width$}  {line}\n"));
            } else {
                out.push_str(&format!("    {:<width$}  {line}\n", ""));
            }
        }
    };
    for (flag, desc) in extra.iter().chain(common.iter()) {
        row(flag, desc);
    }
    row("-h, --help", "this text");
    out
}

/// The paper's cluster shape: 4 cores per node; fewer than 4 cores means a
/// single node.
pub fn topo_for(cores: usize) -> MachineTopology {
    if cores >= 4 && cores.is_multiple_of(4) {
        MachineTopology::clustered(cores, 4)
    } else {
        MachineTopology::flat(cores)
    }
}

/// A hierarchical shape with the same total: `cores` workers arranged as
/// nodes × 2 sockets × 4 cores (node boundary at the outer level), for
/// the distance-aware experiments. Falls back to [`topo_for`]'s shape
/// when `cores` doesn't fill at least one 8-core node.
pub fn deep_topo_for(cores: usize) -> MachineTopology {
    if cores >= 8 && cores.is_multiple_of(8) {
        MachineTopology::try_new(&[cores / 8, 2, 4], 1).expect("valid deep shape")
    } else {
        topo_for(cores)
    }
}

/// Parse a `--shape` argument of the form `2x2x4` or `2x2x4:1`
/// (levels outermost-first, optional `:node_prefix`, default prefix 1).
/// All shape validation errors surface as readable messages, not panics.
pub fn parse_shape(s: &str) -> Result<MachineTopology, String> {
    let (dims, prefix) = match s.split_once(':') {
        Some((d, p)) => {
            let prefix = p
                .parse::<usize>()
                .map_err(|e| format!("bad node prefix {p:?} in shape {s:?}: {e}"))?;
            (d, prefix)
        }
        None => (s, 1),
    };
    let shape: Vec<usize> = dims
        .split('x')
        .map(|t| {
            t.parse::<usize>()
                .map_err(|e| format!("bad level extent {t:?} in shape {s:?}: {e}"))
        })
        .collect::<Result<_, _>>()?;
    MachineTopology::try_new(&shape, prefix).map_err(|e| format!("invalid shape {s:?}: {e}"))
}

/// The one flag parser: the value following `--name` in `args`, run
/// through `parse`. `Ok(None)` when the flag is absent; a missing or
/// rejected value is an `Err` naming the flag, the value and what was
/// expected — never a silent fall-back to a default.
fn find_arg<T, E: Display>(
    args: &[String],
    name: &str,
    parse: impl Fn(&str) -> Result<T, E>,
) -> Result<Option<T>, String> {
    let flag = format!("--{name}");
    let Some(i) = args.iter().position(|a| *a == flag) else {
        return Ok(None);
    };
    let Some(v) = args.get(i + 1) else {
        return Err(format!("{flag} needs a value (see --help)"));
    };
    parse(v).map(Some).map_err(|e| format!("{flag} {v:?}: {e}"))
}

/// [`find_arg`] over the process arguments: `None` when `--name` is
/// absent, exit code 2 with a readable message when its value is missing
/// or rejected.
fn parsed_arg<T, E: Display>(name: &str, parse: impl Fn(&str) -> Result<T, E>) -> Option<T> {
    let args: Vec<String> = std::env::args().collect();
    find_arg(&args, name, parse).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2);
    })
}

/// `FromStr` with the expected type named in the error.
fn parse_as<T: FromStr<Err: Display>>(v: &str) -> Result<T, String> {
    let expected = std::any::type_name::<T>();
    v.parse()
        .map_err(|e| format!("not a valid {expected} ({e})"))
}

/// `--name <value>` parsed as a `T`, if present.
pub fn opt_arg<T: FromStr<Err: Display>>(name: &str) -> Option<T> {
    parsed_arg(name, parse_as)
}

/// `--name <value>` parsed as a `T`, `default` when absent.
pub fn arg<T: FromStr<Err: Display>>(name: &str, default: T) -> T {
    opt_arg(name).unwrap_or(default)
}

/// `--bound-policy immediate|periodic[:k]|hierarchical`, if present
/// (`periodic` defaults to a 32-node refresh cadence). See
/// [`macs_search::bounds`] for what each policy does.
pub fn bound_policy_arg() -> Option<BoundPolicy> {
    opt_arg("bound-policy")
}

/// `--chunk-policy static|distance[:base,factor]|adaptive`, if present
/// (`distance` defaults to `16,2`: the static 16-item cap near, doubling
/// to 32 at the machine diameter). See [`macs_search::batch`].
pub fn chunk_policy_arg() -> Option<ChunkPolicy> {
    opt_arg("chunk-policy")
}

/// `--fabric latency|contention[:PS[,CTRL[,HDR]]]`, if present. See
/// [`macs_sim::fabric`] for what each model prices.
pub fn fabric_arg() -> Option<FabricModel> {
    opt_arg("fabric")
}

/// `--mode exhaustive|first-solution`, if present.
pub fn mode_arg() -> Option<SearchMode> {
    opt_arg("mode")
}

/// `--cost-model <path>`, if present: the calibrated [`CostModel`] to run
/// the simulator with (typically the file the `calibrate` bin emitted).
/// Unreadable or malformed files exit with the codec's typed message.
pub fn cost_model_arg() -> Option<CostModel> {
    parsed_arg("cost-model", |v| CostModel::load(std::path::Path::new(v)))
}

/// `--shape AxBxC[:prefix]`, if present (see [`parse_shape`]).
pub fn shape_arg() -> Option<MachineTopology> {
    parsed_arg("shape", parse_shape)
}

/// The one simulated cell: `topo` priced by `costs`, then each of
/// `--cost-model` (replaces the built-in constants), `--detect-topo`
/// (this host's shape: sysfs on Linux, flat `available_parallelism`
/// fallback elsewhere — detection never fails), `--bound-policy` and
/// `--chunk-policy` that the caller `declares` — the same list its
/// `--help` is composed from, so a flag reaches every cell exactly where
/// it is advertised. A swept knob is set on the result, after these.
pub fn sim_cell(declares: &[CommonFlag], topo: MachineTopology, costs: CostModel) -> SimConfig {
    // An undeclared flag is never parsed, let alone applied.
    fn parse<T>(declares: &[CommonFlag], f: CommonFlag, read: fn() -> Option<T>) -> Option<T> {
        declares.contains(&f).then(read).flatten()
    }
    let mut cfg = SimConfig::new(topo).with_cost_model(costs);
    if let Some(m) = parse(declares, CommonFlag::CostModel, cost_model_arg) {
        cfg.costs = m;
    }
    if declares.contains(&CommonFlag::DetectTopo) && flag("detect-topo") {
        cfg.topology = MachineTopology::detect();
    }
    if let Some(p) = parse(declares, CommonFlag::BoundPolicy, bound_policy_arg) {
        cfg.bound_policy = p;
    }
    if let Some(c) = parse(declares, CommonFlag::ChunkPolicy, chunk_policy_arg) {
        cfg.steal.chunk_policy = c;
    }
    cfg
}

/// Whether the value-less switch `--name` was passed.
pub fn flag(name: &str) -> bool {
    std::env::args().any(|a| a.strip_prefix("--") == Some(name))
}

/// Print `usage` and exit 0 when `--help`/`-h` was passed. Harness bins
/// call this first with [`usage`]'s output, so every flag — the per-bin
/// ones *and* the uniform `--mode`/`--shape`/`--bound-policy`/`--full`
/// block — is discoverable without reading the source.
pub fn maybe_help(usage: &str) {
    if std::env::args().any(|a| a == "--help" || a == "-h") {
        println!("{usage}");
        std::process::exit(0);
    }
}

/// Simulate MaCS solving `prob` under `cfg` (exhaustive).
pub fn sim_cp_macs(prob: &CompiledProblem, cfg: &SimConfig) -> SimReport<CpOutput> {
    sim_cp_macs_mode(prob, cfg, SearchMode::Exhaustive)
}

/// Simulate MaCS solving `prob` under `cfg` in the given search mode
/// (one solution is kept per worker so a race's winner is inspectable).
pub fn sim_cp_macs_mode(
    prob: &CompiledProblem,
    cfg: &SimConfig,
    mode: SearchMode,
) -> SimReport<CpOutput> {
    simulate_macs(
        cfg,
        prob.layout.store_words(),
        &[prob.root.as_words().to_vec()],
        |_| CpProcessor::new(prob, 1, mode),
    )
}

/// Simulate PaCCS solving `prob` under `cfg` (exhaustive).
pub fn sim_cp_paccs(prob: &CompiledProblem, cfg: &SimConfig) -> SimReport<CpOutput> {
    sim_cp_paccs_mode(prob, cfg, SearchMode::Exhaustive)
}

/// Simulate PaCCS solving `prob` under `cfg` in the given search mode.
pub fn sim_cp_paccs_mode(
    prob: &CompiledProblem,
    cfg: &SimConfig,
    mode: SearchMode,
) -> SimReport<CpOutput> {
    simulate_paccs(
        cfg,
        prob.layout.store_words(),
        &[prob.root.as_words().to_vec()],
        |_| CpProcessor::new(prob, 1, mode),
    )
}

/// The two lease policies every service cell compares on `nodes`
/// 4-core nodes: a static quarter-machine lease and the queue-depth
/// elastic lease over the whole machine.
pub fn lease_policies(nodes: usize) -> [LeasePolicy; 2] {
    [
        LeasePolicy::Static {
            nodes: (nodes / 4).max(1),
        },
        LeasePolicy::QueueDepth { min: 1, max: nodes },
    ]
}

/// Serve one generated open-loop trace on `nodes` 4-core nodes under
/// `policy` (simulator backend, queue cap a quarter of the jobs, at least
/// 4) and hold the run to the service's gates: no scheduler-invariant
/// violation, every job completed or rejected, every completed answer
/// equal to its class's sequential oracle. Returns the report and one
/// message per failed gate.
pub fn serve_cell(
    nodes: usize,
    workload: &WorkloadConfig,
    policy: LeasePolicy,
    cost_model: CostModel,
    oracle: &mut Oracle,
) -> (ServiceReport, Vec<String>) {
    let cfg = ServiceConfig {
        nodes,
        cores_per_node: 4,
        queue_cap: (workload.jobs / 4).max(4),
        policy,
        cost_model,
    };
    let r = SimBackend::default().serve(&cfg, &generate(workload));
    let mut failed = Vec::new();
    if !r.violations.is_empty() {
        failed.push(format!("scheduler invariants violated: {:?}", r.violations));
    }
    if r.completed() + r.rejected() != workload.jobs as u64 {
        failed.push(format!(
            "{} completed + {} rejected != {} submitted",
            r.completed(),
            r.rejected(),
            workload.jobs
        ));
    }
    for rec in r.records.iter().filter(|rec| !rec.rejected) {
        if let Err(e) = oracle.verify(rec.class, &rec.answer) {
            failed.push(format!("job {}: {e}", rec.id));
        }
    }
    (r, failed)
}

/// Validate a QAP sub-instance size from `--n`-style arguments with a
/// readable exit instead of a library panic.
pub fn qap_size_arg(name: &str, default: usize) -> usize {
    let n = arg(name, default);
    if !(2..=16).contains(&n) {
        eprintln!("--{name} must be in 2..=16 (got {n})");
        std::process::exit(2);
    }
    n
}

/// `--full` switches the harnesses from quick (minutes) to paper-scale
/// instances.
pub fn full_scale() -> bool {
    flag("full")
}

/// The core counts of the paper's x-axes (quick mode stops at 128).
pub fn core_series() -> Vec<usize> {
    if full_scale() {
        vec![8, 16, 32, 64, 128, 256, 512]
    } else {
        vec![8, 16, 32, 64, 128]
    }
}

/// `--xl` switches the ablations to the 64k-core depth-5/6 cells
/// where ring effects diverge (and arms their divergence gates).
pub fn xl_scale() -> bool {
    flag("xl")
}

/// The `--xl` cells: 64k-core machines of depth 5 (2 048 pairs of
/// node-pairs × 2 × 2 × 2 sockets × 4 cores) and depth 6 (one more
/// intra-node level), fabric above level 3 (`node_prefix` 2) — so there
/// are two remote ring levels and a nearest-remote-first scan has a choice
/// to make. Ring effects that are noise at 512 cores — which remote ring a
/// steal lands on, how far a bound broadcast fans out — separate cleanly
/// here.
pub fn xl_cells() -> Vec<(&'static str, MachineTopology)> {
    let xl = |shape: &[usize]| MachineTopology::try_new(shape, 2).expect("valid xl shape");
    vec![
        ("deep5-64k", xl(&[2_048, 2, 2, 2, 4])),
        ("deep6-64k", xl(&[1_024, 2, 2, 2, 2, 4])),
    ]
}

/// Print the Fig. 3/5-style worker-state breakdown, one row per
/// `(cores, report)`. These are *simulated* reports: their shares are
/// virtual time and exact. A threaded run's `RunReport::state_fractions`
/// has the same shape but samples the split among the hot-loop states
/// (ARCHITECTURE.md, "Worker-state accounting").
pub fn print_state_table<O>(rows: &[(usize, SimReport<O>)]) {
    print!("{:>6}", "cores");
    for s in WorkerState::ALL {
        print!("  {:>16}", s.name());
    }
    println!("  {:>9}", "Overhead");
    for (cores, r) in rows {
        print!("{cores:>6}");
        for f in r.state_fractions() {
            print!("  {:>15.2}%", f * 100.0);
        }
        println!("  {:>8.2}%", r.overhead_fraction() * 100.0);
    }
}

/// Print Tables I/II with the paper's columns — total, per-core, failed and
/// failure rate for local and remote steals — one row per `(cores, report)`.
pub fn print_steal_table<O>(title: &str, rows: &[(usize, SimReport<O>)]) {
    println!("{title}");
    println!(
        " Cores  Total Nodes |   L.Total  L.p/core  L.Fail   Rate |   R.Total  R.p/core  R.Fail   Rate"
    );
    for (cores, r) in rows {
        let (local, local_failed, remote, remote_failed) = r.steal_totals();
        println!(
            "{:>6} {:>12} | {:>9} {:>9.2} {:>7} {:>5.2}% | {:>9} {:>9.2} {:>7} {:>5.2}%",
            cores,
            r.total_items(),
            local,
            local as f64 / *cores as f64,
            local_failed,
            pct(local_failed, local + local_failed),
            remote,
            remote as f64 / *cores as f64,
            remote_failed,
            pct(remote_failed, remote + remote_failed),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_shape_accepts_levels_and_prefix() {
        let t = parse_shape("2x2x4").unwrap();
        assert_eq!(t.shape(), &[2, 2, 4]);
        assert_eq!(t.node_prefix(), 1);
        let t = parse_shape("2x2x4:2").unwrap();
        assert_eq!(t.node_prefix(), 2);
        assert_eq!(t.nodes(), 4);
        let t = parse_shape("8:0").unwrap();
        assert_eq!(t.levels(), 1);
        assert_eq!(t.nodes(), 1);
    }

    #[test]
    fn parse_shape_reports_readable_errors() {
        for bad in ["", "2xx4", "2x0x4", "axb", "2x2:9", "2x2:x"] {
            let err = parse_shape(bad).unwrap_err();
            assert!(err.contains(&format!("{bad:?}")), "{err}");
        }
    }

    #[test]
    fn find_arg_never_defaults_a_present_flag() {
        let args = |s: &str| -> Vec<String> { s.split(' ').map(String::from).collect() };
        let n = |s: &str| find_arg(&args(s), "n", parse_as::<usize>);
        assert_eq!(n("bin --cores 4"), Ok(None));
        assert_eq!(n("bin --cores 4 --n 12"), Ok(Some(12)));
        // Missing value, non-numeric, empty, trailing garbage, a flag
        // where the value should be: each names the flag and the value.
        for (bad, value) in [
            ("bin --n", "needs a value"),
            ("bin --n abc", "\"abc\""),
            ("bin --n ", "\"\""),
            ("bin --n 64x", "\"64x\""),
            ("bin --n -3", "\"-3\""),
            ("bin --n --full", "\"--full\""),
        ] {
            let err = n(bad).unwrap_err();
            assert!(err.contains("--n") && err.contains(value), "{bad:?}: {err}");
        }
        assert!(n("bin --n 1.5").unwrap_err().contains("not a valid usize"));
        // The parser's own message is carried for typed values.
        let shape = find_arg(&args("bin --shape 2xx4"), "shape", parse_shape).unwrap_err();
        assert!(
            shape.contains("--shape") && shape.contains("bad level extent"),
            "{shape}"
        );
    }

    #[test]
    fn usage_lists_the_common_flags_for_every_bin() {
        let u = usage(
            "demo",
            "does demo things.",
            &[("--n <N>", "a size")],
            &[
                CommonFlag::Mode,
                CommonFlag::Shape,
                CommonFlag::BoundPolicy,
                CommonFlag::Full,
            ],
        );
        for needle in [
            "--bin demo",
            "--n <N>",
            "--mode <M>",
            "--shape AxBxC[:p]",
            "--bound-policy <P>",
            "--full",
            "-h, --help",
        ] {
            assert!(u.contains(needle), "missing {needle:?} in:\n{u}");
        }
        // Bin flags come before the common block.
        assert!(u.find("--n <N>").unwrap() < u.find("--mode <M>").unwrap());
        // A bin that parses none of the common flags advertises none.
        let bare = usage("demo", "x", &[], &[]);
        assert!(
            !bare.contains("--mode") && !bare.contains("--full"),
            "{bare}"
        );
        assert!(bare.contains("-h, --help"));
    }

    #[test]
    fn deep_topo_preserves_the_core_count() {
        assert_eq!(deep_topo_for(64).total_workers(), 64);
        assert_eq!(deep_topo_for(64).levels(), 3);
        assert_eq!(deep_topo_for(4).levels(), 2);
        assert_eq!(deep_topo_for(1).total_workers(), 1);
    }
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

/// One row of a Fig. 4/6-style scaling series.
#[derive(Clone, Copy, Debug)]
pub struct ScaleRow {
    pub cores: usize,
    pub seconds: f64,
    pub speedup: f64,
    pub efficiency: f64,
    pub mnodes_per_sec: f64,
}

/// Build a scaling row from a simulation report and the 1-core baseline.
pub fn scale_row<O>(cores: usize, base_s: f64, report: &SimReport<O>) -> ScaleRow {
    let seconds = report.makespan_ns as f64 / 1e9;
    let speedup = base_s / seconds;
    ScaleRow {
        cores,
        seconds,
        speedup,
        efficiency: speedup / cores as f64,
        mnodes_per_sec: report.total_items() as f64 / seconds / 1e6,
    }
}

/// Print one or more named scaling series side by side (speed-up,
/// efficiency and performance — the a/b/c panels of Fig. 4 and 6).
pub fn print_scaling(series: &[(&str, Vec<ScaleRow>)], ideal_mnodes_1core: f64) {
    println!("-- speed-up --");
    print!("{:>6}", "cores");
    for (name, _) in series {
        print!(" {name:>14}");
    }
    println!();
    for i in 0..series[0].1.len() {
        print!("{:>6}", series[0].1[i].cores);
        for (_, rows) in series {
            print!(" {:>14.2}", rows[i].speedup);
        }
        println!();
    }
    println!("-- efficiency --");
    for i in 0..series[0].1.len() {
        print!("{:>6}", series[0].1[i].cores);
        for (_, rows) in series {
            print!(" {:>13.1}%", rows[i].efficiency * 100.0);
        }
        println!();
    }
    println!("-- performance (Mnodes/s, ideal = cores × 1-core rate) --");
    for i in 0..series[0].1.len() {
        let cores = series[0].1[i].cores;
        print!(
            "{:>6} {:>10.2} (ideal)",
            cores,
            ideal_mnodes_1core * cores as f64
        );
        for (_, rows) in series {
            print!(" {:>12.2}", rows[i].mnodes_per_sec);
        }
        println!();
    }
}

//! `paper <subcommand>` — the tables, figures and ablations of the
//! paper's evaluation (§IV–§VI), and the ablations of what this
//! reproduction adds to it (topology, bound dissemination, chunk
//! granularity, first-solution races, fabric contention, service leases),
//! one subcommand each. Everything but `phase_split` runs on the
//! deterministic simulator, so a subcommand's stdout is a function of its
//! arguments alone, bar the `wall clock:` lines of `ablation_service` and
//! of `ablation_fabric --budget-s`.
//!
//! The figures and tables only print; most ablations also gate. A failed
//! gate prints `GATE …` on stderr and the run goes on; `paper` then exits
//! 1 naming the subcommand. Each subcommand declares the flags it parses:
//! `paper <SUBCOMMAND> --help` lists exactly those, and [`Run::cell`]
//! applies a common override only where the subcommand declares it.

mod ablations;
mod figures;

use std::cell::Cell;
use std::fmt::Display;
use std::ops::RangeInclusive;

use macs_bench::{
    deep_topo_for, opt_arg, qap_size_arg, shape_arg, sim_cell, sim_cp_macs, topo_for, xl_cells,
    xl_scale, CommonFlag,
};
use macs_engine::CompiledProblem;
use macs_gpi::{MachineTopology, StealHistogram};
use macs_problems::{qap::QapInstance, qap_model, queens, QueensModel};
use macs_sim::{CostModel, SimConfig, SimReport};

/// One subcommand: what it regenerates, the flags it parses, how it runs,
/// and the paragraph printed after it once every gate has held.
pub struct Sub {
    pub name: &'static str,
    /// The first line is the summary `paper --help` lists.
    pub about: &'static str,
    pub flags: &'static [(&'static str, &'static str)],
    pub common: &'static [CommonFlag],
    pub run: fn(&Run),
    pub shape: &'static str,
}

const SUBCOMMANDS: &[&Sub] = &[
    &figures::FIG3,
    &figures::FIG4,
    &figures::FIG5,
    &figures::FIG6,
    &figures::TABLE1,
    &figures::TABLE2,
    &ablations::POLLING,
    &ablations::RELEASE_INTERVAL,
    &ablations::VICTIM,
    &ablations::BOUND,
    &ablations::CHUNK,
    &ablations::FABRIC,
    &ablations::RACE,
    &ablations::SERVICE,
    &ablations::TOPO,
    &figures::PHASE_SPLIT,
    &figures::UTS_SCALING,
];

fn main() {
    let name = std::env::args().nth(1).unwrap_or_default();
    let Some(sub) = SUBCOMMANDS.iter().find(|s| s.name == name) else {
        let mut list = String::new();
        for s in SUBCOMMANDS {
            let summary = s.about.lines().next().unwrap_or("");
            list += &format!("\n    {:<27}{summary}", s.name);
        }
        let usage = macs_bench::usage(
            "paper -- <SUBCOMMAND>",
            &format!(
                "regenerates one table, figure or ablation of the paper's evaluation.\n\
                 `paper <SUBCOMMAND> --help` lists the flags that subcommand parses.\n\n\
                 SUBCOMMANDS:{list}"
            ),
            &[],
            &[],
        );
        if name == "--help" || name == "-h" {
            println!("{usage}");
            return;
        }
        eprintln!("unknown or missing subcommand {name:?}\n\n{usage}");
        std::process::exit(2);
    };
    macs_bench::maybe_help(&macs_bench::usage(
        &format!("paper -- {}", sub.name),
        sub.about,
        sub.flags,
        sub.common,
    ));
    if let Err(failed) = dispatch(sub) {
        eprintln!("{failed}");
        std::process::exit(1);
    }
}

/// Run `sub`: its shape paragraph once every gate held, else the line
/// the process exits 1 with, naming the subcommand.
fn dispatch(sub: &Sub) -> Result<(), String> {
    let run = Run {
        common: sub.common,
        failed: Cell::new(0),
    };
    (sub.run)(&run);
    match run.failed.get() {
        0 => {
            if !sub.shape.is_empty() {
                println!("{}", sub.shape);
            }
            Ok(())
        }
        n => Err(format!("paper {}: {n} gate(s) FAILED", sub.name)),
    }
}

/// What a subcommand runs against: the common flags it declared, and how
/// many of its gates failed.
pub struct Run {
    common: &'static [CommonFlag],
    failed: Cell<usize>,
}

impl Run {
    /// The one simulated cell, under the common flags this subcommand
    /// declares (see [`sim_cell`]).
    pub fn cell(&self, topo: MachineTopology, costs: CostModel) -> SimConfig {
        sim_cell(self.common, topo, costs)
    }

    /// Hold one gate: when `ok` is false, print `GATE {what}` and fail the
    /// run. The run goes on, so every broken gate is reported.
    pub fn gate(&self, ok: bool, what: impl Display) {
        if !ok {
            eprintln!("GATE {what}");
            self.failed.set(self.failed.get() + 1);
        }
    }

    /// Run one cell under each of `seeds` and sum its reports. A complete
    /// search lands on one optimum whatever the schedule, so a seed that
    /// finds another than the first seed's fails a gate.
    pub fn seeds<O>(
        &self,
        cell: &str,
        seeds: RangeInclusive<u64>,
        mut run: impl FnMut(u64) -> SimReport<O>,
    ) -> Tally {
        let mut t = Tally::default();
        for seed in seeds {
            let r = run(seed);
            if t.seeds == 0 {
                t.optimum = r.incumbent;
            }
            self.gate(
                r.incumbent == t.optimum,
                format_args!("{cell}: seed {seed} found {} != {}", r.incumbent, t.optimum),
            );
            t.add(&r);
        }
        t
    }

    /// [`Run::seeds`] of MaCS solving `prob` on `cfg`, once for each arm
    /// of a swept knob (`set` applies it). The knob moves work and
    /// messages, never the answer, so the arms must agree on the optimum
    /// too.
    pub fn sweep<A: Copy + Display>(
        &self,
        cell: &str,
        prob: &CompiledProblem,
        cfg: &SimConfig,
        arms: &[A],
        seeds: RangeInclusive<u64>,
        set: impl Fn(&mut SimConfig, A),
    ) -> Vec<(A, Tally)> {
        let tallies: Vec<(A, Tally)> = arms
            .iter()
            .map(|&arm| {
                let mut cfg = cfg.clone();
                set(&mut cfg, arm);
                let t = self.seeds(&format!("{cell} {arm}"), seeds.clone(), |seed| {
                    cfg.seed = seed;
                    sim_cp_macs(prob, &cfg)
                });
                (arm, t)
            })
            .collect();
        let optima: Vec<i64> = tallies.iter().map(|(_, t)| t.optimum).collect();
        self.gate(
            optima.windows(2).all(|w| w[0] == w[1]),
            format_args!("{cell}: the swept arms disagree on the optimum: {optima:?}"),
        );
        tallies
    }

    /// The `--xl` section, when asked for: `cell` on each 64k-core
    /// depth-5/6 machine under `header`, then a line once every gate so
    /// far has held.
    pub fn xl(&self, header: &str, mut cell: impl FnMut(&'static str, MachineTopology)) {
        if xl_scale() {
            println!("{header}");
            for (name, topo) in xl_cells() {
                cell(name, topo);
            }
            if self.failed.get() == 0 {
                println!("  xl gates passed\n");
            }
        }
    }
}

/// One cell's reports summed over its seeds; [`Tally::mean`] divides a
/// sum by the seed count.
#[derive(Default)]
pub struct Tally {
    pub seeds: u64,
    /// The first seed's incumbent (`i64::MAX` on satisfaction problems).
    pub optimum: i64,
    pub ms: f64,
    pub nodes: u64,
    pub after_win: u64,
    pub bound_msgs: u64,
    pub bound_updates: u64,
    pub stale: u64,
    pub rtts: u64,
    pub items_per_steal: f64,
    pub hist: StealHistogram,
    /// Responses served, chunks written, responses carrying several.
    pub batching: (u64, u64, u64),
}

impl Tally {
    fn add<O>(&mut self, r: &SimReport<O>) {
        self.seeds += 1;
        self.ms += r.makespan_ns as f64 / 1e6;
        self.nodes += r.total_items();
        self.after_win += r.nodes_after_win;
        self.bound_msgs += r.bound_msgs;
        self.bound_updates += r.bound_updates;
        self.stale += r.stale_expansions();
        self.rtts += r.remote_round_trips();
        self.items_per_steal += r.items_per_remote_steal();
        self.hist.merge(&r.steal_distance_histogram());
        let (served, chunks, multi) = r.response_batching();
        self.batching.0 += served;
        self.batching.1 += chunks;
        self.batching.2 += multi;
    }

    pub fn mean(&self, sum: f64) -> f64 {
        sum / self.seeds as f64
    }
}

/// A named problem and the cost model the paper prices it with.
pub type Workload = (String, CompiledProblem, CostModel);

pub fn queens_workload(n: usize) -> Workload {
    let prob = queens(n, QueensModel::Pairwise);
    (format!("queens-{n}"), prob, CostModel::paper_queens())
}

/// The esc16e sub-instance sized by `--{flag}` (2..=16).
pub fn esc16e_workload(flag: &str, default: usize) -> Workload {
    let inst = QapInstance::esc16e().sub_instance(qap_size_arg(flag, default));
    let prob = qap_model(&inst);
    (inst.name, prob, CostModel::paper_qap())
}

pub fn secs<O>(r: &SimReport<O>) -> f64 {
    r.makespan_ns as f64 / 1e9
}

/// The machine axis of a sweep: each core count of `series` (or the one
/// `--cores N`) as the deep nodes × 2 × 4 machine and as the paper's
/// 4-core-node cluster of the same total — or as the one `--shape`.
pub fn machines(series: Vec<usize>) -> Vec<(usize, &'static str, MachineTopology)> {
    let cores: Vec<usize> = opt_arg("cores").map_or(series, |c| vec![c]);
    cores
        .into_iter()
        .flat_map(|c| match shape_arg() {
            Some(t) => vec![(c, "explicit", t)],
            None => vec![(c, "deep", deep_topo_for(c)), (c, "2-level", topo_for(c))],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_gate_fails(run: &Run) {
        run.gate(true, "held");
        run.gate(false, "broke");
    }

    #[test]
    fn one_failed_gate_fails_the_dispatch_naming_the_subcommand() {
        let sub = Sub {
            name: "ablation_demo",
            about: "",
            flags: &[],
            common: &[],
            run: one_gate_fails,
            shape: "",
        };
        let failed = dispatch(&sub).unwrap_err();
        assert_eq!(failed, "paper ablation_demo: 1 gate(s) FAILED");
        let held = Sub {
            run: |run| run.gate(true, "held"),
            ..sub
        };
        assert_eq!(dispatch(&held), Ok(()));
    }
}

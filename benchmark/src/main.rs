//! The MaCS benchmark: five workloads, five end-to-end metrics every
//! workload reports, and a traced per-layer ladder. See README.md.
//!
//! ```text
//! macs-benchmark --workload NAME --seed N --seconds S --trace 0|1   one run (the driver's form)
//! macs-benchmark [--seed N] [--trace] [--quick]                     the suite, one process per workload
//! macs-benchmark --repeat-check                                     the suite twice, A/A against the bounds
//! macs-benchmark --emit-spec                                        print BENCHMARK.json
//! ```

mod host;
mod json;
mod ladder;
mod spec;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use host::Host;
use json::Json;
use spec::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use trace::Tracer;
use workloads::cp::Instance;
use workloads::{Ctx, Metrics, Ops};

/// Spans retained for a workload's trace file (totals count them all).
const TRACE_KEEP: usize = 20_000;

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    /// `--quick`: a one-second window and no warm-up round, so the whole
    /// suite is a smoke test of about 5 s. Not for steady figures.
    pub quick: bool,
    pub trace: bool,
    pub repeat_check: bool,
    pub emit_spec: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        quick: false,
        trace: false,
        repeat_check: false,
        emit_spec: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a workload name")?),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_string())?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?
            }
            // `--trace 0|1` (the driver's form) or a bare `--trace`.
            "--trace" => {
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--quick" => {
                a.quick = true;
                a.seconds = 1.0;
            }
            "--repeat-check" => a.repeat_check = true,
            "--emit-spec" => a.emit_spec = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(w) = &a.workload {
        if !WORKLOADS.iter().any(|k| k.name == w) {
            let names: Vec<_> = WORKLOADS.iter().map(|k| k.name).collect();
            return Err(format!("unknown workload {w:?}: expected one of {names:?}"));
        }
    }
    Ok(a)
}

/// `benchmark/out/`, next to this package's sources; created on demand.
pub fn out_dir() -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Run one workload in this process and print its result line.
fn run_one(args: &Args, name: &str) -> ExitCode {
    let host = Host::detect();
    if host.w() < 2 {
        eprintln!(
            "warning: W = 1 on this host, so macs_wN_solve_s repeats the width-one leg; \
             speed-up, steal and share rows say nothing about parallel runs"
        );
    }
    let mut ctx = Ctx {
        started: Instant::now(),
        host,
        seed: args.seed,
        seconds: args.seconds,
        warm_up: !args.quick,
        tracer: Tracer::new(args.trace, TRACE_KEEP),
        ops: Ops::default(),
        notes: BTreeMap::new(),
    };
    let index = WORKLOADS
        .iter()
        .position(|w| w.name == name)
        .expect("validated by parse_args");
    let mut measured: Metrics = match name {
        "queens_enum" => workloads::cp::run(&mut ctx, Instance::Queens),
        "qap_bnb" => workloads::cp::run(&mut ctx, Instance::Qap),
        "uts_unbalanced" => workloads::uts::run(&mut ctx),
        "sim_scale" => workloads::sim_scale::run(&mut ctx),
        "service_mix" => workloads::service_mix::run(&mut ctx),
        _ => unreachable!("validated by parse_args"),
    };
    if let Some(mb) = host::peak_rss_mb() {
        measured.insert("peak_rss_mb".into(), mb);
    }
    measured.insert("trace.spans".into(), ctx.tracer.closed() as f64);

    // Exactly the contract's metric set for this kind of run. The result
    // line must carry every per-layer metric, so one this workload does
    // not exercise is written as 0 there; the table says "not measured"
    // so that it is not read as a measured 0. An end-to-end metric must
    // have been measured.
    let mut ok = true;
    let mut unmeasured = 0;
    let wanted: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let mut metrics = Vec::new();
    for (metric, unit) in &wanted {
        let value = match measured.get(*metric) {
            Some(v) => {
                println!("{name:<15} {metric:<42} {v:>16.6} {unit}");
                *v
            }
            None if args.trace => {
                println!("{name:<15} {metric:<42} {:>16}", "not measured");
                unmeasured += 1;
                0.0
            }
            None => {
                eprintln!("end-to-end metric {metric} was not measured");
                ok = false;
                0.0
            }
        };
        metrics.push((
            metric.to_string(),
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(*unit))]),
        ));
    }
    if unmeasured > 0 {
        println!(
            "{name}: {unmeasured} per-layer metrics belong to layers this workload does not \
             exercise; the result line carries them as 0"
        );
    }
    if args.trace {
        let defined = |k: &str| {
            PER_LAYER.iter().any(|m| m.name == k) || END_TO_END.iter().any(|m| m.name == k)
        };
        if let Some(extra) = measured.keys().find(|k| !defined(k)) {
            panic!("workload {name} measured {extra}, which spec.rs does not define");
        }
        print_span_table(&ctx.tracer);
        match write_trace(&ctx.tracer, name, index) {
            Ok(path) => println!("trace written to {}", path.display()),
            Err(e) => eprintln!("could not write the trace file: {e}"),
        }
    }
    for (k, v) in &ctx.notes {
        println!("{name:<15} note {k:<37} {v:>16.6}");
    }
    println!(
        "{name}: {} ops attempted, {} failed; W = {} (nproc {}, shape {:?}); seed {}; {:.1} s",
        ctx.ops.attempted,
        ctx.ops.failed,
        ctx.host.w(),
        ctx.host.nproc,
        ctx.host.shape,
        args.seed,
        ctx.started.elapsed().as_secs_f64(),
    );
    let correct = ok && ctx.ops.failed == 0;
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(ctx.ops.attempted.max(1) as f64)),
        ("failed", Json::Num(ctx.ops.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", result.compact());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Self time per span name: where the traced sections spent their time.
fn print_span_table(tracer: &Tracer) {
    println!(
        "{:<24} {:>10} {:>14} {:>14}",
        "span", "count", "total ms", "self ms"
    );
    for (name, t) in tracer.totals() {
        println!(
            "{name:<24} {:>10} {:>14.3} {:>14.3}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
}

fn write_trace(tracer: &Tracer, workload: &str, id: usize) -> std::io::Result<PathBuf> {
    let path = out_dir()?.join(format!("trace_{workload}.json"));
    std::fs::write(&path, tracer.chrome_trace(workload, id).compact())?;
    Ok(path)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\nsee benchmark/README.md for usage");
            return ExitCode::from(2);
        }
    };
    if args.emit_spec {
        print!("{}", spec::benchmark_json().pretty());
        return ExitCode::SUCCESS;
    }
    match &args.workload {
        Some(name) => run_one(&args, name),
        None => suite::run(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, String> {
        parse_args(&words.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse(&[
            "--workload",
            "qap_bnb",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("qap_bnb"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 20.0, false));
        assert!(
            parse(&["--workload", "sim_scale", "--trace", "1"])
                .unwrap()
                .trace
        );
        assert!(parse(&["--trace"]).unwrap().trace, "bare --trace means on");
        assert!(parse(&["--trace", "--quick"]).unwrap().trace);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--seed", "x"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
    }
}

//! Suite mode: every workload in a process of its own (so `peak_rss_mb`
//! is per workload), results collected from each child's last line.
//! Also the A/A check (`--repeat-check`).

use std::process::{Command, ExitCode, Stdio};

use crate::host::Host;
use crate::json::Json;
use crate::spec::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::{out_dir, Args};

/// One child run's parsed result line.
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// In the order printed.
    metrics: Vec<(String, f64, String)>,
}

impl RunResult {
    fn value(&self, metric: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == metric)
            .map(|(_, v, _)| *v)
    }
}

/// Run one workload in a child process (this same executable), echoing
/// its output; `Err` if it could not be run or printed no result line.
fn run_child(args: &Args, workload: &str, seed: u64, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(if args.quick {
            vec!["--quick".to_string()]
        } else {
            vec!["--seconds".to_string(), args.seconds.to_string()]
        })
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for l in lines {
        println!("{l}");
    }
    let j = Json::parse(last)
        .map_err(|e| format!("{workload}: last line is not a result ({e}): {last:?}"))?;
    let field = |k: &str| {
        j.get(k)
            .ok_or_else(|| format!("{workload}: result lacks {k}"))
    };
    let metrics = field("metrics")?
        .as_obj()
        .ok_or("metrics is not an object")?
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = match m.get("unit") {
                Some(Json::Str(u)) => u.clone(),
                _ => String::new(),
            };
            (name.clone(), value, unit)
        })
        .collect();
    Ok(RunResult {
        correct: field("correct")?.as_bool().unwrap_or(false) && out.status.success(),
        attempted: field("attempted")?.as_f64().unwrap_or(0.0) as u64,
        failed: field("failed")?.as_f64().unwrap_or(0.0) as u64,
        metrics,
    })
}

/// One pass over every workload; `None` for a workload that did not run.
fn pass(args: &Args, seed: u64, trace: bool) -> Vec<(&'static str, Option<RunResult>)> {
    WORKLOADS
        .iter()
        .map(|w| {
            println!(
                "--- {} (seed {seed}, {} s, {}) ---",
                w.name,
                args.seconds,
                if trace { "traced" } else { "untraced" }
            );
            let r = run_child(args, w.name, seed, trace)
                .map_err(|e| eprintln!("{e}"))
                .ok();
            (w.name, r)
        })
        .collect()
}

fn all_correct(results: &[(&str, Option<RunResult>)]) -> bool {
    results
        .iter()
        .all(|(_, r)| r.as_ref().is_some_and(|r| r.correct && r.failed == 0))
}

fn results_json(results: &[(&str, Option<RunResult>)]) -> Json {
    Json::obj(results.iter().map(|(name, r)| {
        let body = match r {
            None => Json::Null,
            Some(r) => Json::obj([
                ("ops_attempted", Json::Num(r.attempted as f64)),
                ("ops_failed", Json::Num(r.failed as f64)),
                (
                    "metrics",
                    Json::obj(r.metrics.iter().map(|(n, v, u)| {
                        (
                            n.clone(),
                            Json::obj([("value", Json::Num(*v)), ("unit", Json::str(u.clone()))]),
                        )
                    })),
                ),
            ]),
        };
        (*name, body)
    }))
}

/// What `BENCHMARK.json` has no keys for: the legs behind each workload,
/// what each end-to-end metric is, and which end-to-end metric each
/// per-layer metric should move.
fn definitions() -> Json {
    Json::obj([
        (
            "workloads",
            Json::obj(WORKLOADS.iter().map(|w| {
                let legs = ["seq_solve_s", "macs_w1_solve_s", "macs_wN_solve_s"]
                    .into_iter()
                    .zip(w.legs)
                    .map(|(metric, leg)| (metric, Json::str(leg)));
                (
                    w.name,
                    Json::obj([("why", Json::str(w.why)), ("legs", Json::obj(legs))]),
                )
            })),
        ),
        (
            "end_to_end",
            Json::obj(END_TO_END.iter().map(|m| {
                (
                    m.name,
                    Json::obj([
                        ("unit", Json::str(m.unit)),
                        ("better", Json::str(m.better.as_str())),
                        ("bound", Json::Num(m.bound)),
                        ("what", Json::str(m.what)),
                    ]),
                )
            })),
        ),
        (
            "per_layer",
            Json::obj(PER_LAYER.iter().map(|m| {
                (
                    m.name,
                    Json::obj([
                        ("unit", Json::str(m.unit)),
                        ("better", Json::str(m.better.as_str())),
                        ("moves", Json::str(m.moves)),
                    ]),
                )
            })),
        ),
    ])
}

/// Worse-is-positive relative change from `a` to `b`.
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

pub fn run(args: &Args) -> ExitCode {
    let first = pass(args, args.seed, false);
    let mut ok = all_correct(&first);

    if args.repeat_check {
        let second = pass(args, args.seed, false);
        ok &= all_correct(&second);
        println!(
            "\nA/A: the same binary twice\n{:<15} {:<18} {:>12} {:>12} {:>9} {:>7}",
            "workload", "metric", "first", "second", "worse by", "bound"
        );
        for ((name, a), (_, b)) in first.iter().zip(&second) {
            let (Some(a), Some(b)) = (a, b) else { continue };
            for m in &END_TO_END {
                let (Some(x), Some(y)) = (a.value(m.name), b.value(m.name)) else {
                    continue;
                };
                let worse = worsening(m.better, x, y);
                let verdict = if worse > m.bound { "  EXCEEDS" } else { "" };
                ok &= worse <= m.bound;
                println!(
                    "{name:<15} {:<18} {x:>12.5} {y:>12.5} {:>8.1}% {:>6.0}%{verdict}",
                    m.name,
                    worse * 100.0,
                    m.bound * 100.0
                );
            }
        }
    }

    let traced = args.trace.then(|| pass(args, args.seed, true));
    if let Some(t) = &traced {
        ok &= all_correct(t);
    }

    println!("\n=== end-to-end (untraced pass) ===");
    for (name, r) in &first {
        let Some(r) = r else {
            println!("{name:<15} did not run");
            continue;
        };
        for (metric, value, unit) in &r.metrics {
            println!("{name:<15} {metric:<18} {value:>14.5} {unit}");
        }
        println!("{name:<15} {:<18} {:>14}", "ops_attempted", r.attempted);
        println!("{name:<15} {:<18} {:>14}", "ops_failed", r.failed);
    }

    let host = Host::detect();
    let latest = Json::obj([
        ("host", host.describe()),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("end_to_end", results_json(&first)),
        (
            "per_layer",
            traced.as_deref().map_or(Json::Null, results_json),
        ),
        ("definitions", definitions()),
    ]);
    match out_dir().and_then(|d| {
        let path = d.join("latest.json");
        std::fs::write(&path, latest.pretty()).map(|()| path)
    }) {
        Ok(path) => println!("\nvalues written to {}", path.display()),
        Err(e) => eprintln!("could not write out/latest.json: {e}"),
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("FAILED: a workload did not run, an op failed, or an A/A bound was exceeded");
        ExitCode::FAILURE
    }
}

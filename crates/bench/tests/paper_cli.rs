//! The `paper` bin replaced eleven print-only bins and then the six
//! `*_ablation` bins. Its simulated subcommands are deterministic, so
//! stdout is pinned byte for byte against what the bin it replaced printed
//! (captured before that bin was deleted; the topology ablation's after
//! fixing its mislabelled rows).

use std::process::{Command, Output};

fn paper(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(args)
        .output()
        .expect("the paper bin runs")
}

fn stdout_of(args: &[&str]) -> String {
    let out = paper(args);
    assert!(out.status.success(), "{args:?}: {out:?}");
    String::from_utf8(out.stdout).expect("UTF-8 stdout")
}

const MODEL: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/data/calibrated_host.cost");

#[test]
fn table1_at_n9_prints_what_table1_queens_steals_printed() {
    let stdout = stdout_of(&["table1", "--n", "9"]);
    assert_eq!(stdout, include_str!("data/table1_n9.txt"));
    // table1 does not declare the host overrides, so they reach no cell.
    let host = ["--cost-model", MODEL, "--detect-topo"];
    let stdout = stdout_of(&[&["table1", "--n", "9"][..], &host].concat());
    assert_eq!(stdout, include_str!("data/table1_n9.txt"));
}

#[test]
fn ablation_race_at_the_ci_arguments_prints_what_race_ablation_printed() {
    let args = [
        "ablation_race",
        "--n",
        "10",
        "--seeds",
        "2",
        "--cores",
        "64",
    ];
    let stdout = stdout_of(&args);
    assert_eq!(stdout, include_str!("data/ablation_race_n10.txt"));
}

#[test]
fn ablation_topo_under_the_committed_model_prints_what_topo_ablation_printed() {
    let args = ["--cost-model", MODEL, "--n", "9", "--n2", "10", "--qn", "7"];
    let stdout = stdout_of(&[&["ablation_topo"][..], &args].concat());
    assert_eq!(stdout, include_str!("data/ablation_topo_calibrated.txt"));
}

#[test]
fn ablation_bound_at_qn9_prints_what_bound_ablation_printed() {
    let stdout = stdout_of(&["ablation_bound", "--qn", "9", "--gm", "6", "--seeds", "1"]);
    assert_eq!(stdout, include_str!("data/ablation_bound_qn9.txt"));
}

/// Every subcommand and the flags it parses beyond `--help`.
const FLAGS: &[(&str, &str)] = &[
    ("fig3", "--n --full"),
    ("fig4", "--n --full"),
    ("fig5", "--n --full"),
    ("fig6", "--n --full"),
    ("table1", "--n --full"),
    ("table2", "--n --full"),
    ("ablation_polling", "--n --cores --cost-model --detect-topo"),
    ("ablation_release_interval", "--n --cores --cost-model --detect-topo"),
    ("ablation_victim", "--n --cost-model --detect-topo"),
    ("ablation_bound", "--qn --gm --seeds --shape --bound-policy --cost-model --detect-topo --full --xl"),
    ("ablation_chunk", "--n --qn --seeds --cores --shape --chunk-policy --cost-model --detect-topo --full --xl"),
    ("ablation_fabric", "--n --qn --budget-s --fabric --chunk-policy --cost-model --detect-topo --full --xl"),
    ("ablation_race", "--n --seeds --cores --mode --shape --chunk-policy --cost-model --detect-topo --full"),
    ("ablation_service", "--lease-policy --seed --cost-model --full"),
    ("ablation_topo", "--n --n2 --qn --xn --shape --bound-policy --chunk-policy --cost-model --detect-topo --full --xl"),
    ("phase_split", "--n --workers"),
    ("uts_scaling", "--seed --geo --law --b0 --depth --full"),
];

#[test]
fn every_subcommand_help_lists_exactly_the_flags_it_parses() {
    let overview = stdout_of(&["--help"]);
    let listed: Vec<&str> = overview
        .lines()
        .skip_while(|l| *l != "SUBCOMMANDS:")
        .skip(1)
        .take_while(|l| !l.is_empty())
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    let known: Vec<&str> = FLAGS.iter().map(|(sub, _)| *sub).collect();
    assert_eq!(listed, known, "every subcommand has its flags pinned here");
    for (sub, flags) in FLAGS {
        let help = stdout_of(&[sub, "--help"]);
        let mut advertised: Vec<&str> = help
            .lines()
            .filter(|l| l.starts_with("    --"))
            .filter_map(|l| l.split_whitespace().next())
            .collect();
        advertised.sort_unstable();
        let mut want: Vec<&str> = flags.split_whitespace().collect();
        want.sort_unstable();
        assert_eq!(advertised, want, "paper {sub} --help:\n{help}");
    }
}

#[test]
fn an_unknown_subcommand_exits_2() {
    for args in [&["bogus"][..], &[]] {
        let out = paper(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty());
    }
}

#[test]
fn an_unparsable_value_exits_2_naming_the_flag_and_the_value() {
    let out = paper(&["table1", "--n", "9x"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).expect("UTF-8 stderr");
    assert!(
        stderr.contains("--n") && stderr.contains("\"9x\""),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "no table at a defaulted size");
}

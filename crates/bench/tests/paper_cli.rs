//! The `paper` bin replaced eleven print-only bins. Its simulated
//! subcommands are deterministic, so stdout is pinned byte for byte against
//! what the bin it replaced printed (captured before that bin was deleted).

use std::process::{Command, Output};

fn paper(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(args)
        .output()
        .expect("the paper bin runs")
}

#[test]
fn table1_at_n9_prints_what_table1_queens_steals_printed() {
    let out = paper(&["table1", "--n", "9"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 stdout");
    assert_eq!(stdout, include_str!("data/table1_n9.txt"));
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

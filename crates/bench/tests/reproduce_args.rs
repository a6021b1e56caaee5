//! `reproduce` refuses a bad argument before any work: one usage line on
//! stderr, nothing on stdout, exit 2.

use std::process::Command;

fn assert_refused(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce")).args(args).output().expect("runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    assert!(stderr.contains("usage: reproduce"), "{args:?}: {stderr}");
}

#[test]
fn a_missing_or_non_numeric_scale_or_seed_is_refused() {
    for args in [&["--scale"][..], &["--scale", "abc"], &["table2", "--seed"], &["--seed", "-3"]] {
        assert_refused(args);
    }
}

#[test]
fn json_without_a_path_is_refused() {
    assert_refused(&["table2", "--json"]);
}

#[test]
fn an_unknown_report_is_refused() {
    assert_refused(&["bogus"]);
    assert_refused(&["table2", "--bogus"]);
}

#[test]
fn a_scale_outside_zero_to_one_is_refused() {
    for scale in ["inf", "-inf", "NaN", "0", "-1e-3", "1.5"] {
        assert_refused(&["table1", "--scale", scale]);
    }
}

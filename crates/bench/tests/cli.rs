//! The `repro` command line: ids it cannot run are rejected before any
//! simulation starts, and the catalog it prints names only what it runs.
//! Every case here exits during argument handling, so the suite simulates
//! nothing.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run repro")
}

/// Exit 2, the usage line on stderr, and nothing on stdout: no figure was
/// rendered before the bad id was seen.
fn assert_rejected(args: &[&str]) {
    let out = repro(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "repro {args:?}: {stderr}");
    assert!(stderr.contains("usage: repro"), "repro {args:?}: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "repro {args:?} printed before rejecting: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn removed_fleet_subcommand_is_an_unknown_id() {
    assert_rejected(&["fleet"]);
    assert_rejected(&["fleet", "--smoke"]);
}

#[test]
fn unknown_id_is_rejected_before_earlier_ids_run() {
    assert_rejected(&["bogus"]);
    assert_rejected(&["fig1a", "bogus", "--quick"]);
    // `chaos` was deleted with the simulated fault catalog; it is now an
    // unknown id like any other.
    assert_rejected(&["chaos"]);
    assert_rejected(&["chaos", "--smoke"]);
    assert_rejected(&["fig1a", "chaos", "--quick"]);
}

#[test]
fn list_names_only_runnable_commands() {
    let out = repro(&["list"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("fig1a"), "{stdout}");
    assert!(!stdout.contains("fleet"), "{stdout}");
    assert!(!stdout.contains("chaos"), "{stdout}");
    assert!(!stdout.contains("fault plans"), "{stdout}");
}

#[test]
fn help_exits_zero() {
    let out = repro(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: repro"));
}

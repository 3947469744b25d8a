//! Pins the `urb exp` surface to the experiment table and the committed
//! evaluation record: `list` is the table, one experiment's stdout is its
//! section of `experiments_output.txt`, and a name the tables do not hold
//! is exit code 2 with the valid names on stderr — never a panic, never a
//! silent 0.

use std::collections::BTreeSet;
use std::process::{Command, Output};

use bench::exp::EXPERIMENTS;

fn urb(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_urb"))
        .args(args)
        .output()
        .expect("urb runs")
}

#[test]
fn exp_list_is_the_table_and_names_are_unique() {
    let out = urb(&["exp", "list"]);
    assert!(out.status.success());
    let listed: Vec<String> = String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .map(|l| l.split_whitespace().next().unwrap_or("").to_string())
        .collect();
    let table: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    assert_eq!(listed, table);
    assert_eq!(table.iter().collect::<BTreeSet<_>>().len(), table.len());
    assert!(!table.iter().any(|n| ["list", "all"].contains(n)));
}

#[test]
fn one_experiment_prints_its_section_of_the_committed_record() {
    let record = include_str!("../../../experiments_output.txt");
    let start = record.find("=== RUN table1 ===\n").expect("table1 section");
    let end = record.find("=== RUN table2 ===\n").expect("table2 section");
    let out = urb(&["exp", "table1"]);
    assert!(out.status.success());
    assert_eq!(String::from_utf8(out.stdout).unwrap(), record[start..end]);
    // Every row has a section, in table order.
    let headers: Vec<&str> = record
        .lines()
        .filter(|l| l.starts_with("=== RUN "))
        .collect();
    let want: Vec<String> = EXPERIMENTS
        .iter()
        .map(|e| format!("=== RUN {} ===", e.name))
        .collect();
    assert_eq!(headers, want);
}

#[test]
fn a_name_the_tables_do_not_hold_exits_2_with_the_valid_names() {
    for bad in [
        &[][..],
        &["bogus"],
        &["exp"],
        &["exp", "table9"],
        &["exp", "table1", "table2"],
        &["trace"],
        &["trace", "replay"],
    ] {
        let out = urb(bad);
        assert_eq!(out.status.code(), Some(2), "{bad:?}");
        assert!(out.stdout.is_empty(), "{bad:?} printed to stdout");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: urb exp"), "{bad:?}: {stderr}");
        assert!(stderr.contains("experiments: table1, table2"), "{bad:?}");
        assert!(stderr.contains("campaigns: tournament"), "{bad:?}");
    }
}

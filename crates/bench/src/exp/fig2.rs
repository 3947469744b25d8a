//! Figure 2 — functional disruption as perceived by end users.
//!
//! Zooms in on one recovery event (the corrupted JNDI entry of
//! `RegisterNewUser`, injected at t=1200 s as in Figure 1) and reports,
//! per functional group and per second, whether some request whose
//! processing spanned that second eventually failed — the paper's
//! "client-perceived availability" bars. With a process restart every
//! group gaps for ~20+ seconds; with a microreboot only the User Account
//! group (which contains RegisterNewUser) shows a brief gap.

use super::recovered_run;
use crate::report::banner;
use cluster::SimConfig;
use faults::Fault;
use recovery::PolicyLevel;
use simcore::SimTime;
use statestore::session::CorruptKind;
use workload::catalog::FunctionalGroup;

fn measure(start_level: PolicyLevel) -> Vec<String> {
    let fault = Fault::CorruptJndi {
        component: "RegisterNewUser",
        kind: CorruptKind::SetNull,
    };
    let world = recovered_run(
        start_level,
        SimConfig::default(),
        None,
        &[(1200, fault)],
        1260,
    );
    let taw = world.pool.taw_ref();
    let mut lines = Vec::new();
    for group in FunctionalGroup::ALL {
        let mut bar = String::new();
        for s in 1195..=1235 {
            let t1 = SimTime::from_secs(s);
            let t2 = SimTime::from_secs(s + 1);
            bar.push(if taw.group_unavailable_during(group, t1, t2) {
                ' '
            } else {
                '#'
            });
        }
        lines.push(format!("{:>12}  |{bar}|", group.label()));
    }
    lines
}

pub(super) fn run() -> Result<(), String> {
    banner("Figure 2: functional disruption during one recovery event");
    println!("('#' = no user perceived the group as unavailable in that second;");
    println!(" ' ' = some request overlapping that second eventually failed)");
    println!("\ntimeline: seconds 1195..1235; fault injected at t=1200\n");

    println!("PROCESS RESTART");
    for line in measure(PolicyLevel::Process) {
        println!("{line}");
    }
    println!("\nMICROREBOOT");
    for line in measure(PolicyLevel::Ejb) {
        println!("{line}");
    }
    println!("\npaper: during a microreboot all operations in other functional groups");
    println!("succeed; a process restart blanks every group for the full ~20 s outage");
    println!("plus the session-loss tail.");
    Ok(())
}

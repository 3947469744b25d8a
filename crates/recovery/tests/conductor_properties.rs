//! Randomized scheduling invariants of the recovery conductor.
//!
//! A driver feeds the conductor random streams of submissions and
//! completions and checks, at every step, the properties the rest of the
//! system leans on:
//!
//! * no two **conflicting** tickets (overlapping expanded groups, or
//!   member sets sharing a call path) are ever active concurrently;
//! * the per-node concurrency cap is never exceeded;
//! * at most one coarse (non-component) recovery runs at a time, and
//!   never alongside component reboots;
//! * a started microreboot's members and the quarantine set are strictly
//!   ascending by name (the order logs print);
//! * **ack conservation** — once everything drains, the conductor has
//!   acknowledged exactly one `recovery_finished` per submission, no
//!   matter how aggressively tickets coalesced or superseded each other.

use components::descriptor::{ComponentDescriptor, ComponentKind};
use components::graph::DependencyGraph;
use recovery::conductor::{Conductor, ConductorConfig, StartCmd, Submission};
use recovery::RecoveryAction;
use simcore::rng::SimRng;
use simcore::SimTime;
use urb_core::OpCode;

/// Ten beans; B0 groups with B1, B4 groups with B5 and B6.
const BEANS: [&str; 10] = ["B0", "B1", "B2", "B3", "B4", "B5", "B6", "B7", "B8", "B9"];

fn graph() -> DependencyGraph {
    let mut descriptors = vec![ComponentDescriptor::new("PWeb", ComponentKind::Web)];
    for b in BEANS {
        let d = ComponentDescriptor::new(b, ComponentKind::EntityBean);
        let d = match b {
            "B0" => d.with_group_refs(&["B1"]),
            "B4" => d.with_group_refs(&["B5", "B6"]),
            _ => d,
        };
        descriptors.push(d);
    }
    DependencyGraph::build(&descriptors).unwrap()
}

/// Call paths: op k touches bean k; ops 10/11 are two-bean paths that
/// create conflicts between member-disjoint groups (B2–B3, B7–B8).
fn path(op: OpCode) -> &'static [&'static str] {
    match op.0 {
        0 => &["B0"],
        1 => &["B1"],
        2 => &["B2"],
        3 => &["B3"],
        4 => &["B4"],
        5 => &["B5"],
        6 => &["B6"],
        7 => &["B7"],
        8 => &["B8"],
        9 => &["B9"],
        10 => &["B2", "B3"],
        11 => &["B7", "B8"],
        _ => &[],
    }
}

/// What the driver knows about a running ticket, for invariant checks.
enum Blast {
    Members(Vec<&'static str>),
    Coarse,
}

fn blast_of(cmd: &StartCmd) -> Blast {
    match &cmd.action {
        RecoveryAction::Microreboot { components } => Blast::Members(components.clone()),
        _ => Blast::Coarse,
    }
}

fn check_invariants(
    conductor: &Conductor,
    active: &[(recovery::TicketId, Blast)],
    cap: usize,
    step: usize,
) {
    assert!(
        active.len() <= cap.max(1),
        "step {step}: concurrency cap exceeded"
    );
    let ascending = |names: &[&str]| names.windows(2).all(|w| w[0] < w[1]);
    let quarantined = conductor.quarantined(0);
    assert!(
        ascending(&quarantined),
        "step {step}: quarantine set out of order: {quarantined:?}"
    );
    for (_, blast) in active {
        if let Blast::Members(m) = blast {
            assert!(ascending(m), "step {step}: members out of order: {m:?}");
        }
    }
    for (i, (_, a)) in active.iter().enumerate() {
        for (_, b) in &active[i + 1..] {
            match (a, b) {
                (Blast::Members(ma), Blast::Members(mb)) => {
                    assert!(
                        !conductor.conflict_between(ma, mb),
                        "step {step}: two conflicting tickets ran concurrently: \
                         {ma:?} vs {mb:?}"
                    );
                }
                // A coarse recovery running alongside anything is a
                // conflict by definition.
                _ => panic!("step {step}: coarse recovery ran alongside another ticket"),
            }
        }
    }
}

#[test]
fn random_schedules_never_run_conflicting_tickets_and_conserve_acks() {
    for seed in 0..20u64 {
        let mut rng = SimRng::seed_from(0xc0_0d0c + seed);
        let cap = 1 + rng.uniform_usize(4);
        let mut conductor = Conductor::new(
            1,
            ConductorConfig {
                max_concurrent_per_node: cap,
                quarantine: true,
            },
            &graph(),
            path,
        );
        let mut active: Vec<(recovery::TicketId, Blast)> = Vec::new();
        let mut submissions = 0u32;
        let mut acks = 0u32;
        let now = SimTime::from_secs(1);

        for step in 0..300 {
            let do_submit = active.is_empty() || rng.chance(0.6);
            if do_submit {
                let action = if rng.chance(0.07) {
                    match rng.uniform_usize(3) {
                        0 => RecoveryAction::RestartApp,
                        1 => RecoveryAction::RestartProcess,
                        _ => RecoveryAction::RebootOs,
                    }
                } else {
                    let mut names = vec![*rng.pick(&BEANS).unwrap()];
                    if rng.chance(0.3) {
                        names.push(*rng.pick(&BEANS).unwrap());
                    }
                    RecoveryAction::microreboot(&names)
                };
                submissions += 1;
                match conductor.submit(0, action, now) {
                    Submission::Started(cmd) => {
                        active.push((cmd.ticket, blast_of(&cmd)));
                    }
                    Submission::Queued(_) | Submission::Coalesced(_) => {}
                }
            } else {
                let idx = rng.uniform_usize(active.len());
                let (id, _) = active.swap_remove(idx);
                let fin = conductor.on_finished(0, id, now);
                acks += fin.acks;
                for cmd in fin.start {
                    active.push((cmd.ticket, blast_of(&cmd)));
                }
            }
            assert_eq!(conductor.active_count(0), active.len());
            check_invariants(&conductor, &active, cap, step);
        }

        // Drain everything and check conservation.
        while let Some((id, _)) = active.pop() {
            let fin = conductor.on_finished(0, id, now);
            acks += fin.acks;
            for cmd in fin.start {
                active.push((cmd.ticket, blast_of(&cmd)));
            }
            check_invariants(&conductor, &active, cap, usize::MAX);
        }
        assert_eq!(
            conductor.active_count(0),
            0,
            "seed {seed}: nothing left running"
        );
        assert_eq!(conductor.queued_count(0), 0, "seed {seed}: queue drained");
        assert_eq!(
            acks, submissions,
            "seed {seed}: every submission must be acknowledged exactly once"
        );
    }
}

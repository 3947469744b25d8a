//! The evaluation as a table: one [`Experiment`] row per table, figure or
//! extension, in the order `urb exp all` runs them — the paper's order,
//! then the extensions — which is the order of `experiments_output.txt`.
//!
//! Each row's `run` prints the same rows/series the paper reports, side
//! by side with the paper's numbers where the paper gives them.

use cluster::{Sim, SimConfig, World};
use faults::Fault;
use recovery::{PolicyChoice, RecoveryAction, RmConfig};
use simcore::telemetry::SharedBus;
use simcore::SimTime;

mod ablation_drain;
mod ablation_groups;
mod fig1;
mod fig2;
mod fig3;
mod fig4;
mod fig5;
mod fig6;
mod parallel_recovery;
mod sixnines;
mod table1;
mod table2;
mod table3;
mod table5;
mod table6;
mod variance;

/// One experiment: a row of [`EXPERIMENTS`].
pub struct Experiment {
    /// What `urb exp <name>` calls it.
    pub name: &'static str,
    /// What it regenerates, by paper reference.
    pub title: &'static str,
    /// Runs it, printing its tables to stdout; `Err` when the experiment
    /// misses an acceptance bar of its own.
    pub run: fn() -> Result<(), String>,
}

/// Every experiment, in the order `urb exp all` runs them.
pub static EXPERIMENTS: [Experiment; 16] = [
    Experiment {
        name: "table1",
        title: "Table 1: the client workload mix",
        run: table1::run,
    },
    Experiment {
        name: "table2",
        title: "Table 2: recovery from injected faults, worst-case scenarios",
        run: table2::run,
    },
    Experiment {
        name: "table3",
        title: "Table 3: average recovery times under load",
        run: table3::run,
    },
    Experiment {
        name: "fig1",
        title: "Figure 1: action-weighted throughput, JVM restart vs microreboot",
        run: fig1::run,
    },
    Experiment {
        name: "fig2",
        title: "Figure 2: functional disruption as perceived by end users",
        run: fig2::run,
    },
    Experiment {
        name: "fig3",
        title: "Figure 3: failover under normal load, 2/4/6/8 nodes",
        run: fig3::run,
    },
    Experiment {
        name: "fig4",
        title: "Figure 4 + Table 4: failover under doubled load",
        run: fig4::run,
    },
    Experiment {
        name: "table5",
        title: "Table 5: fault-free performance impact",
        run: table5::run,
    },
    Experiment {
        name: "table6",
        title: "Table 6: masking microreboots with HTTP/1.1 Retry-After",
        run: table6::run,
    },
    Experiment {
        name: "fig5",
        title: "Figure 5: relaxing failure detection with cheap recovery",
        run: fig5::run,
    },
    Experiment {
        name: "fig6",
        title: "Figure 6: averting failure with microrejuvenation",
        run: fig6::run,
    },
    Experiment {
        name: "sixnines",
        title: "Section 6.1: failover schemes and the six-nines budget",
        run: sixnines::run,
    },
    Experiment {
        name: "ablation_drain",
        title: "Extension: the drain-delay trade-off of Section 6.2",
        run: ablation_drain::run,
    },
    Experiment {
        name: "ablation_groups",
        title: "Extension: recovery-group density (Section 8)",
        run: ablation_groups::run,
    },
    Experiment {
        name: "variance",
        title: "Extension: seed-sweep variance of the headline result",
        run: variance::run,
    },
    Experiment {
        name: "parallel_recovery",
        title: "Extension: K disjoint faults recover in max, not sum",
        run: parallel_recovery::run,
    },
];

/// The µRB-curable fault of Figures 1, 3, 4 and 5: a transient exception
/// that never stops on its own, in the most frequently called component.
const HOT_FAULT: Fault = Fault::TransientException {
    component: "BrowseCategories",
    calls: u32::MAX,
};

/// The set-up every fault-and-recover experiment shares: a simulation per
/// `config` whose recovery manager (the config's, else the default one)
/// hosts `policy` — the ladder, or its process-restart baseline —,
/// emitting into `bus` when given; each of `faults` injected into node 0
/// at its second; run to second `until`.
fn recovered_run(
    policy: PolicyChoice,
    mut config: SimConfig,
    bus: Option<SharedBus>,
    faults: &[(u64, Fault)],
    until: u64,
) -> World {
    config.rm.get_or_insert_with(RmConfig::default);
    config.policy = policy;
    let mut sim = Sim::new(config);
    if let Some(bus) = bus {
        sim.attach_telemetry(bus);
    }
    for &(at, fault) in faults {
        sim.schedule_fault(SimTime::from_secs(at), 0, fault);
    }
    sim.run_until(SimTime::from_secs(until));
    sim.finish()
}

/// The set-up every commanded-recovery experiment shares: no recovery
/// manager; `action` executed on node 0 `count` times, at t = 60 s and
/// every `spacing` seconds after, then `tail` more seconds of load.
fn commanded_run(
    config: SimConfig,
    action: &RecoveryAction,
    count: u32,
    spacing: u64,
    tail: u64,
) -> World {
    let mut sim = Sim::new(config);
    for i in 0..u64::from(count) {
        sim.schedule_recovery(SimTime::from_secs(60 + spacing * i), 0, action.clone());
    }
    sim.run_until(SimTime::from_secs(60 + spacing * u64::from(count) + tail));
    sim.finish()
}

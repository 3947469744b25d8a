//! The metric catalogue — every name `BENCHMARK.json` declares — and how
//! each value is computed from the rounds of a run.

use crate::layers::UnitCost;
use crate::stats::{median, percentile};
use crate::trace::PHASES;
use crate::workloads::{Round, Workload};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    /// The driver measures spread across ten *different* seeds and wants
    /// it under a third of the bound, so the simulated metrics' bounds
    /// are sized to how much `chaos_ladder_1n`'s 48 random scenarios
    /// differ from seed to seed (up to 5 %; 12 % with 24 scenarios), not
    /// to what a reviewer should tolerate: at one seed they repeat exactly.
    pub bound: f64,
    /// A simulated statistic: identical on every run of one seed.
    pub exact: bool,
    pub about: &'static str,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
        about: "normalised host seconds per round in Sim::new + ledger/bus attach + 60 sim-s warm-up, summed over the round's runs",
    },
    EndToEnd {
        name: "sim_s_per_wall_s",
        unit: "sim-s/s",
        better: Better::Higher,
        bound: 0.25,
        exact: false,
        about: "measured simulated seconds per normalised host second of the measured run_until calls (tracing off)",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
        exact: false,
        about: "VmHWM of the benchmark process when it ends",
    },
    EndToEnd {
        name: "allocs_per_request",
        unit: "count",
        better: Better::Lower,
        bound: 0.15,
        exact: true,
        about: "alloc + realloc calls in the measured windows per request the emulated clients issued",
    },
    EndToEnd {
        name: "good_op_ratio",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.20,
        exact: true,
        about: "client operations in user actions that wholly succeeded, per operation answered in the window (1 - failed_op_ratio)",
    },
    EndToEnd {
        name: "good_ops_per_sim_s",
        unit: "ops/sim-s",
        better: Better::Higher,
        bound: 0.25,
        exact: true,
        about: "good operations per measured simulated second",
    },
    EndToEnd {
        name: "availability_ratio",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.25,
        exact: true,
        about: "share of simulated seconds after the first injection with goodput at or above half the pre-fault rate (1 - downtime share)",
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn low(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn high(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Per-layer metrics, in the order a traced run prints them.
pub const PER_LAYER: [PerLayer; 77] = [
    // The two user-visible statistics that are 0 on a healthy system and
    // so cannot be end-to-end metrics with a relative bound.
    low("cluster.sim.failed_op_ratio", "ratio"),
    low("cluster.sim.downtime_sim_s", "sim-s"),
    // Family 1: counts per workload, exact for a seed.
    low("simcore.event.fired_per_request", "count"),
    low("simcore.event.pending_at_end", "count"),
    low("simcore.telemetry.events_per_request", "count"),
    low("simcore.telemetry.encoded_bytes_per_request", "B"),
    low("cluster.sim.allocs_per_event", "count"),
    high("cluster.sim.events_per_wall_s", "1/s"),
    low("cluster.sim.wall_us_per_request", "us"),
    low("cluster.sim.slice_wall_us_p50", "us"),
    low("cluster.sim.slice_wall_us_p99", "us"),
    high("cluster.sim.slices", "count"),
    high("core.server.submitted", "count"),
    low("core.server.retries_sent", "count"),
    low("core.server.killed", "count"),
    low("core.server.dropped_at_restart", "count"),
    low("core.lifecycle.reboots_begun", "count"),
    low("core.lifecycle.reboot_sim_s", "sim-s"),
    low("statestore.db.reads_per_request", "count"),
    low("statestore.db.writes_per_request", "count"),
    low("statestore.db.commits_per_request", "count"),
    low("statestore.ssm.reads_per_request", "count"),
    low("statestore.ssm.writes_per_request", "count"),
    low("statestore.ssm.lease_expirations", "count"),
    high("statestore.ledger.commit_intents", "count"),
    low("workload.client.retries_issued", "count"),
    low("workload.detect.fires", "count"),
    low("recovery.manager.reports", "count"),
    low("recovery.manager.decisions", "count"),
    low("recovery.manager.storm_damped", "count"),
    low("recovery.conductor.quarantines", "count"),
    // Family 2: unit cost from isolated drivers.
    low("simcore.event.ns_per_step", "ns"),
    low("simcore.telemetry.ns_per_emit_nosink", "ns"),
    low("simcore.telemetry.ns_per_emit_hash", "ns"),
    low("simcore.telemetry.ns_per_emit_metrics", "ns"),
    low("simcore.telemetry.ns_per_emit_recorder", "ns"),
    low("cluster.lb.ns_per_route", "ns"),
    low("core.server.ns_per_read_request", "ns"),
    low("core.server.ns_per_write_request", "ns"),
    low("core.lifecycle.ns_per_microreboot_cycle", "ns"),
    low("statestore.db.ns_per_insert_commit", "ns"),
    low("statestore.db.ns_per_read", "ns"),
    low("statestore.db.ns_per_scan_100", "ns"),
    low("statestore.fasts.ns_per_write", "ns"),
    low("statestore.fasts.ns_per_read", "ns"),
    low("statestore.ssm.ns_per_write", "ns"),
    low("statestore.ssm.ns_per_read", "ns"),
    low("workload.client.ns_per_wake_deliver", "ns"),
    low("workload.taw.ns_per_action", "ns"),
    low("workload.detect.ns_per_response", "ns"),
    low("recovery.manager.ns_per_report", "ns"),
    low("recovery.manager.ns_per_decide", "ns"),
    low("recovery.conductor.ns_per_submit_finish", "ns"),
    low("components.graph.ns_per_recovery_group", "ns"),
    low("ebid.schema.generate_ms", "ms"),
    low("faults.campaign.ns_per_scenario", "ns"),
    // Family 3: attribution of the measured wall time.
    low("simcore.event.est_share", "ratio"),
    low("simcore.telemetry.est_share", "ratio"),
    low("cluster.lb.est_share", "ratio"),
    low("core.server.est_share", "ratio"),
    low("core.lifecycle.est_share", "ratio"),
    low("statestore.db.est_share", "ratio"),
    low("statestore.ssm.est_share", "ratio"),
    low("workload.client.est_share", "ratio"),
    low("recovery.manager.est_share", "ratio"),
    low("cluster.sim.unattributed_share", "ratio"),
    low("cluster.sim.phase_share.submit", "ratio"),
    low("cluster.sim.phase_share.service", "ratio"),
    low("cluster.sim.phase_share.deliver", "ratio"),
    low("cluster.sim.phase_share.recovery", "ratio"),
    low("cluster.sim.phase_share.housekeeping", "ratio"),
    low("trace.overhead_ratio", "ratio"),
    // How much the traced run measured.
    high("trace.rounds_untraced", "count"),
    high("trace.rounds_traced", "count"),
    high("trace.driver_batches_min", "count"),
    // The host as it was during the run: the reference kernel's speed as
    // a share of nominal, and the speed before normalising by it.
    high("host.reference_speed_ratio", "ratio"),
    high("cluster.sim.raw_sim_s_per_wall_s", "sim-s/s"),
];

/// A computed metric value.
pub struct Value {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The simulated end-to-end statistics of one round.
fn simulated_end_to_end(r: &Round) -> [(&'static str, f64); 4] {
    [
        (
            "allocs_per_request",
            ratio(r.allocs as f64, r.counts.requests as f64),
        ),
        (
            "good_op_ratio",
            ratio(r.good_ops as f64, (r.good_ops + r.bad_ops) as f64),
        ),
        ("good_ops_per_sim_s", ratio(r.good_ops as f64, r.sim_s)),
        (
            "availability_ratio",
            1.0 - ratio(r.downtime_sim_s as f64, r.exposed_sim_s as f64),
        ),
    ]
}

/// Every end-to-end metric from a run's untraced rounds: host-time
/// metrics are medians over the rounds, simulated ones are the rounds'
/// common value.
pub fn end_to_end(rounds: &[Round]) -> Vec<Value> {
    let setup: Vec<f64> = rounds.iter().map(Round::norm_setup_s).collect();
    let speed: Vec<f64> = rounds.iter().map(Round::sim_s_per_wall_s).collect();
    let simulated = simulated_end_to_end(&rounds[0]);
    END_TO_END
        .iter()
        .map(|m| Value {
            name: m.name,
            unit: m.unit,
            value: match m.name {
                "setup_s" => median(&setup),
                "sim_s_per_wall_s" => median(&speed),
                "peak_rss_mb" => peak_rss_mb(),
                name => {
                    simulated
                        .iter()
                        .find(|(n, _)| *n == name)
                        .expect("every simulated metric is computed")
                        .1
                }
            },
        })
        .collect()
}

/// What a traced run hands to [`per_layer`].
pub struct TracedRun<'a> {
    pub workload: Workload,
    pub untraced: &'a [Round],
    pub traced: &'a [Round],
    pub unit_costs: &'a [UnitCost],
}

/// Every per-layer metric of a traced run.
pub fn per_layer(run: &TracedRun<'_>) -> Vec<Value> {
    let traced = &run.traced[0];
    let c = &traced.counts;
    let bus = &traced.bus;
    let requests = c.requests as f64;
    let wall = median(
        &run.untraced
            .iter()
            .map(|r| r.measured_wall_s)
            .collect::<Vec<_>>(),
    );
    // Tracing overhead compares walls in normalised seconds, so a drift
    // of the host between neighbouring rounds does not pass for overhead.
    let norm_wall = |rounds: &[Round]| {
        median(
            &rounds
                .iter()
                .map(|r| r.measured_wall_s * r.host_speed)
                .collect::<Vec<_>>(),
        )
    };
    let overhead = ratio(norm_wall(run.traced), norm_wall(run.untraced));
    let slices: Vec<f64> = run
        .traced
        .iter()
        .flat_map(|r| r.slice_wall_us.iter().copied())
        .collect();
    let unit = |name: &str| {
        run.unit_costs
            .iter()
            .find(|u| u.name == name)
            .unwrap_or_else(|| panic!("no driver measures {name}"))
            .value
    };

    // Attribution: unit cost x calls in the window / measured wall. The
    // server's unit cost contains the database work its handlers do, so
    // the database's estimate is taken out of it to keep shares disjoint.
    let share = |ns: f64| ratio(ns / 1e9, wall);
    let reads = (c.requests - c.write_requests) as f64;
    let db_ns = c.db_reads as f64 * unit("statestore.db.ns_per_read")
        + c.db_commits as f64 * unit("statestore.db.ns_per_insert_commit");
    let server_ns = reads * unit("core.server.ns_per_read_request")
        + c.write_requests as f64 * unit("core.server.ns_per_write_request");
    let telemetry_ns_per_event = if run.workload.has_bus() {
        unit("simcore.telemetry.ns_per_emit_hash") + unit("simcore.telemetry.ns_per_emit_metrics")
            - unit("simcore.telemetry.ns_per_emit_nosink")
    } else {
        0.0
    };
    let est = [
        (
            "simcore.event.est_share",
            share(c.events_fired as f64 * unit("simcore.event.ns_per_step")),
        ),
        (
            "simcore.telemetry.est_share",
            share(bus.events as f64 * telemetry_ns_per_event),
        ),
        (
            "cluster.lb.est_share",
            share(requests * unit("cluster.lb.ns_per_route")),
        ),
        ("core.server.est_share", share((server_ns - db_ns).max(0.0))),
        (
            "core.lifecycle.est_share",
            share(c.reboots_begun as f64 * unit("core.lifecycle.ns_per_microreboot_cycle")),
        ),
        ("statestore.db.est_share", share(db_ns)),
        (
            "statestore.ssm.est_share",
            share(
                c.ssm_reads as f64 * unit("statestore.ssm.ns_per_read")
                    + c.ssm_writes as f64 * unit("statestore.ssm.ns_per_write"),
            ),
        ),
        (
            "workload.client.est_share",
            share(requests * unit("workload.client.ns_per_wake_deliver")),
        ),
        (
            "recovery.manager.est_share",
            share(
                c.rm_reports as f64 * unit("recovery.manager.ns_per_report")
                    + c.rm_polls as f64 * unit("recovery.manager.ns_per_decide"),
            ),
        ),
    ];
    let attributed: f64 = est.iter().map(|(_, v)| v).sum();
    let phase_total: u64 = bus.phase_ns.iter().sum();

    let value_of = |name: &'static str| -> f64 {
        if let Some((_, v)) = est.iter().find(|(n, _)| *n == name) {
            return *v;
        }
        if let Some(phase) = name.strip_prefix("cluster.sim.phase_share.") {
            let i = PHASES
                .iter()
                .position(|p| *p == phase)
                .expect("a declared phase");
            return ratio(bus.phase_ns[i] as f64, phase_total as f64);
        }
        match name {
            "cluster.sim.failed_op_ratio" => ratio(
                traced.bad_ops as f64,
                (traced.good_ops + traced.bad_ops) as f64,
            ),
            "cluster.sim.downtime_sim_s" => traced.downtime_sim_s as f64,
            "simcore.event.fired_per_request" => ratio(c.events_fired as f64, requests),
            "simcore.event.pending_at_end" => traced.pending_at_end as f64,
            "simcore.telemetry.events_per_request" => ratio(bus.events as f64, requests),
            "simcore.telemetry.encoded_bytes_per_request" => {
                ratio(bus.encoded_bytes as f64, requests)
            }
            "cluster.sim.allocs_per_event" => {
                ratio(run.untraced[0].allocs as f64, c.events_fired as f64)
            }
            "cluster.sim.events_per_wall_s" => ratio(c.events_fired as f64, wall),
            "cluster.sim.wall_us_per_request" => ratio(wall * 1e6, requests),
            "cluster.sim.slice_wall_us_p50" => percentile(&slices, 50.0),
            "cluster.sim.slice_wall_us_p99" => percentile(&slices, 99.0),
            "cluster.sim.slices" => slices.len() as f64,
            "core.server.submitted" => c.submitted as f64,
            "core.server.retries_sent" => c.retries_sent as f64,
            "core.server.killed" => c.killed as f64,
            "core.server.dropped_at_restart" => bus.dropped_at_restart as f64,
            "core.lifecycle.reboots_begun" => c.reboots_begun as f64,
            "core.lifecycle.reboot_sim_s" => c.reboot_sim_us as f64 / 1e6,
            "statestore.db.reads_per_request" => ratio(c.db_reads as f64, requests),
            "statestore.db.writes_per_request" => ratio(c.db_writes as f64, requests),
            "statestore.db.commits_per_request" => ratio(c.db_commits as f64, requests),
            "statestore.ssm.reads_per_request" => ratio(c.ssm_reads as f64, requests),
            "statestore.ssm.writes_per_request" => ratio(c.ssm_writes as f64, requests),
            "statestore.ssm.lease_expirations" => c.lease_expirations as f64,
            "statestore.ledger.commit_intents" => bus.commit_intents as f64,
            "workload.client.retries_issued" => c.client_retries as f64,
            "workload.detect.fires" => bus.detector_fires as f64,
            "recovery.manager.reports" => c.rm_reports as f64,
            "recovery.manager.decisions" => c.rm_decisions as f64,
            "recovery.manager.storm_damped" => c.storm_damped as f64,
            "recovery.conductor.quarantines" => bus.quarantines as f64,
            "cluster.sim.unattributed_share" => 1.0 - attributed,
            "trace.overhead_ratio" => overhead,
            "host.reference_speed_ratio" => median(
                &run.untraced
                    .iter()
                    .map(|r| r.host_speed)
                    .collect::<Vec<_>>(),
            ),
            "cluster.sim.raw_sim_s_per_wall_s" => median(
                &run.untraced
                    .iter()
                    .map(Round::raw_sim_s_per_wall_s)
                    .collect::<Vec<_>>(),
            ),
            "trace.rounds_untraced" => run.untraced.len() as f64,
            "trace.rounds_traced" => run.traced.len() as f64,
            "trace.driver_batches_min" => {
                run.unit_costs.iter().map(|u| u.batches).min().unwrap_or(0) as f64
            }
            name => unit(name),
        }
    };
    PER_LAYER
        .iter()
        .map(|m| Value {
            name: m.name,
            unit: m.unit,
            value: value_of(m.name),
        })
        .collect()
}

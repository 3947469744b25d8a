//! Ablation (extension): recovery-group density (Section 8, "Isolation").
//!
//! "Dependencies between components need to be minimized, because a dense
//! dependency graph increases the size of recovery groups, making µRBs
//! take longer and be more disruptive." This experiment quantifies that:
//! synthetic applications with increasingly dense hard-reference graphs,
//! measuring recovery-group size, microreboot duration, and the number of
//! requests a microreboot kills.

use crate::report::{banner, Table};
use components::descriptor::{ComponentDescriptor, ComponentId, ComponentKind};
use components::graph::DependencyGraph;
use simcore::{SimDuration, SimTime};
use statestore::FastS;
use urb_core::app::{Application, CallError};
use urb_core::context::CallContext;
use urb_core::server::make_request;
use urb_core::testkit::ToyApp;
use urb_core::{share_db, AppServer, OpCode, Request, ServerConfig, SessionBackend, SubmitOutcome};

/// A synthetic app with N entity beans chained by hard references up to a
/// configurable depth (`density` = how many consecutive beans each bean
/// links to).
struct ChainApp {
    block_size: usize,
}

const N: usize = 16;

/// The beans' names.
static NAMES: [&str; N] = [
    "B00", "B01", "B02", "B03", "B04", "B05", "B06", "B07", "B08", "B09", "B10", "B11", "B12",
    "B13", "B14", "B15",
];

/// Hard-reference slices: beans are partitioned into blocks of
/// `block_size`; each bean hard-links its successor within the block, so
/// the recovery groups are exactly the blocks.
fn refs_for(i: usize, block_size: usize) -> &'static [&'static str] {
    if block_size <= 1 || (i % block_size) == block_size - 1 || i + 1 >= N {
        &[]
    } else {
        &NAMES[i + 1..i + 2]
    }
}

impl Application for ChainApp {
    fn descriptors(&self) -> Vec<ComponentDescriptor> {
        let mut d = vec![ComponentDescriptor::new("Web", ComponentKind::Web)
            .with_costs(SimDuration::from_millis(71), SimDuration::from_millis(957))];
        for (i, name) in NAMES.into_iter().enumerate() {
            d.push(
                ComponentDescriptor::new(name, ComponentKind::EntityBean)
                    .with_group_refs(refs_for(i, self.block_size))
                    .with_costs(SimDuration::from_millis(10), SimDuration::from_millis(450)),
            );
        }
        d
    }

    fn methods_of(&self, _component: &str) -> &'static [&'static str] {
        &["op"]
    }

    fn web_component(&self) -> &'static str {
        "Web"
    }

    fn base_cost(&self, _op: OpCode) -> SimDuration {
        SimDuration::from_millis(10)
    }

    fn handle(&mut self, ctx: &mut CallContext<'_>, req: &Request) -> Result<(), CallError> {
        // Each request touches one bean, chosen by its argument.
        // Bean `i` is deployed right after the web component.
        ctx.call(ComponentId(1 + req.arg as usize % N), "op", |_| Ok(()))
    }

    fn session_valid(&self, _obj: &statestore::session::SessionObject) -> bool {
        true
    }

    fn on_component_reinit(&mut self, _component: &str) {}

    fn on_process_restart(&mut self) {}
}

fn measure(block_size: usize) -> (usize, SimDuration, u64, usize) {
    let app = ChainApp { block_size };
    let graph = DependencyGraph::build(&app.descriptors()).unwrap();
    let b0 = graph.id_of("B00").unwrap();
    let group_size = graph.recovery_group(b0).len();

    let db = share_db(ToyApp::seeded_db(10));
    let mut srv = AppServer::new(
        app,
        ServerConfig::default(),
        db,
        SessionBackend::FastS(FastS::new()),
    );
    // Saturate with in-flight requests touching every bean, then µRB B00.
    let t = SimTime::from_secs(1);
    for i in 0..N as u64 {
        let req = make_request(i, OpCode(0), None, true, i as i64, t);
        if let SubmitOutcome::Admitted = srv.submit(req, t) {
            srv.pump(t);
        }
    }
    let ticket = srv.begin_microreboot(&["B00"], t, None).unwrap();
    let killed = srv.microreboot_crash(ticket.id, t).len() as u64;
    // Probe every bean while the group reboots: how much of the app is
    // unavailable?
    let mut blocked = 0;
    let probe_t = t + SimDuration::from_millis(50);
    for i in 0..N as u64 {
        let req = make_request(1000 + i, OpCode(0), None, true, i as i64, probe_t);
        if let SubmitOutcome::Admitted = srv.submit(req, probe_t) {
            for started in srv.pump(probe_t).to_vec() {
                if let Some(resp) = srv.complete(started.req, started.cpu_done_at) {
                    // Count only the probes; earlier queued load drains
                    // through the same pump.
                    if resp.req.0 >= 1000 && resp.status != urb_core::Status::Ok {
                        blocked += 1;
                    }
                }
            }
        }
    }
    srv.microreboot_complete(ticket.id, ticket.done_at);
    (group_size, ticket.done_at - t, killed, blocked)
}

pub(super) fn run() -> Result<(), String> {
    banner("Ablation: dependency density vs microreboot cost (Section 8)");
    println!("(16 entity beans partitioned into recovery groups of varying size;");
    println!(" B00 microreboots while requests touch every bean)\n");
    let mut t = Table::new(&[
        "group size",
        "uRB duration",
        "in-flight killed",
        "ops blocked during uRB (of 16)",
    ]);
    for block in [1usize, 2, 4, 8, 16] {
        let (group, dur, killed, blocked) = measure(block);
        t.row_owned(vec![
            format!("{group}"),
            format!("{dur}"),
            format!("{killed}"),
            format!("{blocked}"),
        ]);
    }
    t.print();
    println!("\nas the paper warns: hard references chain recovery groups together;");
    println!("with one giant group a 'micro' reboot takes 4x longer and blocks the");
    println!("whole application — exactly why crash-only design minimizes coupling.");
    Ok(())
}

//! Tier-1 pins of the three things every recorded digest in this repo
//! stands on: the canonical byte encoding of the telemetry stream, the
//! seeded scenario generators' draw sequences, and the generated eBid
//! dataset as its queries see it. A refactor of any of these surfaces
//! must leave every value untouched; an intentional change re-pins them
//! in `tests/pins.txt` alongside an EXPERIMENTS.md provenance note.

use std::cell::RefCell;
use std::rc::Rc;

use microreboot::cluster::{Sim, SimConfig};
use microreboot::core::testkit::assert_pins;
use microreboot::ebid::schema::{schema, DatasetSpec, INDEXES};
use microreboot::faults::campaign::{
    degraded_scenarios, netstate_scenarios, scenarios, tournament_scenarios, CampaignConfig,
    Scenario,
};
use microreboot::faults::Fault;
use microreboot::recovery::RmConfig;
use microreboot::simcore::telemetry::{shared_bus, TraceHashSink};
use microreboot::simcore::{MetricsRegistry, SimRng, SimTime};
use microreboot::statestore::db::Row;
use microreboot::statestore::session::{
    corrupt_object, CorruptKind, SessionId, SessionObject, SessionStore,
};
use microreboot::statestore::{FastS, Ssm, TableId, Value};

/// FNV-1a 64's offset basis: the hash of no bytes.
const FNV_EMPTY: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the FNV-1a 64 `hash`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The pins `name.seed7` and `name.seed11`, with `value` at each seed.
fn at_seeds_7_and_11(name: &str, value: impl Fn(u64) -> String) -> [(String, String); 2] {
    [7, 11].map(|seed| (format!("{name}.seed{seed}"), value(seed)))
}

/// What [`two_minutes`] leaves behind: the finished simulation and the two
/// sinks it had on its bus.
struct Run {
    sim: Sim,
    hash: Rc<RefCell<TraceHashSink>>,
    registry: Rc<RefCell<MetricsRegistry>>,
}

/// Runs two simulated minutes with a mid-run fault and an RM-driven
/// recovery, with a trace hash and a metrics registry on the bus.
fn two_minutes(seed: u64) -> Run {
    let mut sim = Sim::new(SimConfig {
        seed,
        rm: Some(RmConfig::default()),
        ..SimConfig::default()
    });
    let bus = shared_bus();
    let hash = Rc::new(RefCell::new(TraceHashSink::new()));
    let registry = Rc::new(RefCell::new(MetricsRegistry::new()));
    bus.borrow_mut().add_sink(Box::new(hash.clone()));
    bus.borrow_mut().add_sink(Box::new(registry.clone()));
    sim.attach_telemetry(bus);
    sim.schedule_fault(
        SimTime::from_mins(1),
        0,
        Fault::TransientException {
            component: "BrowseCategories",
            calls: 30,
        },
    );
    sim.run_until(SimTime::from_mins(2));
    Run {
        sim,
        hash,
        registry,
    }
}

/// Hashes every telemetry event of [`two_minutes`]: the digest, then the
/// event count.
fn trace_hash(seed: u64) -> String {
    let hash = two_minutes(seed).hash;
    let digest = format!("{:016x} {}", hash.borrow().value(), hash.borrow().count());
    digest
}

/// FNV-1a 64 over every registry a [`two_minutes`] run keeps — the bus's,
/// then each node's, then the RM's: the `name=value` lines of
/// `counters()`, then `reboot_ms` as `(count, mean in µs)`. Moves if a
/// counter's value moves, or a counter appears in or drops out of the list.
fn registry_hash(seed: u64) -> String {
    let run = two_minutes(seed);
    let world = run.sim.world();
    let bus = run.registry.borrow();
    let registries = std::iter::once(&*bus)
        .chain(world.nodes.iter().map(|node| node.metrics()))
        .chain(world.rm.iter().map(|rm| rm.metrics()));
    let mut text = String::new();
    for reg in registries {
        for (name, value) in reg.counters() {
            text += &format!("{name}={value}\n");
        }
        let reboots = reg.histogram("reboot_ms").expect("reboot_ms is registered");
        text += &format!(
            "reboot_ms=({}, {})\n",
            reboots.count(),
            reboots.mean().as_micros()
        );
    }
    format!("{:016x}", fnv1a(FNV_EMPTY, text.as_bytes()))
}

/// Recorded before the registry lost its series, client-latency histogram
/// and sketch and its name side maps: what the registries count, and how
/// long their reboots took, is what every report reads.
#[test]
fn metrics_registries_reproduce_the_pinned_counters() {
    assert_pins(&at_seeds_7_and_11("registries", registry_hash));
}

/// The exact digests recorded before the kernel-speed refactor
/// (EXPERIMENTS.md, "trace digests") have to reproduce bit-for-bit: a
/// change that is meant to be behaviour-invisible must never move them.
#[test]
fn refactored_kernel_reproduces_the_pinned_trace_digests() {
    assert_pins(&at_seeds_7_and_11("trace", trace_hash));
}

/// The kernel's own counters after [`two_minutes`], as
/// `Sim::record_kernel_gauges` reports them: events fired, events still
/// pending, and the clock in µs. Events that fire without emitting
/// anything (the no-op `ClientTimeout`s) move these and no digest above.
fn kernel_counters(seed: u64) -> String {
    let run = two_minutes(seed);
    let mut gauges = MetricsRegistry::new();
    run.sim.record_kernel_gauges(&mut gauges, None);
    format!(
        "{} fired, {} pending, clock {} us",
        gauges.gauge("des_events_fired") as u64,
        gauges.gauge("des_queue_depth") as u64,
        run.sim.now().as_micros(),
    )
}

/// Recorded before the event queue's heap was split by horizon: which
/// structure holds an entry must not change what fires, or when.
#[test]
fn event_queue_reproduces_the_pinned_kernel_counters() {
    assert_pins(&at_seeds_7_and_11("kernel", kernel_counters));
}

/// FNV-1a 64 over the `Debug` rendering of a generator's first 64
/// scenarios: moves if any rng draw, its order, or any drawn value does.
fn scenario_hash(generate: fn(&CampaignConfig) -> Vec<Scenario>, seed: u64) -> String {
    let scenarios = generate(&CampaignConfig { seed, runs: 64 });
    let hash = scenarios.iter().fold(FNV_EMPTY, |hash, s| {
        fnv1a(hash, format!("{s:?}").as_bytes())
    });
    format!("{hash:016x}")
}

#[test]
fn scenario_generators_reproduce_the_pinned_draws() {
    type Generator = fn(&CampaignConfig) -> Vec<Scenario>;
    let generators: [(&str, Generator); 4] = [
        ("scenarios.classic", scenarios),
        ("scenarios.tournament", tournament_scenarios),
        ("scenarios.degraded", degraded_scenarios),
        ("scenarios.netstate", netstate_scenarios),
    ];
    let got: Vec<_> = generators
        .iter()
        .flat_map(|&(name, generate)| at_seeds_7_and_11(name, |seed| scenario_hash(generate, seed)))
        .collect();
    assert_pins(&got);
}

/// FNV-1a 64 over the default dataset of `seed` as every reader sees it:
/// each table's rows in primary-key order (canonical cell encoding), then,
/// for every [`INDEXES`] pair and every cell value present in that column
/// in ascending order, the value, the primary keys `scan_eq` visits and
/// the count it reports. Moves if a generator draw, a row, the membership
/// of an index or the order inside one does.
fn dataset_hash(seed: u64) -> String {
    let mut db = DatasetSpec::default().generate(seed);
    let mut hash = FNV_EMPTY;
    let mut feed = |bytes: &[u8]| hash = fnv1a(hash, bytes);
    let mut encoded = Vec::new();
    for table in (0..schema().len()).map(TableId) {
        let hits = db.scan_all(table, usize::MAX, |row: &Row| {
            encoded.clear();
            row.iter().for_each(|cell| cell.encode_into(&mut encoded));
            feed(&encoded);
        });
        feed(&hits.unwrap().rows.to_le_bytes());
    }
    for &(table, column) in INDEXES {
        let mut present = Vec::new();
        db.scan_all(table, usize::MAX, |row: &Row| {
            present.extend(row[column].as_int())
        })
        .unwrap();
        present.sort_unstable();
        present.dedup();
        for value in present {
            feed(&value.to_le_bytes());
            let visit = |row: &Row| feed(&row[0].as_int().unwrap().to_le_bytes());
            let hits = db.scan_eq(table, column, value, usize::MAX, visit);
            feed(&hits.unwrap().rows.to_le_bytes());
        }
    }
    assert_eq!(db.check_indexes(), Ok(()));
    format!("{hash:016x}")
}

/// Recorded from the row-at-a-time `load` and the `BTreeSet<(cell, pk)>`
/// indexes, before the dataset was bulk-built: however it is installed,
/// the dataset and every indexed query over it are bit-identical.
#[test]
fn generated_dataset_reproduces_the_pinned_rows_and_index_scans() {
    assert_pins(&at_seeds_7_and_11("dataset", dataset_hash));
}

/// Attribute keys for [`session_objects`]: out of byte order, with an
/// upper-case key (sorts before every lower-case one) and a key that is a
/// prefix of another.
const SESSION_KEYS: [&str; 7] = [
    "user_id",
    "bid_item",
    "user",
    "Zone",
    "bid_amount",
    "fb_user",
    "buy_item",
];

/// A seeded set of 64 session objects built through the public surface:
/// object 0 is empty; the others set keys in random order, overwrite, and
/// remove present and absent keys, over every `Value` variant; one in
/// four of them then goes through `corrupt_object` with each
/// `CorruptKind` in turn.
fn session_objects(seed: u64) -> Vec<SessionObject> {
    let mut rng = SimRng::seed_from(seed);
    let kinds = [
        None,
        Some(CorruptKind::SetNull),
        Some(CorruptKind::SetInvalid),
        Some(CorruptKind::SetWrong),
    ];
    (0..64)
        .map(|i| {
            let mut obj = SessionObject::new();
            let ops = if i == 0 { 0 } else { rng.uniform_u64(12) };
            for _ in 0..ops {
                let key = *rng.pick(&SESSION_KEYS).expect("keys");
                match rng.uniform_u64(7) {
                    0 => obj.set(key, Value::Null),
                    1 => obj.set(key, rng.next_u64() as i64 >> rng.uniform_u64(64)),
                    2 => obj.set(key, "s".repeat(rng.uniform_usize(20))),
                    3 => obj.set(key, rng.unit_f64() * 1e3),
                    4 => obj.set(key, rng.chance(0.5)),
                    _ => drop(obj.remove(key)),
                }
            }
            if let Some(kind) = kinds[i % 4] {
                corrupt_object(&mut obj, kind);
            }
            obj
        })
        .collect()
}

/// FNV-1a 64 over [`session_objects`] as every reader sees them: per
/// object its `iter()` pairs, `encode()`, `encoded_len()` and taint bit,
/// the `encode()` of the object read back from SSM after a write, and
/// FastS's `in_process_bytes` once the object is written there too.
fn session_hash(seed: u64) -> String {
    let mut hash = FNV_EMPTY;
    let mut feed = |bytes: &[u8]| hash = fnv1a(hash, bytes);
    let mut ssm = Ssm::new(3);
    let mut fasts = FastS::new();
    let mut cell = Vec::new();
    for (i, obj) in session_objects(seed).into_iter().enumerate() {
        let id = SessionId(i as u64);
        for (key, value) in obj.iter() {
            feed(key.as_bytes());
            cell.clear();
            value.encode_into(&mut cell);
            feed(&cell);
        }
        feed(&obj.encode());
        feed(&obj.encoded_len().to_le_bytes());
        feed(&[u8::from(obj.is_tainted())]);
        ssm.write(id, obj.clone()).unwrap();
        let back = ssm.read(id).unwrap().expect("just written");
        assert_eq!(back, obj, "SSM hands back what was written");
        feed(&back.encode());
        fasts.write(id, obj).unwrap();
        feed(&fasts.in_process_bytes().to_le_bytes());
    }
    format!("{hash:016x}")
}

/// Recorded while each object was a `BTreeMap` from `String` keys: however
/// attributes are held, every reader sees them in the same order, with
/// the same bytes and the same accounted size.
#[test]
fn session_objects_marshal_as_pinned() {
    assert_pins(&at_seeds_7_and_11("sessions", session_hash));
}

//! A minimal crash-only application for tests, examples and benches.
//!
//! `ToyApp` is deliberately tiny — one web component, one stateless
//! session bean (`Front`), two entity beans (`Store` and `Ledger`) that
//! share a recovery group — but it exercises every server mechanism:
//! naming lookups, nested calls, transactions, session state, markers and
//! the microreboot kill paths. The real evaluation application (eBid)
//! lives in the `ebid` crate.
//!
//! [`assert_pins`] is the one reader of `tests/pins.txt`, the manifest of
//! every golden value the workspace's tests compare.

use std::collections::BTreeMap;

use components::descriptor::{ComponentDescriptor, ComponentId, ComponentKind};
use simcore::SimDuration;
use statestore::db::TableDef;
use statestore::session::SessionObject;
use statestore::{Database, TableId, Value};

use crate::app::{Application, CallError};
use crate::context::CallContext;
use crate::request::{OpCode, Request};

/// Operations `ToyApp` understands.
pub mod ops {
    use crate::request::OpCode;

    /// Read item `arg` (idempotent).
    pub const GET: OpCode = OpCode(0);
    /// Increment item `arg` (non-idempotent).
    pub const PUT: OpCode = OpCode(1);
    /// Log in as user `arg`.
    pub const LOGIN: OpCode = OpCode(2);
    /// Log out.
    pub const LOGOUT: OpCode = OpCode(3);
    /// Add item `arg` to the session cart.
    pub const CART_ADD: OpCode = OpCode(4);
}

// Deployment handles: positions in `descriptors()` and `schema()`.
const FRONT: ComponentId = ComponentId(1);
const STORE: ComponentId = ComponentId(2);
const LEDGER: ComponentId = ComponentId(3);
const ITEMS: TableId = TableId(0);

/// The toy crash-only application.
#[derive(Default)]
pub struct ToyApp {
    /// Count of component reinit callbacks, for tests.
    pub reinits: u32,
    /// Count of process restart callbacks, for tests.
    pub restarts: u32,
}

impl ToyApp {
    /// Creates the application.
    pub fn new() -> Self {
        ToyApp::default()
    }

    /// Returns the schema the app expects.
    pub fn schema() -> Vec<TableDef> {
        vec![TableDef {
            name: "items",
            columns: &["id", "value"],
        }]
    }

    /// Builds a database pre-populated with `n` items valued 0.
    pub fn seeded_db(n: i64) -> Database {
        let mut db = Database::new(Self::schema());
        db.load(ITEMS, (1..=n).map(|i| vec![Value::Int(i), Value::Int(0)]))
            .expect("unique ids");
        db
    }
}

impl Application for ToyApp {
    fn descriptors(&self) -> Vec<ComponentDescriptor> {
        vec![
            ComponentDescriptor::new("Web", ComponentKind::Web)
                .with_costs(SimDuration::from_millis(71), SimDuration::from_millis(957)),
            ComponentDescriptor::new("Front", ComponentKind::StatelessSessionBean)
                .with_jndi_refs(&["Store", "Ledger"])
                .with_costs(SimDuration::from_millis(10), SimDuration::from_millis(450)),
            ComponentDescriptor::new("Store", ComponentKind::EntityBean)
                .with_group_refs(&["Ledger"])
                .with_costs(SimDuration::from_millis(10), SimDuration::from_millis(500)),
            ComponentDescriptor::new("Ledger", ComponentKind::EntityBean)
                .with_costs(SimDuration::from_millis(12), SimDuration::from_millis(520)),
        ]
    }

    fn methods_of(&self, component: &str) -> &'static [&'static str] {
        match component {
            "Web" => &["dispatch"],
            "Front" => &["get", "put", "login", "logout", "cart_add"],
            "Store" => &["read", "write"],
            "Ledger" => &["append"],
            _ => &[],
        }
    }

    fn web_component(&self) -> &'static str {
        "Web"
    }

    fn base_cost(&self, _op: OpCode) -> SimDuration {
        SimDuration::from_millis(8)
    }

    fn call_path(&self, op: OpCode) -> &'static [&'static str] {
        match op {
            ops::GET => &["Web", "Front", "Store"],
            ops::PUT => &["Web", "Front", "Store", "Ledger"],
            ops::LOGIN | ops::LOGOUT | ops::CART_ADD => &["Web", "Front"],
            _ => &["Web"],
        }
    }

    fn handle(&mut self, ctx: &mut CallContext<'_>, req: &Request) -> Result<(), CallError> {
        match req.op {
            ops::GET => ctx.call(FRONT, "get", |ctx| {
                ctx.call(STORE, "read", |ctx| {
                    let row = ctx.db_read(ITEMS, ctx.arg())?;
                    match row {
                        Some(r) => {
                            if r[1].as_int().unwrap_or(0) < 0 {
                                ctx.mark_invalid_data();
                            }
                            Ok(())
                        }
                        None => {
                            ctx.mark_invalid_data();
                            Ok(())
                        }
                    }
                })
            }),
            ops::PUT => ctx.call(FRONT, "put", |ctx| {
                ctx.call(STORE, "write", |ctx| {
                    let pk = ctx.arg();
                    let row = ctx.db_read(ITEMS, pk)?;
                    match row {
                        Some(r) => {
                            let v = r[1].as_int().unwrap_or(0);
                            ctx.db_update(ITEMS, pk, &[(1, Value::Int(v + 1))])
                        }
                        None => ctx.db_insert(ITEMS, [Value::Int(pk), Value::Int(1)]),
                    }
                })?;
                ctx.call(LEDGER, "append", |_| Ok(()))
            }),
            ops::LOGIN => ctx.call(FRONT, "login", |ctx| {
                ctx.new_session();
                let mut obj = SessionObject::new();
                obj.set("user_id", ctx.arg());
                ctx.session_write(obj)
            }),
            ops::LOGOUT => ctx.call(FRONT, "logout", |ctx| ctx.end_session()),
            ops::CART_ADD => ctx.call(FRONT, "cart_add", |ctx| {
                match ctx.session_read()? {
                    Some(mut obj) => {
                        match obj.get("user_id") {
                            Some(v) if v.as_int().map(Self::valid_user).unwrap_or(false) => {}
                            Some(v) if v.is_null() => {
                                // Null dereference analogue.
                                return Err(CallError::Exception);
                            }
                            _ => {
                                ctx.mark_invalid_data();
                                return Ok(());
                            }
                        }
                        obj.set("cart_item", ctx.arg());
                        ctx.session_write(obj)
                    }
                    None => {
                        ctx.mark_login_prompt();
                        Ok(())
                    }
                }
            }),
            _ => Err(CallError::Exception),
        }
    }

    fn session_valid(&self, obj: &SessionObject) -> bool {
        obj.get("user_id")
            .and_then(Value::as_int)
            .map(Self::valid_user)
            .unwrap_or(false)
    }

    fn on_component_reinit(&mut self, _component: &str) {
        self.reinits += 1;
    }

    fn on_process_restart(&mut self) {
        self.restarts += 1;
    }
}

impl ToyApp {
    fn valid_user(v: i64) -> bool {
        (0..1_000_000).contains(&v)
    }
}

/// `tests/pins.txt`: one `name = value` line per pin, `#` comments.
const PINS: &str = include_str!("../../../tests/pins.txt");

/// Compares each `(name, got)` with the value `tests/pins.txt` pins under
/// `name`. On any mismatch it panics with one `name: pinned → got` line
/// per moved pin, then every value it was given as a manifest line, ready
/// to paste: re-pinning is a reviewed edit of that file, never a flag.
#[track_caller]
pub fn assert_pins(got: &[(impl AsRef<str>, String)]) {
    if let Err(report) = compare(PINS, got) {
        panic!("{report}");
    }
}

/// The manifest's pins by name. Panics on a line without ` = ` or a name
/// pinned twice, naming the line.
fn parse(manifest: &str) -> BTreeMap<&str, &str> {
    let mut pins = BTreeMap::new();
    for (i, line) in manifest.lines().enumerate() {
        if line.trim().is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((name, value)) = line.split_once(" = ") else {
            panic!("tests/pins.txt line {}: no ` = ` in {line:?}", i + 1);
        };
        if pins.insert(name, value).is_some() {
            panic!("tests/pins.txt line {}: {name} is pinned twice", i + 1);
        }
    }
    pins
}

/// The mismatch report [`assert_pins`] panics with, if any pin moved.
/// Panics on a name the manifest does not pin.
fn compare(manifest: &str, got: &[(impl AsRef<str>, String)]) -> Result<(), String> {
    let pins = parse(manifest);
    let mut moved = String::new();
    for (name, value) in got {
        let name = name.as_ref();
        let Some(pinned) = pins.get(name) else {
            panic!("tests/pins.txt pins no {name}");
        };
        if pinned != value {
            moved += &format!("{name}: {pinned} → {value}\n");
        }
    }
    if moved.is_empty() {
        return Ok(());
    }
    let paste: String = got
        .iter()
        .map(|(name, value)| format!("{} = {value}\n", name.as_ref()))
        .collect();
    Err(format!(
        "{moved}\nrecomputed, as tests/pins.txt lines:\n{paste}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "line 2: no ` = `")]
    fn a_line_without_an_equals_sign_names_its_line() {
        parse("# a comment\na=1\n");
    }

    #[test]
    #[should_panic(expected = "line 4: a is pinned twice")]
    fn a_name_pinned_twice_names_its_line() {
        parse("a = 1\n\nb = 2\na = 1\n");
    }

    #[test]
    #[should_panic(expected = "pins no c")]
    fn an_unknown_name_is_named() {
        let _ = compare("a = 1\n", &[("c", "1".to_string())]);
    }

    #[test]
    fn a_moved_pin_is_reported_with_its_paste_line() {
        let manifest = "a = x y\nb = 2\n";
        assert_eq!(compare(manifest, &[("a", "x y".to_string())]), Ok(()));
        let got = [("a", "x y".to_string()), ("b", "3".to_string())];
        let report = compare(manifest, &got).unwrap_err();
        assert!(report.starts_with("b: 2 → 3\n\n"), "{report}");
        assert!(report.ends_with("a = x y\nb = 3\n"), "{report}");
    }

    /// Every 16-hex-digit digest the docs quote, with or without `0x`, is
    /// a word of some pinned value (EXPERIMENTS.md's history is exempt).
    #[test]
    fn every_digest_the_docs_quote_is_pinned() {
        let pinned: Vec<&str> = parse(PINS)
            .into_values()
            .flat_map(str::split_whitespace)
            .collect();
        let docs = [
            ("README.md", include_str!("../../../README.md")),
            ("DESIGN.md", include_str!("../../../DESIGN.md")),
            (
                ".claude/skills/verify/SKILL.md",
                include_str!("../../../.claude/skills/verify/SKILL.md"),
            ),
        ];
        for (doc, text) in docs {
            for word in text.split(|c: char| !c.is_ascii_alphanumeric()) {
                let digest = word.strip_prefix("0x").unwrap_or(word);
                if digest.len() == 16 && digest.bytes().all(|b| b.is_ascii_hexdigit()) {
                    assert!(
                        pinned.contains(&digest),
                        "{doc} quotes {word}, pinned nowhere"
                    );
                }
            }
        }
    }
}

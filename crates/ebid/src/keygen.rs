//! The application-specific primary-key generator.
//!
//! eBid generates primary keys for new rows (bids, items, users, ...) in
//! data-handling code cached inside the IdentityManager entity bean — the
//! paper injects faults in exactly this code (Section 5.1: "the code that
//! generates application-specific primary keys for identifying rows in the
//! DB"). The cache is *volatile component state*: it is rebuilt from the
//! database (max id + 1) whenever IdentityManager reinitializes, which is
//! why an EJB-level microreboot cures all three corruption modes.

use std::collections::BTreeMap;

use statestore::session::CorruptKind;
use statestore::TableId;

/// One table's next-key state.
#[derive(Clone, Copy, Debug)]
enum KeyState {
    /// Cold: must be seeded from the database.
    Cold,
    /// Warm: hand out this id next.
    Warm(i64),
}

/// What the generator handed out.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum KeyResult {
    /// A fresh, unused id.
    Fresh(i64),
    /// The generator's state was nulled: key generation throws.
    NullFailure,
    /// An invalid id (application validation rejects it).
    Invalid(i64),
    /// A *wrong* id: valid-looking but colliding with an existing row.
    WrongExisting(i64),
}

/// The per-table key generator cache: all of it volatile.
#[derive(Clone, Debug, Default)]
pub struct KeyGen {
    states: BTreeMap<TableId, KeyState>,
    corrupt: Option<CorruptKind>,
}

impl KeyGen {
    /// Creates a cold generator.
    pub fn new() -> Self {
        KeyGen::default()
    }

    /// Injects corruption into the generator (Table 2's "corrupt primary
    /// keys" rows).
    pub fn corrupt(&mut self, kind: CorruptKind) {
        self.corrupt = Some(kind);
    }

    /// Returns true if corruption is outstanding.
    pub fn is_corrupt(&self) -> bool {
        self.corrupt.is_some()
    }

    /// Resets the generator — IdentityManager's reinit callback. All
    /// cached counters are dropped (they reseed from the database) and
    /// injected corruption is cleared with them.
    pub fn reset(&mut self) {
        *self = KeyGen::default();
    }

    /// Produces the next key for `table`, reconciling the cached counter
    /// with the database's `SELECT MAX(id)` so that several nodes sharing
    /// one database never hand out colliding keys.
    pub fn next(&mut self, table: TableId, max_in_db: Option<i64>) -> KeyResult {
        let state = self.states.entry(table).or_insert(KeyState::Cold);
        let floor = max_in_db.unwrap_or(0) + 1;
        let base = match *state {
            KeyState::Cold => floor,
            KeyState::Warm(n) => n.max(floor),
        };
        match self.corrupt {
            Some(CorruptKind::SetNull) => KeyResult::NullFailure,
            Some(CorruptKind::SetInvalid) => {
                // Sign-flipped counter: type-checks, fails app validation.
                *state = KeyState::Warm(base + 1);
                KeyResult::Invalid(-base)
            }
            Some(CorruptKind::SetWrong) => {
                // The counter was rewound: it hands out ids of rows that
                // already exist.
                let existing = (base / 2).max(1);
                *state = KeyState::Warm(base + 1);
                KeyResult::WrongExisting(existing)
            }
            None => {
                *state = KeyState::Warm(base + 1);
                KeyResult::Fresh(base)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BIDS: TableId = TableId(3);
    const ITEMS: TableId = TableId(1);

    #[test]
    fn fresh_keys_are_sequential_from_db_max() {
        let mut k = KeyGen::new();
        assert_eq!(k.next(BIDS, Some(100)), KeyResult::Fresh(101));
        assert_eq!(k.next(BIDS, Some(100)), KeyResult::Fresh(102), "cache warm");
        // Another node advanced the table: the floor wins over the cache.
        assert_eq!(k.next(BIDS, Some(999)), KeyResult::Fresh(1000));
        assert_eq!(k.next(ITEMS, Some(10)), KeyResult::Fresh(11));
    }

    #[test]
    fn empty_table_starts_at_one() {
        let mut k = KeyGen::new();
        assert_eq!(k.next(BIDS, None), KeyResult::Fresh(1));
    }

    #[test]
    fn null_corruption_fails_generation() {
        let mut k = KeyGen::new();
        k.corrupt(CorruptKind::SetNull);
        assert_eq!(k.next(BIDS, Some(5)), KeyResult::NullFailure);
    }

    #[test]
    fn invalid_corruption_yields_negative_ids() {
        let mut k = KeyGen::new();
        k.next(BIDS, Some(5)); // warms the cache to 7
        k.corrupt(CorruptKind::SetInvalid);
        assert_eq!(k.next(BIDS, Some(5)), KeyResult::Invalid(-7));
    }

    #[test]
    fn wrong_corruption_collides_with_existing_rows() {
        let mut k = KeyGen::new();
        k.corrupt(CorruptKind::SetWrong);
        match k.next(BIDS, Some(1000)) {
            KeyResult::WrongExisting(id) => assert!((1..=1000).contains(&id)),
            other => panic!("expected collision, got {other:?}"),
        }
    }

    #[test]
    fn reset_clears_cache_and_corruption() {
        let mut k = KeyGen::new();
        k.corrupt(CorruptKind::SetWrong);
        k.next(BIDS, Some(50));
        k.reset();
        assert!(!k.is_corrupt());
        // Reseeds from the database again.
        assert_eq!(k.next(BIDS, Some(200)), KeyResult::Fresh(201));
    }

    #[test]
    fn reset_leaves_a_new_generator() {
        let mut k = KeyGen::new();
        k.corrupt(CorruptKind::SetInvalid);
        k.next(BIDS, Some(50));
        k.next(ITEMS, None);
        assert_ne!(format!("{k:?}"), format!("{:?}", KeyGen::new()));
        k.reset();
        assert_eq!(format!("{k:?}"), format!("{:?}", KeyGen::new()));
    }
}

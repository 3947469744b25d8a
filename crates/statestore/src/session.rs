//! Session objects and the session-store API.
//!
//! Session state is "data that needs to persist for the duration of a user
//! session (e.g., shopping carts)" (Section 3.3). A crash-only application
//! never keeps it in component instances; it reads and writes whole
//! [`SessionObject`]s atomically through a [`SessionStore`], which lets the
//! store — not the application — own recovery of that data.

use std::fmt;
use std::rc::Rc;

use simcore::SimDuration;

use crate::value::Value;

/// Identifier of a user session (the HTTP cookie analogue).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SessionId(pub u64);

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sess-{}", self.0)
    }
}

/// An error from a session store.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// The stored object failed its integrity check and was discarded
    /// (SSM's checksum path in Table 2). The session is gone; the user must
    /// re-establish it.
    CorruptDiscarded(SessionId),
    /// The store is not reachable (e.g., every replica failed).
    Unavailable,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::CorruptDiscarded(id) => {
                write!(f, "corrupt session object {id} discarded")
            }
            StoreError::Unavailable => write!(f, "session store unavailable"),
        }
    }
}

impl std::error::Error for StoreError {}

/// A whole-session state object: a small attribute map.
///
/// Objects are read and written atomically — the store API deliberately has
/// no partial-update operation, mirroring FastS/SSM's
/// "read/write HttpSession objects atomically" contract.
///
/// The attributes are one shared slice sorted by key. Copy-on-write: a
/// clone shares the slice, and a mutation of a shared object builds a new
/// slice before changing anything. A store, the request that read from it
/// and every SSM replica therefore hold one slice until somebody writes;
/// nobody can see anybody else's mutation.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SessionObject {
    attrs: Rc<[(&'static str, Value)]>,
    tainted: bool,
}

impl SessionObject {
    /// Creates an empty session object.
    pub fn new() -> Self {
        SessionObject::default()
    }

    /// Where `key` is in the slice, or where it would go.
    fn find(&self, key: &str) -> Result<usize, usize> {
        self.attrs.binary_search_by(|(k, _)| (*k).cmp(key))
    }

    /// Replaces `attrs[at..skip]` with `new`, building the slice in one
    /// allocation.
    fn splice(&mut self, at: usize, new: Option<(&'static str, Value)>, skip: usize) {
        self.attrs = self.attrs[..at]
            .iter()
            .cloned()
            .chain(new)
            .chain(self.attrs[skip..].iter().cloned())
            .collect();
    }

    /// Sets attribute `key` to `value`.
    ///
    /// Overwriting a key of an unshared object happens in place; a new key,
    /// or any change to a shared object, builds a new slice.
    pub fn set(&mut self, key: &'static str, value: impl Into<Value>) {
        let value = value.into();
        match self.find(key) {
            Ok(at) => match Rc::get_mut(&mut self.attrs) {
                Some(own) => own[at].1 = value,
                None => self.splice(at, Some((key, value)), at + 1),
            },
            Err(at) => self.splice(at, Some((key, value)), at),
        }
    }

    /// Returns attribute `key`, if present.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.find(key).ok().map(|at| &self.attrs[at].1)
    }

    /// Removes attribute `key`, returning its old value. An absent key
    /// changes nothing.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        let at = self.find(key).ok()?;
        let old = self.attrs[at].1.clone();
        self.splice(at, None, at + 1);
        Some(old)
    }

    /// Returns the number of attributes.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// Returns true if the object has no attributes.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// Iterates over `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.attrs.iter().map(|(k, v)| (*k, v))
    }

    /// Serializes the object for checksumming/marshalling.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        for (k, v) in self.attrs.iter() {
            out.extend_from_slice(&(k.len() as u64).to_le_bytes());
            out.extend_from_slice(k.as_bytes());
            v.encode_into(&mut out);
        }
        out
    }

    /// Returns the length of [`SessionObject::encode`]'s output without
    /// building it.
    pub fn encoded_len(&self) -> usize {
        self.attrs
            .iter()
            .map(|(k, v)| 8 + k.len() + v.encoded_len())
            .sum()
    }

    /// Returns the approximate in-memory size in bytes (for the heap model).
    pub(crate) fn approx_bytes(&self) -> usize {
        64 + self.encoded_len() * 2
    }

    /// Marks this object as corrupted by fault injection.
    ///
    /// The taint bit is the comparison detector's oracle; application code
    /// and validators never read it.
    pub fn mark_tainted(&mut self) {
        self.tainted = true;
    }

    /// Returns true if fault injection has corrupted this object.
    pub fn is_tainted(&self) -> bool {
        self.tainted
    }
}

/// The kinds of data corruption the paper injects (Section 5.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CorruptKind {
    /// Set a value to null — generally elicits a null-dereference error on
    /// access.
    SetNull,
    /// Set an invalid value — type-checks but violates application rules
    /// (e.g., a userID larger than the maximum).
    SetInvalid,
    /// Set a wrong value — valid from the application's point of view but
    /// incorrect (e.g., IDs swapped between two users).
    SetWrong,
}

/// The atomic whole-object session store API shared by FastS and SSM.
pub trait SessionStore {
    /// A short name for reports ("FastS" / "SSM").
    fn name(&self) -> &'static str;

    /// Writes (creates or replaces) the object for `id`.
    fn write(&mut self, id: SessionId, obj: SessionObject) -> Result<(), StoreError>;

    /// Reads the object for `id`, or `None` if absent/expired.
    fn read(&mut self, id: SessionId) -> Result<Option<SessionObject>, StoreError>;

    /// Removes the object for `id` (logout). Absent ids are fine.
    fn remove(&mut self, id: SessionId) -> Result<(), StoreError>;

    /// Returns the number of live sessions.
    fn live_sessions(&self) -> usize;

    /// Returns true if stored objects survive a process (JVM) restart.
    fn survives_process_restart(&self) -> bool;

    /// Informs the store that the hosting process restarted.
    ///
    /// In-process stores lose everything; external stores are unaffected.
    fn on_process_restart(&mut self);

    /// Per-read access cost charged to the request (Table 5's latency gap).
    fn read_cost(&self) -> SimDuration;

    /// Per-write access cost charged to the request.
    fn write_cost(&self) -> SimDuration;

    /// Approximate bytes of session data held inside the server process.
    ///
    /// External stores return 0: their memory is on other machines.
    fn in_process_bytes(&self) -> usize;
}

/// Applies one corruption kind to a session object, marking it tainted.
///
/// * `SetNull` nulls every attribute,
/// * `SetInvalid` replaces integer attributes with an out-of-range id,
/// * `SetWrong` perturbs integer attributes plausibly (off-by-one million),
///   which passes validation but yields wrong answers.
pub fn corrupt_object(obj: &mut SessionObject, kind: CorruptKind) {
    for (_, v) in Rc::make_mut(&mut obj.attrs).iter_mut() {
        *v = match (kind, &*v) {
            (CorruptKind::SetNull, _) => Value::Null,
            (CorruptKind::SetInvalid, Value::Int(_)) => Value::Int(i64::MAX),
            (CorruptKind::SetInvalid, _) => Value::Str("\u{fffd}invalid\u{fffd}".into()),
            // Off-by-one: the classic "swapped/shifted id" — valid by every
            // application check, wrong for this user.
            (CorruptKind::SetWrong, Value::Int(n)) => Value::Int(n.wrapping_add(1)),
            (CorruptKind::SetWrong, _) => continue,
        };
    }
    obj.mark_tainted();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribute_roundtrip() {
        let mut o = SessionObject::new();
        assert!(o.is_empty());
        o.set("user_id", 7i64);
        o.set("cart_item", 42i64);
        assert_eq!(o.get("user_id"), Some(&Value::Int(7)));
        assert_eq!(o.len(), 2);
        assert_eq!(o.remove("cart_item"), Some(Value::Int(42)));
        assert_eq!(o.get("cart_item"), None);
    }

    #[test]
    fn encode_changes_with_content() {
        let mut a = SessionObject::new();
        a.set("x", 1i64);
        let mut b = a.clone();
        assert_eq!(a.encode(), b.encode());
        b.set("x", 2i64);
        assert_ne!(a.encode(), b.encode());
    }

    #[test]
    fn taint_is_sticky_until_cleared() {
        let mut o = SessionObject::new();
        assert!(!o.is_tainted());
        o.mark_tainted();
        assert!(o.is_tainted());
        let copy = o.clone();
        assert!(copy.is_tainted(), "taint travels with copies");
    }

    #[test]
    fn corrupt_set_null_nulls_attributes() {
        let mut o = SessionObject::new();
        o.set("user_id", 7i64);
        o.set("name", "alice");
        corrupt_object(&mut o, CorruptKind::SetNull);
        assert!(o.get("user_id").unwrap().is_null());
        assert!(o.get("name").unwrap().is_null());
        assert!(o.is_tainted());
    }

    #[test]
    fn corrupt_set_invalid_is_out_of_range() {
        let mut o = SessionObject::new();
        o.set("user_id", 7i64);
        corrupt_object(&mut o, CorruptKind::SetInvalid);
        assert_eq!(o.get("user_id").unwrap().as_int(), Some(i64::MAX));
    }

    #[test]
    fn corrupt_set_wrong_stays_plausible() {
        let mut o = SessionObject::new();
        o.set("user_id", 7i64);
        corrupt_object(&mut o, CorruptKind::SetWrong);
        let v = o.get("user_id").unwrap().as_int().unwrap();
        assert_ne!(v, 7);
        assert!(v > 0 && v < i64::MAX, "wrong value still looks valid");
        assert!(o.is_tainted());
    }

    #[test]
    fn approx_bytes_grows_with_content() {
        let mut o = SessionObject::new();
        let empty = o.approx_bytes();
        o.set("key", "some session payload");
        assert!(o.approx_bytes() > empty);
    }
}

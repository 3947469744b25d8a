//! Session objects and the session-store API.
//!
//! Session state is "data that needs to persist for the duration of a user
//! session (e.g., shopping carts)" (Section 3.3). A crash-only application
//! never keeps it in component instances; it reads and writes whole
//! [`SessionObject`]s atomically through a [`SessionStore`], which lets the
//! store — not the application — own recovery of that data.

use std::fmt;
use std::rc::Rc;

use crate::value::Value;

/// Identifier of a user session (the HTTP cookie analogue).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SessionId(pub u64);

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sess-{}", self.0)
    }
}

/// How many consecutive session ids one [`SessionMap`] chunk covers
/// (DESIGN.md §9, "Session-keyed state", for how it was chosen).
const CHUNK: u64 = 256;

/// Values keyed by session id, laid out densely by id.
///
/// Each node mints its ids one after another from `node << 32`, so the
/// ids a store holds fill a few dense runs. The map keeps values in
/// chunks of `CHUNK` consecutive ids, behind an index of the chunks
/// that hold anything, sorted by id: a lookup is a binary search over the
/// chunks and an index into one, an insert into a live chunk allocates
/// nothing, and a chunk is freed with its last value. Iteration runs in
/// ascending id order, both directions, as a `BTreeMap<SessionId, V>`
/// would.
///
/// # Examples
///
/// ```
/// use statestore::session::{SessionId, SessionMap};
///
/// let mut map = SessionMap::default();
/// map.insert(SessionId(1 << 32), "node 1");
/// map.insert(SessionId(3), "node 0");
/// let ids: Vec<u64> = map.iter().rev().map(|(id, _)| id.0).collect();
/// assert_eq!(ids, [1 << 32, 3]);
/// assert_eq!(map.remove(SessionId(3)), Some("node 0"));
/// assert_eq!(map.len(), 1);
/// ```
#[derive(Clone)]
pub struct SessionMap<V> {
    /// The chunks holding at least one value, in ascending `base` order.
    chunks: Vec<Chunk<V>>,
    /// Values held, over all chunks.
    len: usize,
}

/// The values of [`CHUNK`] consecutive ids.
#[derive(Clone)]
struct Chunk<V> {
    /// The first id the chunk covers: a multiple of [`CHUNK`].
    base: u64,
    /// How many slots hold a value; never zero in a map.
    live: usize,
    /// Slot `i` holds the value of id `base + i`.
    slots: Box<[Option<V>]>,
}

impl<V> Chunk<V> {
    /// The values with their ids, in ascending id order.
    fn iter(&self) -> impl DoubleEndedIterator<Item = (SessionId, &V)> {
        let base = self.base;
        self.slots
            .iter()
            .enumerate()
            .filter_map(move |(i, v)| Some((SessionId(base + i as u64), v.as_ref()?)))
    }
}

/// `id` as its chunk's base and its slot there.
fn split(id: SessionId) -> (u64, usize) {
    (id.0 - id.0 % CHUNK, (id.0 % CHUNK) as usize)
}

impl<V> Default for SessionMap<V> {
    fn default() -> Self {
        SessionMap {
            chunks: Vec::new(),
            len: 0,
        }
    }
}

impl<V: fmt::Debug> fmt::Debug for SessionMap<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<V> SessionMap<V> {
    /// Where `id`'s chunk is in `chunks` (or would go), and its slot there.
    fn find(&self, id: SessionId) -> (Result<usize, usize>, usize) {
        let (base, slot) = split(id);
        (self.chunks.binary_search_by_key(&base, |c| c.base), slot)
    }

    /// The slot of `id`, making its chunk if there is none; counts the
    /// value in if the slot was empty.
    fn slot_mut(&mut self, id: SessionId) -> &mut Option<V> {
        let (found, slot) = self.find(id);
        let at = found.unwrap_or_else(|at| {
            let chunk = Chunk {
                base: split(id).0,
                live: 0,
                slots: (0..CHUNK).map(|_| None).collect(),
            };
            self.chunks.insert(at, chunk);
            at
        });
        let chunk = &mut self.chunks[at];
        if chunk.slots[slot].is_none() {
            chunk.live += 1;
            self.len += 1;
        }
        &mut chunk.slots[slot]
    }

    /// Returns the number of values held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns true if the map holds no value.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns the value of `id`, if any.
    pub fn get(&self, id: SessionId) -> Option<&V> {
        let (found, slot) = self.find(id);
        self.chunks[found.ok()?].slots[slot].as_ref()
    }

    /// Returns the value of `id` for changing, if any.
    pub fn get_mut(&mut self, id: SessionId) -> Option<&mut V> {
        let (found, slot) = self.find(id);
        self.chunks[found.ok()?].slots[slot].as_mut()
    }

    /// Returns the value of `id`, inserting `V::default()` first if there
    /// is none.
    pub fn get_or_default(&mut self, id: SessionId) -> &mut V
    where
        V: Default,
    {
        self.slot_mut(id).get_or_insert_with(V::default)
    }

    /// Sets the value of `id`, returning the one it replaced.
    pub fn insert(&mut self, id: SessionId, value: V) -> Option<V> {
        self.slot_mut(id).replace(value)
    }

    /// Removes the value of `id`, returning it; frees its chunk if it was
    /// the chunk's last.
    pub fn remove(&mut self, id: SessionId) -> Option<V> {
        let (found, slot) = self.find(id);
        let at = found.ok()?;
        let chunk = &mut self.chunks[at];
        let old = chunk.slots[slot].take()?;
        chunk.live -= 1;
        self.len -= 1;
        if chunk.live == 0 {
            self.chunks.remove(at);
        }
        Some(old)
    }

    /// Keeps only the values for which `keep` returns true, visiting them
    /// in ascending id order; frees every chunk this empties.
    pub fn retain(&mut self, mut keep: impl FnMut(SessionId, &mut V) -> bool) {
        let mut removed = 0;
        self.chunks.retain_mut(|chunk| {
            for (i, value) in chunk.slots.iter_mut().enumerate() {
                let id = SessionId(chunk.base + i as u64);
                if value.as_mut().is_some_and(|v| !keep(id, v)) {
                    *value = None;
                    chunk.live -= 1;
                    removed += 1;
                }
            }
            chunk.live > 0
        });
        self.len -= removed;
    }

    /// Removes every value.
    pub fn clear(&mut self) {
        self.chunks.clear();
        self.len = 0;
    }

    /// The values with their ids, in ascending id order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = (SessionId, &V)> {
        self.chunks.iter().flat_map(Chunk::iter)
    }

    /// The ids held, in ascending order.
    pub fn keys(&self) -> impl DoubleEndedIterator<Item = SessionId> + '_ {
        self.iter().map(|(id, _)| id)
    }

    /// The values, in ascending id order.
    pub fn values(&self) -> impl DoubleEndedIterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }

    /// The values for changing, in ascending id order.
    pub fn values_mut(&mut self) -> impl DoubleEndedIterator<Item = &mut V> {
        self.chunks
            .iter_mut()
            .flat_map(|c| c.slots.iter_mut().flatten())
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
    /// `None` exactly when there are no attributes (never an empty slice,
    /// so the derived `PartialEq` holds): an empty object allocates
    /// nothing.
    attrs: Option<Rc<[(&'static str, Value)]>>,
    tainted: bool,
}

impl SessionObject {
    /// Creates an empty session object.
    pub fn new() -> Self {
        SessionObject::default()
    }

    /// The attributes, sorted by key.
    fn attrs(&self) -> &[(&'static str, Value)] {
        self.attrs.as_deref().unwrap_or_default()
    }

    /// Where `key` is in the slice, or where it would go.
    fn find(&self, key: &str) -> Result<usize, usize> {
        self.attrs().binary_search_by(|(k, _)| (*k).cmp(key))
    }

    /// Replaces `attrs[at..skip]` with `new`, building the slice in one
    /// allocation, or none when nothing is left.
    fn splice(&mut self, at: usize, new: Option<(&'static str, Value)>, skip: usize) {
        let attrs = self.attrs();
        let len = attrs.len() - (skip - at) + usize::from(new.is_some());
        self.attrs = (len > 0).then(|| {
            attrs[..at]
                .iter()
                .cloned()
                .chain(new)
                .chain(attrs[skip..].iter().cloned())
                .collect()
        });
    }

    /// Sets attribute `key` to `value`.
    ///
    /// Overwriting a key of an unshared object happens in place; a new key,
    /// or any change to a shared object, builds a new slice.
    pub fn set(&mut self, key: &'static str, value: impl Into<Value>) {
        let value = value.into();
        match self.find(key) {
            Ok(at) => match self.attrs.as_mut().and_then(Rc::get_mut) {
                Some(own) => own[at].1 = value,
                None => self.splice(at, Some((key, value)), at + 1),
            },
            Err(at) => self.splice(at, Some((key, value)), at),
        }
    }

    /// Returns attribute `key`, if present.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.find(key).ok().map(|at| &self.attrs()[at].1)
    }

    /// Removes attribute `key`, returning its old value. An absent key
    /// changes nothing.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        let at = self.find(key).ok()?;
        let old = self.attrs()[at].1.clone();
        self.splice(at, None, at + 1);
        Some(old)
    }

    /// Iterates over `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.attrs().iter().map(|(k, v)| (*k, v))
    }

    /// Serializes the object for checksumming/marshalling.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Appends [`SessionObject::encode`]'s output to `out`.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        for (k, v) in self.attrs() {
            out.extend_from_slice(&(k.len() as u64).to_le_bytes());
            out.extend_from_slice(k.as_bytes());
            v.encode_into(out);
        }
    }

    /// Returns the length of [`SessionObject::encode`]'s output without
    /// building it.
    pub fn encoded_len(&self) -> usize {
        self.attrs()
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
    /// Writes (creates or replaces) the object for `id`.
    fn write(&mut self, id: SessionId, obj: SessionObject) -> Result<(), StoreError>;

    /// Reads the object for `id`, or `None` if absent/expired.
    fn read(&mut self, id: SessionId) -> Result<Option<SessionObject>, StoreError>;

    /// Removes the object for `id` (logout). Absent ids are fine.
    fn remove(&mut self, id: SessionId) -> Result<(), StoreError>;

    /// Returns the number of live sessions.
    fn live_sessions(&self) -> usize;

    /// Informs the store that the hosting process restarted.
    ///
    /// In-process stores lose everything; external stores are unaffected.
    fn on_process_restart(&mut self);

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
    for (_, v) in obj
        .attrs
        .iter_mut()
        .flat_map(|a| Rc::make_mut(a).iter_mut())
    {
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
        assert_eq!(o.iter().count(), 0);
        o.set("user_id", 7i64);
        o.set("cart_item", 42i64);
        assert_eq!(o.get("user_id"), Some(&Value::Int(7)));
        assert_eq!(o.iter().count(), 2);
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

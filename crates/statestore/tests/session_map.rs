//! Differential test of [`statestore::session::SessionMap`] against the
//! `BTreeMap<SessionId, V>` it replaced in FastS, SSM and the balancer.
//!
//! Both maps are driven with the same seeded random steps: insert,
//! remove, `get_mut`, `get_or_default`, `retain`, `values_mut`, `clear`,
//! and lookups. Ids come from two node ranges (`n << 32`), from a window
//! that drifts up and back down over more ids than several chunks hold,
//! so chunks empty, are freed and fill again. After every step the whole
//! contents must be equal, in order, iterated forwards, backwards and
//! from both ends at once.

use std::collections::BTreeMap;

use simcore::SimRng;
use statestore::session::{SessionId, SessionMap};

/// Ids per node window: more than a few chunks of any size the map uses.
const WINDOW: u64 = 1_500;

/// Draws an id: a node, then an offset near the node's drifting window.
fn draw_id(rng: &mut SimRng, lo: &mut [u64; 2]) -> SessionId {
    let node = rng.uniform_usize(2);
    if rng.chance(0.02) {
        // Drift, mostly upwards as ids are minted, sometimes back over
        // chunks that were freed.
        lo[node] = if rng.chance(0.8) {
            lo[node] + rng.uniform_u64(400)
        } else {
            lo[node].saturating_sub(rng.uniform_u64(800))
        };
    }
    SessionId(((node as u64) << 32) + lo[node] + rng.uniform_u64(WINDOW))
}

/// Every observable of `map` equals `model`'s.
fn assert_same(map: &SessionMap<u64>, model: &BTreeMap<SessionId, u64>, step: usize) {
    let want: Vec<(SessionId, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
    let got: Vec<(SessionId, u64)> = map.iter().map(|(k, v)| (k, *v)).collect();
    assert_eq!(got, want, "step {step}: forward iteration");
    let back: Vec<(SessionId, u64)> = map.iter().rev().map(|(k, v)| (k, *v)).collect();
    let want_back: Vec<(SessionId, u64)> = want.iter().rev().copied().collect();
    assert_eq!(back, want_back, "step {step}: reverse iteration");
    // From both ends at once, meeting in the middle.
    let mut it = map.iter();
    let (mut front, mut rear) = (Vec::new(), Vec::new());
    while let Some((k, _)) = it.next() {
        front.push(k);
        match it.next_back() {
            Some((k, _)) => rear.push(k),
            None => break,
        }
    }
    front.extend(rear.into_iter().rev());
    assert_eq!(
        front,
        model.keys().copied().collect::<Vec<_>>(),
        "step {step}: both ends"
    );
    assert!(map.keys().eq(model.keys().copied()), "step {step}: keys");
    assert!(map.values().eq(model.values()), "step {step}: values");
    assert_eq!(map.len(), model.len(), "step {step}: len");
    assert_eq!(map.is_empty(), model.is_empty(), "step {step}: is_empty");
    assert_eq!(
        map.iter().next_back().map(|(k, _)| k),
        model.keys().next_back().copied()
    );
}

#[test]
fn session_map_matches_a_btreemap() {
    for case in 0..24u64 {
        let mut rng = SimRng::seed_from(0x5e55_1000 + case);
        let mut map = SessionMap::default();
        let mut model = BTreeMap::new();
        let mut lo = [1, 1];
        for step in 0..1_500 {
            let id = draw_id(&mut rng, &mut lo);
            match rng.uniform_usize(100) {
                0..=39 => {
                    let v = rng.next_u64() % 1_000;
                    assert_eq!(
                        map.insert(id, v),
                        model.insert(id, v),
                        "step {step}: insert"
                    );
                }
                40..=69 => assert_eq!(map.remove(id), model.remove(&id), "step {step}: remove"),
                70..=79 => {
                    let got = map.get_mut(id).map(|v| {
                        *v += 1;
                        *v
                    });
                    let want = model.get_mut(&id).map(|v| {
                        *v += 1;
                        *v
                    });
                    assert_eq!(got, want, "step {step}: get_mut");
                }
                80..=89 => {
                    *map.get_or_default(id) += 7;
                    *model.entry(id).or_default() += 7;
                }
                90..=93 => assert_eq!(map.get(id), model.get(&id), "step {step}: get"),
                94..=96 => {
                    let m = 2 + rng.uniform_u64(5);
                    let (mut seen, mut seen_model) = (Vec::new(), Vec::new());
                    map.retain(|k, v| {
                        seen.push(k);
                        *v += 1;
                        *v % m != 0
                    });
                    model.retain(|k, v| {
                        seen_model.push(*k);
                        *v += 1;
                        *v % m != 0
                    });
                    assert_eq!(seen, seen_model, "step {step}: retain visits in id order");
                }
                97..=98 => {
                    map.values_mut().rev().take(40).for_each(|v| *v += 3);
                    model.values_mut().rev().take(40).for_each(|v| *v += 3);
                }
                _ if rng.chance(0.2) => {
                    map.clear();
                    model.clear();
                }
                _ => {}
            }
            assert_same(&map, &model, step);
        }
        assert_eq!(
            format!("{map:?}"),
            format!("{model:?}"),
            "case {case}: Debug"
        );
        let copy = map.clone();
        assert_same(&copy, &model, usize::MAX);
    }
}

#[test]
fn ids_far_apart_keep_their_order() {
    // The SSM is shared by nodes whose ranges are 2^32 apart: only the
    // ids held take room, and the ranges keep their order.
    let mut map = SessionMap::default();
    for node in [3u64, 0, 1 << 31] {
        for k in [1, 2, 1_000_000] {
            map.insert(SessionId((node << 32) + k), node);
        }
    }
    let ids: Vec<u64> = map.keys().map(|id| id.0).collect();
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    assert_eq!(ids, sorted);
    assert_eq!(map.len(), 9);
    for id in ids {
        assert!(map.remove(SessionId(id)).is_some());
    }
    assert!(map.is_empty());
    assert_eq!(map.iter().next(), None);
}

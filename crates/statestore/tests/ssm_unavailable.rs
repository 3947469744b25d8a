//! PHASM's rule (PAPERS.md) on the SSM: a call that fails leaves the
//! store as it was.

use simcore::{SimDuration, SimRng, SimTime};
use statestore::session::{SessionId, SessionObject, SessionStore, StoreError};
use statestore::Ssm;

const IDS: u64 = 5;

/// What a reader can see of `ssm`; the reads go to a healed clone.
fn observe(ssm: &Ssm) -> String {
    let ids = || (0..IDS).map(SessionId);
    let mut healed = ssm.clone();
    healed.clear_net_faults();
    for brick in 0..3 {
        healed.restore_brick(brick);
    }
    format!(
        "probe {:?} tainted {:?} live {} tainted {} reads {:?}",
        ids().map(|id| ssm.probe(id)).collect::<Vec<_>>(),
        ids().map(|id| ssm.is_tainted(id)).collect::<Vec<_>>(),
        ssm.live_sessions(),
        ssm.tainted_sessions(),
        ids().map(|id| healed.read(id)).collect::<Vec<_>>(),
    )
}

/// Every access that returns `Unavailable` — a partitioned link, a lossy
/// one, every brick down — changes nothing a reader could see.
/// `CorruptDiscarded` is the one failure that does, by design: it drops
/// the damaged copies it found.
#[test]
fn an_unavailable_access_leaves_the_store_as_it_was() {
    // Unavailable accesses seen: partitioned, lossy, every brick down.
    let mut failed = [0u32; 3];
    for case in 0..64 {
        let mut rng = SimRng::seed_from(0x0fa1_7000 + case);
        let mut ssm = Ssm::with_lease(3, SimDuration::from_secs(60));
        let (mut now, mut partitioned) = (SimTime::ZERO, false);
        for step in 0..200 {
            let id = SessionId(rng.uniform_u64(IDS));
            let brick = rng.uniform_usize(3);
            match rng.uniform_u64(12) {
                0 => _ = ssm.fail_brick(brick),
                1 => _ = ssm.restore_brick(brick),
                2 => _ = ssm.corrupt_bits(id),
                3 => _ = ssm.corrupt_brick(brick),
                4 => {
                    partitioned = rng.chance(0.3);
                    ssm.set_partitioned(partitioned);
                }
                5 => ssm.set_lossy(rng.uniform_u64(1_001) as u32),
                6 => {
                    now += SimDuration::from_secs(rng.uniform_u64(30));
                    ssm.advance_to(now);
                }
                _ => {
                    let before = ssm.clone();
                    let result = match rng.uniform_u64(3) {
                        0 if rng.chance(0.2) => ssm.write(id, SessionObject::new()),
                        0 => {
                            let mut obj = SessionObject::new();
                            obj.set("user_id", rng.next_u64() as i64);
                            ssm.write(id, obj)
                        }
                        1 => ssm.read(id).map(drop),
                        _ => ssm.remove(id),
                    };
                    if result == Err(StoreError::Unavailable) {
                        let dropped = ssm.stats().net_unavailable > before.stats().net_unavailable;
                        failed[match (dropped, partitioned) {
                            (false, _) => 2,
                            (true, true) => 0,
                            (true, false) => 1,
                        }] += 1;
                        assert_eq!(observe(&ssm), observe(&before), "case {case} step {step}");
                    }
                }
            }
        }
    }
    assert!(
        failed.iter().all(|&n| n > 50),
        "the walk reaches every cause: {failed:?}"
    );
}

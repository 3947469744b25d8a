//! eBid's workload catalog: the 25-state Markov chain of Section 4.
//!
//! Transition probabilities were chosen (as in the paper) so that the
//! resulting operation mix matches the real workload of a major Internet
//! auction site — Table 1: 32% read-only DB access, 23% session
//! init/delete, 12% static content, 12% search, 11% session updates, 10%
//! database updates. The `table1` experiment drives a client population
//! against a live server and reports the observed mix next to the paper's.

use urb_core::OpCode;
use workload::catalog::{ArgKind, Catalog, OpSpec};

use crate::ops::{all_ops, codes, Op, OPS, OP_COUNT};
use crate::schema::DatasetSpec;

/// Structural chains: `(from, to, probability)` — a user who selected an
/// item to bid on usually commits the bid next, and so on.
const CHAINS: [(OpCode, OpCode, f64); 5] = [
    (codes::MAKE_BID, codes::COMMIT_BID, 0.70),
    (codes::DO_BUY_NOW, codes::COMMIT_BUY_NOW, 0.65),
    (
        codes::LEAVE_USER_FEEDBACK,
        codes::COMMIT_USER_FEEDBACK,
        0.70,
    ),
    (codes::SELL_ITEM_FORM, codes::REGISTER_NEW_ITEM, 0.35),
    (codes::REGISTER_USER_FORM, codes::REGISTER_NEW_USER, 0.60),
];

/// Per-state weight of abandoning the site without logging out.
const ABANDON: f64 = 3.5;

fn spec_for(op: OpCode, row: &Op, dataset: &DatasetSpec) -> OpSpec {
    OpSpec {
        op,
        name: row.name,
        group: row.group,
        mix: row.mix,
        idempotent: row.idempotent,
        commit_point: row.commit_point,
        needs_session: row.needs_session,
        is_login: op == codes::LOGIN,
        is_logout: op == codes::LOGOUT,
        arg: row
            .arg
            .map_or(ArgKind::None, |dim| ArgKind::Range(1, dim(dataset))),
    }
}

/// Builds eBid's workload catalog for a dataset shape.
pub fn catalog(dataset: &DatasetSpec) -> Catalog {
    let ops: Vec<OpSpec> = all_ops()
        .zip(&OPS)
        .map(|(op, row)| spec_for(op, row, dataset))
        .collect();
    let mut transitions = Vec::with_capacity(OP_COUNT);
    for from in 0..OP_COUNT {
        let chain = CHAINS.iter().find(|(f, _, _)| usize::from(f.0) == from);
        let chain_share = chain.map(|(_, _, p)| *p).unwrap_or(0.0);
        let pop_total: f64 = OPS.iter().map(|r| r.popularity).sum();
        let mut row: Vec<(usize, f64)> = OPS
            .iter()
            .map(|r| r.popularity)
            .enumerate()
            .filter(|(to, w)| *to != from && *w > 0.0)
            .map(|(to, w)| (to, w * (1.0 - chain_share)))
            .collect();
        if let Some((_, to, p)) = chain {
            let extra = pop_total * p;
            let to = usize::from(to.0);
            match row.iter_mut().find(|(t, _)| *t == to) {
                Some(slot) => slot.1 += extra,
                None => row.push((to, extra)),
            }
        }
        transitions.push(row);
    }
    Catalog {
        ops,
        transitions,
        abandon_weight: vec![ABANDON; OP_COUNT],
        entry_state: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::catalog::MixClass;

    #[test]
    fn catalog_validates() {
        let c = catalog(&DatasetSpec::default());
        c.validate().unwrap();
        assert_eq!(c.ops.len(), 25, "25 Markov states, as in the paper");
    }

    #[test]
    fn exactly_one_login_and_logout() {
        let c = catalog(&DatasetSpec::default());
        assert_eq!(c.ops.iter().filter(|o| o.is_login).count(), 1);
        assert_eq!(c.ops.iter().filter(|o| o.is_logout).count(), 1);
    }

    #[test]
    fn db_updates_are_non_idempotent() {
        let c = catalog(&DatasetSpec::default());
        for o in &c.ops {
            if o.mix == MixClass::DbUpdate {
                assert!(!o.idempotent, "{} must not be retried", o.name);
            }
        }
    }

    #[test]
    fn stationary_mix_is_in_the_right_ballpark() {
        // The *driven* mix (with login redirects) is verified end-to-end in
        // the integration tests; the raw chain should already be close.
        let c = catalog(&DatasetSpec::default());
        for (class, pct) in c.mix_by_class(300) {
            let paper = class.paper_percent();
            // SessionInitDel is deliberately under-weighted in the raw
            // chain: most logins arrive via runtime needs-session
            // redirects, which only the driven run exhibits.
            let tolerance = if class == MixClass::SessionInitDel {
                12.0
            } else {
                8.0
            };
            assert!(
                (pct - paper).abs() < tolerance,
                "{class:?}: chain gives {pct:.1}%, paper says {paper}%"
            );
        }
    }

    #[test]
    fn args_stay_in_dataset_ranges() {
        let spec = DatasetSpec::default();
        let c = catalog(&spec);
        for o in &c.ops {
            if let ArgKind::Range(lo, hi) = o.arg {
                assert!(lo >= 1 && hi >= lo, "{}: bad range", o.name);
                assert!(
                    hi <= spec.bids.max(spec.items),
                    "{}: range too wide",
                    o.name
                );
            }
        }
    }
}

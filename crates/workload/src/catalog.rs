//! Operation catalogs: the metadata the emulator needs about an
//! application's end-user operations, plus the Markov transition matrix.
//!
//! The paper's emulator has 25 states corresponding to eBid's end-user
//! operations; transition probabilities were chosen to mimic a major
//! Internet auction site's real workload (Table 1). The catalog type here
//! is application-agnostic; eBid's concrete catalog lives in the `ebid`
//! crate.

use urb_core::OpCode;

/// Functional groups used in Figure 2's disruption analysis.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum FunctionalGroup {
    /// Bidding, buying and selling operations.
    BidBuySell,
    /// Browsing and item viewing.
    BrowseView,
    /// Search operations.
    Search,
    /// Login, registration, account pages, feedback.
    UserAccount,
}

impl FunctionalGroup {
    /// All groups, in Figure 2's display order.
    pub const ALL: [FunctionalGroup; 4] = [
        FunctionalGroup::BidBuySell,
        FunctionalGroup::BrowseView,
        FunctionalGroup::Search,
        FunctionalGroup::UserAccount,
    ];

    /// Returns a short display label.
    pub fn label(self) -> &'static str {
        match self {
            FunctionalGroup::BidBuySell => "Bid/Buy/Sell",
            FunctionalGroup::BrowseView => "Browse/View",
            FunctionalGroup::Search => "Search",
            FunctionalGroup::UserAccount => "User Account",
        }
    }

    /// Returns the group's wire code for telemetry events.
    pub fn code(self) -> u8 {
        match self {
            FunctionalGroup::BidBuySell => 0,
            FunctionalGroup::BrowseView => 1,
            FunctionalGroup::Search => 2,
            FunctionalGroup::UserAccount => 3,
        }
    }

    /// Decodes a telemetry wire code.
    pub fn from_code(code: u8) -> Option<FunctionalGroup> {
        match code {
            0 => Some(FunctionalGroup::BidBuySell),
            1 => Some(FunctionalGroup::BrowseView),
            2 => Some(FunctionalGroup::Search),
            3 => Some(FunctionalGroup::UserAccount),
            _ => None,
        }
    }
}

/// Table 1's workload-mix classes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum MixClass {
    /// Read-only DB access (e.g., browse a category) — 32%.
    ReadOnlyDb,
    /// Initialization/deletion of session state (e.g., login) — 23%.
    SessionInitDel,
    /// Exclusively static HTML content (e.g., home page) — 12%.
    StaticContent,
    /// Search (e.g., search items by name) — 12%.
    Search,
    /// Session state updates (e.g., select item for bid) — 11%.
    SessionUpdate,
    /// Database updates (e.g., leave seller feedback) — 10%.
    DbUpdate,
}

impl MixClass {
    /// All classes in Table 1's order.
    pub const ALL: [MixClass; 6] = [
        MixClass::ReadOnlyDb,
        MixClass::SessionInitDel,
        MixClass::StaticContent,
        MixClass::Search,
        MixClass::SessionUpdate,
        MixClass::DbUpdate,
    ];

    /// Table 1's paper percentages, for comparison harnesses.
    pub fn paper_percent(self) -> f64 {
        match self {
            MixClass::ReadOnlyDb => 32.0,
            MixClass::SessionInitDel => 23.0,
            MixClass::StaticContent => 12.0,
            MixClass::Search => 12.0,
            MixClass::SessionUpdate => 11.0,
            MixClass::DbUpdate => 10.0,
        }
    }

    /// Returns Table 1's row label.
    pub fn label(self) -> &'static str {
        match self {
            MixClass::ReadOnlyDb => "Read-only DB access",
            MixClass::SessionInitDel => "Init/deletion of session state",
            MixClass::StaticContent => "Exclusively static HTML content",
            MixClass::Search => "Search",
            MixClass::SessionUpdate => "Session state updates",
            MixClass::DbUpdate => "Database updates",
        }
    }
}

/// How to generate the integer argument for an operation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArgKind {
    /// No argument.
    None,
    /// A uniform value in `[lo, hi]`.
    Range(i64, i64),
}

/// Metadata about one end-user operation.
#[derive(Clone, Debug)]
pub struct OpSpec {
    /// The operation code the application dispatches on.
    pub op: OpCode,
    /// Human-readable name (the URL prefix analogue).
    pub name: &'static str,
    /// Functional group for disruption analysis.
    pub group: FunctionalGroup,
    /// Table 1 mix class.
    pub mix: MixClass,
    /// Whether the operation is idempotent (transparent retry is safe).
    pub idempotent: bool,
    /// Whether the operation is a commit point ending a user action.
    pub commit_point: bool,
    /// Whether it requires a logged-in session.
    pub needs_session: bool,
    /// Whether it establishes a session (login).
    pub is_login: bool,
    /// Whether it tears the session down (logout).
    pub is_logout: bool,
    /// Argument generation.
    pub arg: ArgKind,
}

/// An application's operation catalog plus Markov structure.
///
/// State `i` of the Markov chain corresponds to `ops[i]`. `transitions[i]`
/// holds `(next_state, weight)` pairs; `abandon_weight[i]` is the weight of
/// leaving the site from state `i` without logging out.
#[derive(Clone, Debug)]
pub struct Catalog {
    /// The operations, indexed by Markov state.
    pub ops: Vec<OpSpec>,
    /// Outgoing transition weights per state.
    pub transitions: Vec<Vec<(usize, f64)>>,
    /// Weight of abandoning the session from each state.
    pub abandon_weight: Vec<f64>,
    /// The state a fresh session starts in (typically the home page).
    pub entry_state: usize,
}

impl Catalog {
    /// Validates internal consistency, returning a description of the
    /// first problem found.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.ops.len();
        if n == 0 {
            return Err("catalog has no operations".into());
        }
        if self.transitions.len() != n || self.abandon_weight.len() != n {
            return Err("transition tables must cover every state".into());
        }
        if self.entry_state >= n {
            return Err("entry state out of range".into());
        }
        // A weight must be a finite number ≥ 0: `w < 0.0` alone lets NaN
        // through, and a NaN or infinite weight would skew every draw from
        // its state's precomputed total.
        let bad = |w: f64| !(w.is_finite() && w >= 0.0);
        for (i, row) in self.transitions.iter().enumerate() {
            for (next, w) in row {
                if *next >= n {
                    return Err(format!("state {i} points at unknown state {next}"));
                }
                if bad(*w) {
                    return Err(format!("weight {w} out of state {i}"));
                }
            }
            let abandon = self.abandon_weight[i];
            if bad(abandon) {
                return Err(format!("abandon weight {abandon} of state {i}"));
            }
            let total: f64 = row.iter().map(|(_, w)| *w).sum::<f64>() + abandon;
            if total <= 0.0 && !self.ops[i].is_logout {
                return Err(format!("state {i} ({}) is absorbing", self.ops[i].name));
            }
        }
        Ok(())
    }

    /// Returns the spec of an op code.
    pub fn spec(&self, op: OpCode) -> Option<&OpSpec> {
        self.ops.iter().find(|o| o.op == op)
    }

    /// Computes the stationary distribution of operation visits by power
    /// iteration over the embedded session flow (abandonment restarts at
    /// the entry state).
    ///
    /// Used by the Table 1 harness to verify the mix.
    pub(crate) fn stationary_mix(&self, iterations: usize) -> Vec<f64> {
        let n = self.ops.len();
        let mut p = vec![0.0; n];
        p[self.entry_state] = 1.0;
        for _ in 0..iterations {
            let mut next = vec![0.0; n];
            for (i, mass) in p.iter().enumerate() {
                if *mass == 0.0 {
                    continue;
                }
                let total: f64 = self.transitions[i].iter().map(|(_, w)| *w).sum::<f64>()
                    + self.abandon_weight[i];
                if total <= 0.0 {
                    next[self.entry_state] += mass;
                    continue;
                }
                for (j, w) in &self.transitions[i] {
                    next[*j] += mass * w / total;
                }
                // Abandonment re-enters as a fresh session.
                next[self.entry_state] += mass * self.abandon_weight[i] / total;
            }
            p = next;
        }
        let total: f64 = p.iter().sum();
        if total > 0.0 {
            for v in &mut p {
                *v /= total;
            }
        }
        p
    }

    /// Aggregates the stationary mix by Table 1 class, in percent.
    pub fn mix_by_class(&self, iterations: usize) -> Vec<(MixClass, f64)> {
        let mix = self.stationary_mix(iterations);
        MixClass::ALL
            .iter()
            .map(|class| {
                let pct: f64 = self
                    .ops
                    .iter()
                    .zip(&mix)
                    .filter(|(o, _)| o.mix == *class)
                    .map(|(_, p)| *p * 100.0)
                    .sum();
                (*class, pct)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_state() -> Catalog {
        Catalog {
            ops: vec![
                OpSpec {
                    op: OpCode(0),
                    name: "Home",
                    group: FunctionalGroup::BrowseView,
                    mix: MixClass::StaticContent,
                    idempotent: true,
                    commit_point: false,
                    needs_session: false,
                    is_login: false,
                    is_logout: false,
                    arg: ArgKind::None,
                },
                OpSpec {
                    op: OpCode(1),
                    name: "Browse",
                    group: FunctionalGroup::BrowseView,
                    mix: MixClass::ReadOnlyDb,
                    idempotent: true,
                    commit_point: true,
                    needs_session: false,
                    is_login: false,
                    is_logout: false,
                    arg: ArgKind::Range(1, 10),
                },
            ],
            transitions: vec![vec![(1, 1.0)], vec![(0, 1.0), (1, 2.0)]],
            abandon_weight: vec![0.0, 0.5],
            entry_state: 0,
        }
    }

    #[test]
    fn validation_accepts_sane_catalog() {
        assert!(two_state().validate().is_ok());
    }

    #[test]
    fn validation_rejects_absorbing_state() {
        let mut c = two_state();
        c.transitions[1].clear();
        c.abandon_weight[1] = 0.0;
        assert!(c.validate().unwrap_err().contains("absorbing"));
    }

    #[test]
    fn validation_rejects_bad_target() {
        let mut c = two_state();
        c.transitions[0].push((9, 1.0));
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_rejects_a_negative_abandon_weight() {
        let mut c = two_state();
        c.abandon_weight[1] = -0.5;
        assert!(c.validate().unwrap_err().contains("abandon weight -0.5"));
    }

    #[test]
    fn validation_rejects_a_non_finite_transition_weight() {
        for w in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut c = two_state();
            c.transitions[1][1].1 = w;
            assert!(c.validate().unwrap_err().contains("out of state 1"), "{w}");
        }
    }

    #[test]
    fn validation_rejects_a_non_finite_abandon_weight() {
        for w in [f64::NAN, f64::INFINITY] {
            let mut c = two_state();
            c.abandon_weight[0] = w;
            assert!(c.validate().unwrap_err().contains("abandon weight"), "{w}");
        }
    }

    #[test]
    fn stationary_mix_sums_to_one() {
        let c = two_state();
        let mix = c.stationary_mix(200);
        let total: f64 = mix.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(mix[1] > mix[0], "Browse self-loops, so it dominates");
    }

    #[test]
    fn mix_by_class_aggregates() {
        let c = two_state();
        let by_class = c.mix_by_class(200);
        let total: f64 = by_class.iter().map(|(_, p)| *p).sum();
        assert!((total - 100.0).abs() < 1e-6);
    }

    #[test]
    fn lookup_helpers() {
        let c = two_state();
        assert_eq!(c.spec(OpCode(0)).unwrap().name, "Home");
        assert!(c.spec(OpCode(9)).is_none());
    }
}

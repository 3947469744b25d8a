//! eBid's 25 end-user operations and their component call paths.
//!
//! The paper's client emulator has 25 Markov states, one per end-user
//! operation (Login, BuyNow, AboutMe, ...). Each operation maps to a
//! static path of servlets and EJBs — the recovery manager derives exactly
//! this URL-prefix → component-path mapping by static analysis (Section 4)
//! and uses it to score components when failures are reported.

use urb_core::OpCode;
use workload::catalog::{FunctionalGroup as G, MixClass as M};

use crate::components::WAR;
use crate::schema::DatasetSpec;

/// Everything eBid declares about one operation, except its handler.
pub(crate) struct Op {
    /// The display name.
    pub(crate) name: &'static str,
    /// The static URL-prefix → component path (Section 4): the WAR, then
    /// every EJB a request to the operation flows through.
    pub(crate) path: &'static [&'static str],
    /// Figure 2's functional group.
    pub(crate) group: G,
    /// Table 1's mix class.
    pub(crate) mix: M,
    /// The dataset dimension the argument ranges over, `1..=dim`; `None`
    /// if the handler ignores it.
    pub(crate) arg: Option<fn(&DatasetSpec) -> i64>,
    /// Needs a logged-in session.
    pub(crate) needs_session: bool,
    /// Completing the operation makes a user-visible change durable.
    pub(crate) commit_point: bool,
    /// Safe to retry after a failure.
    pub(crate) idempotent: bool,
    /// Base Markov visit weight, tuned so the *observed* mix (with runtime
    /// login redirects and `emulation`'s structural chains) reproduces
    /// Table 1.
    pub(crate) popularity: f64,
    /// Servlet + JSP rendering CPU per request, in ms.
    pub(crate) cpu_ms: u64,
}

/// Starts a row: an idempotent operation that needs no session and takes
/// no argument.
const fn op(name: &'static str, group: G, mix: M, popularity: f64, cpu_ms: u64) -> Op {
    Op {
        name,
        path: &[],
        group,
        mix,
        arg: None,
        needs_session: false,
        commit_point: false,
        idempotent: true,
        popularity,
        cpu_ms,
    }
}

impl Op {
    const fn path(mut self, path: &'static [&'static str]) -> Op {
        self.path = path;
        self
    }

    const fn arg(mut self, dim: fn(&DatasetSpec) -> i64) -> Op {
        self.arg = Some(dim);
        self
    }

    const fn session(mut self) -> Op {
        self.needs_session = true;
        self
    }

    const fn commit_point(mut self) -> Op {
        self.commit_point = true;
        self
    }

    const fn non_idempotent(mut self) -> Op {
        self.idempotent = false;
        self
    }
}

/// The operations, declared once: a row is an operation's code and
/// everything eBid declares about it. A row's position is its code, so
/// the code and the row cannot disagree; `EBid::handle` is the one other
/// place an operation appears.
macro_rules! ops {
    ($($(#[$doc:meta])* $vis:vis const $code:ident = $row:expr;)*) => {
        #[allow(
            non_camel_case_types,
            clippy::upper_case_acronyms,
            reason = "a variant is spelt as its code"
        )]
        enum Position { $($code),* }

        /// Operation codes, one per Markov state.
        pub mod codes {
            use urb_core::OpCode;
            $($(#[$doc])* $vis const $code: OpCode = OpCode(super::Position::$code as u16);)*
        }

        /// Number of operations.
        pub const OP_COUNT: usize = [$(stringify!($code)),*].len();

        /// The rows, in code order.
        pub(crate) static OPS: [Op; OP_COUNT] = [$($row),*];
    };
}

ops! {
    /// The home page (static).
    pub(crate) const HOME = op("Home", G::BrowseView, M::StaticContent, 3.3, 4).path(&[WAR]);
    /// The help page (static).
    pub(crate) const HELP = op("Help", G::BrowseView, M::StaticContent, 0.7, 3).path(&[WAR]);
    /// The sell-an-item form (static, logged-in).
    pub const SELL_ITEM_FORM = op("SellItemForm", G::BidBuySell, M::StaticContent, 2.5, 4)
        .path(&[WAR])
        .session();
    /// The registration form (static).
    pub(crate) const REGISTER_USER_FORM =
        op("RegisterUserForm", G::UserAccount, M::StaticContent, 2.0, 4).path(&[WAR]);
    /// List all categories.
    pub const BROWSE_CATEGORIES = op("BrowseCategories", G::BrowseView, M::ReadOnlyDb, 8.0, 8)
        .path(&[WAR, "BrowseCategories", "Category"]);
    /// List all regions.
    pub(crate) const BROWSE_REGIONS = op("BrowseRegions", G::BrowseView, M::ReadOnlyDb, 1.8, 7)
        .path(&[WAR, "BrowseRegions", "Region"]);
    /// List the items in a category.
    pub const BROWSE_ITEMS_IN_CATEGORY =
        op("BrowseItemsInCategory", G::BrowseView, M::ReadOnlyDb, 7.2, 9)
            .path(&[WAR, "BrowseCategories", "Category", "Item"])
            .arg(|d| d.categories);
    /// List the items in a region.
    pub const BROWSE_ITEMS_IN_REGION =
        op("BrowseItemsInRegion", G::BrowseView, M::ReadOnlyDb, 1.8, 9)
            .path(&[WAR, "BrowseRegions", "Region", "Item"])
            .arg(|d| d.regions);
    /// View one item.
    pub const VIEW_ITEM = op("ViewItem", G::BrowseView, M::ReadOnlyDb, 5.6, 8)
        .path(&[WAR, "ViewItem", "Item", "User"])
        .arg(|d| d.items)
        .commit_point();
    /// View a user's profile and feedback.
    pub const VIEW_USER_INFO = op("ViewUserInfo", G::UserAccount, M::ReadOnlyDb, 1.8, 8)
        .path(&[WAR, "ViewUserInfo", "User", "UserFeedback"])
        .arg(|d| d.users);
    /// View an item's bid history.
    pub const VIEW_BID_HISTORY = op("ViewBidHistory", G::BrowseView, M::ReadOnlyDb, 1.4, 9)
        .path(&[WAR, "ViewBidHistory", "Bid", "Item", "User"])
        .arg(|d| d.items);
    /// View a finished auction.
    pub const VIEW_PAST_AUCTION = op("ViewPastAuction", G::BrowseView, M::ReadOnlyDb, 0.5, 6)
        .path(&[WAR, "ViewItem", "OldItem"])
        .arg(|d| d.old_items);
    /// The personalized summary screen.
    pub const ABOUT_ME = op("AboutMe", G::UserAccount, M::ReadOnlyDb, 1.0, 11)
        .path(&[WAR, "AboutMe", "User", "Item", "Bid", "BuyNow", "UserFeedback"])
        .session();
    /// Search items by category.
    pub const SEARCH_BY_CATEGORY = op("SearchItemsByCategory", G::Search, M::Search, 7.2, 11)
        .path(&[WAR, "SearchItemsByCategory", "Item"])
        .arg(|d| d.categories);
    /// Search items by region.
    pub const SEARCH_BY_REGION = op("SearchItemsByRegion", G::Search, M::Search, 3.6, 11)
        .path(&[WAR, "SearchItemsByRegion", "Item"])
        .arg(|d| d.regions);
    /// Log in (establishes the session).
    // The rest of Login's visits arrive via needs-session redirects.
    pub const LOGIN = op("Login", G::UserAccount, M::SessionInitDel, 5.0, 8)
        .path(&[WAR, "Authenticate", "User"])
        .arg(|d| d.users);
    /// Log out (destroys the session).
    pub const LOGOUT = op("Logout", G::UserAccount, M::SessionInitDel, 7.5, 5)
        .path(&[WAR, "Authenticate"])
        .session()
        .commit_point();
    /// Create an account (and session).
    // The rest of RegisterNewUser's visits arrive via the register form.
    pub const REGISTER_NEW_USER = op("RegisterNewUser", G::UserAccount, M::SessionInitDel, 1.0, 10)
        .path(&[WAR, "RegisterNewUser", "IdentityManager", "User"])
        .commit_point()
        .non_idempotent();
    /// Select an item to bid on (session update).
    pub const MAKE_BID = op("MakeBid", G::BidBuySell, M::SessionUpdate, 7.0, 8)
        .path(&[WAR, "MakeBid", "Item"])
        .arg(|d| d.items)
        .session();
    /// Select an item to buy now (session update).
    pub(crate) const DO_BUY_NOW = op("DoBuyNow", G::BidBuySell, M::SessionUpdate, 2.4, 8)
        .path(&[WAR, "DoBuyNow", "Item"])
        .arg(|d| d.items)
        .session();
    /// Select a user to leave feedback for (session update).
    pub const LEAVE_USER_FEEDBACK =
        op("LeaveUserFeedback", G::UserAccount, M::SessionUpdate, 3.6, 8)
            .path(&[WAR, "LeaveUserFeedback", "User"])
            .arg(|d| d.users)
            .session();
    /// Commit a bid (database update; commit point).
    // Most of CommitBid's visits arrive from MakeBid.
    pub const COMMIT_BID = op("CommitBid", G::BidBuySell, M::DbUpdate, 0.8, 10)
        .path(&[WAR, "CommitBid", "IdentityManager", "Bid", "Item"])
        .arg(|d| d.items)
        .session()
        .commit_point()
        .non_idempotent();
    /// Commit a buy-now purchase.
    pub(crate) const COMMIT_BUY_NOW = op("CommitBuyNow", G::BidBuySell, M::DbUpdate, 0.3, 10)
        .path(&[WAR, "CommitBuyNow", "IdentityManager", "BuyNow", "Item"])
        .arg(|d| d.items)
        .session()
        .commit_point()
        .non_idempotent();
    /// Commit user feedback.
    pub const COMMIT_USER_FEEDBACK =
        op("CommitUserFeedback", G::UserAccount, M::DbUpdate, 0.5, 10)
            .path(&[WAR, "CommitUserFeedback", "IdentityManager", "UserFeedback", "User"])
            .arg(|d| d.users)
            .session()
            .commit_point()
            .non_idempotent();
    /// Put a new item up for auction.
    pub const REGISTER_NEW_ITEM = op("RegisterNewItem", G::BidBuySell, M::DbUpdate, 0.3, 10)
        .path(&[WAR, "RegisterNewItem", "IdentityManager", "Item"])
        .session()
        .commit_point()
        .non_idempotent();
}

fn row(op: OpCode) -> Option<&'static Op> {
    OPS.get(usize::from(op.0))
}

/// The static URL-prefix → component-path mapping (Section 4).
///
/// The first element is always the WAR; subsequent elements are the EJBs a
/// request to this operation flows through.
pub fn call_path(op: OpCode) -> &'static [&'static str] {
    row(op).map_or(&[], |r| r.path)
}

/// Returns the display name of an operation.
pub fn name_of(op: OpCode) -> &'static str {
    row(op).map_or("?", |r| r.name)
}

/// Returns every op code.
pub fn all_ops() -> impl Iterator<Item = OpCode> {
    (0..OP_COUNT as u16).map(OpCode)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_op_has_a_path_starting_at_the_war() {
        for op in all_ops() {
            let path = call_path(op);
            assert!(!path.is_empty(), "{} has no path", name_of(op));
            assert_eq!(path[0], "WAR");
        }
    }

    #[test]
    fn paths_reference_known_components() {
        let descriptors = crate::components::descriptors();
        let names: Vec<&str> = descriptors.iter().map(|d| d.name).collect();
        for op in all_ops() {
            for comp in call_path(op) {
                assert!(names.contains(comp), "unknown component {comp}");
            }
        }
    }

    #[test]
    fn unknown_op_has_empty_path() {
        assert!(call_path(OpCode(99)).is_empty());
        assert_eq!(name_of(OpCode(99)), "?");
    }

    #[test]
    fn browse_categories_is_the_browsing_entry_point() {
        // The paper injects into BrowseCategories as "the entry point for
        // all browsing, the most-frequently called EJB in our workload".
        let both: Vec<_> = [codes::BROWSE_CATEGORIES, codes::BROWSE_ITEMS_IN_CATEGORY]
            .iter()
            .map(|op| call_path(*op))
            .collect();
        for p in both {
            assert!(p.contains(&"BrowseCategories"));
        }
    }
}

//! eBid's 25 end-user operations and their component call paths.
//!
//! The paper's client emulator has 25 Markov states, one per end-user
//! operation (Login, BuyNow, AboutMe, ...). Each operation maps to a
//! static path of servlets and EJBs — the recovery manager derives exactly
//! this URL-prefix → component-path mapping by static analysis (Section 4)
//! and uses it to score components when failures are reported.

use urb_core::OpCode;

/// Operation codes, one per Markov state.
pub mod codes {
    use urb_core::OpCode;

    /// The home page (static).
    pub(crate) const HOME: OpCode = OpCode(0);
    /// The help page (static).
    pub(crate) const HELP: OpCode = OpCode(1);
    /// The sell-an-item form (static, logged-in).
    pub const SELL_ITEM_FORM: OpCode = OpCode(2);
    /// The registration form (static).
    pub(crate) const REGISTER_USER_FORM: OpCode = OpCode(3);
    /// List all categories.
    pub const BROWSE_CATEGORIES: OpCode = OpCode(4);
    /// List all regions.
    pub(crate) const BROWSE_REGIONS: OpCode = OpCode(5);
    /// List the items in a category.
    pub const BROWSE_ITEMS_IN_CATEGORY: OpCode = OpCode(6);
    /// List the items in a region.
    pub const BROWSE_ITEMS_IN_REGION: OpCode = OpCode(7);
    /// View one item.
    pub const VIEW_ITEM: OpCode = OpCode(8);
    /// View a user's profile and feedback.
    pub const VIEW_USER_INFO: OpCode = OpCode(9);
    /// View an item's bid history.
    pub const VIEW_BID_HISTORY: OpCode = OpCode(10);
    /// View a finished auction.
    pub const VIEW_PAST_AUCTION: OpCode = OpCode(11);
    /// The personalized summary screen.
    pub const ABOUT_ME: OpCode = OpCode(12);
    /// Search items by category.
    pub const SEARCH_BY_CATEGORY: OpCode = OpCode(13);
    /// Search items by region.
    pub const SEARCH_BY_REGION: OpCode = OpCode(14);
    /// Log in (establishes the session).
    pub const LOGIN: OpCode = OpCode(15);
    /// Log out (destroys the session).
    pub const LOGOUT: OpCode = OpCode(16);
    /// Create an account (and session).
    pub const REGISTER_NEW_USER: OpCode = OpCode(17);
    /// Select an item to bid on (session update).
    pub const MAKE_BID: OpCode = OpCode(18);
    /// Select an item to buy now (session update).
    pub(crate) const DO_BUY_NOW: OpCode = OpCode(19);
    /// Select a user to leave feedback for (session update).
    pub const LEAVE_USER_FEEDBACK: OpCode = OpCode(20);
    /// Commit a bid (database update; commit point).
    pub const COMMIT_BID: OpCode = OpCode(21);
    /// Commit a buy-now purchase.
    pub(crate) const COMMIT_BUY_NOW: OpCode = OpCode(22);
    /// Commit user feedback.
    pub const COMMIT_USER_FEEDBACK: OpCode = OpCode(23);
    /// Put a new item up for auction.
    pub const REGISTER_NEW_ITEM: OpCode = OpCode(24);
}

/// Number of operations.
pub const OP_COUNT: usize = 25;

/// Human-readable operation names, indexed by op code.
pub(crate) const NAMES: [&str; OP_COUNT] = [
    "Home",
    "Help",
    "SellItemForm",
    "RegisterUserForm",
    "BrowseCategories",
    "BrowseRegions",
    "BrowseItemsInCategory",
    "BrowseItemsInRegion",
    "ViewItem",
    "ViewUserInfo",
    "ViewBidHistory",
    "ViewPastAuction",
    "AboutMe",
    "SearchItemsByCategory",
    "SearchItemsByRegion",
    "Login",
    "Logout",
    "RegisterNewUser",
    "MakeBid",
    "DoBuyNow",
    "LeaveUserFeedback",
    "CommitBid",
    "CommitBuyNow",
    "CommitUserFeedback",
    "RegisterNewItem",
];

/// The static URL-prefix → component-path mapping (Section 4).
///
/// The first element is always the WAR; subsequent elements are the EJBs a
/// request to this operation flows through.
pub fn call_path(op: OpCode) -> &'static [&'static str] {
    match op.0 as usize {
        0..=3 => &["WAR"],
        4 => &["WAR", "BrowseCategories", "Category"],
        5 => &["WAR", "BrowseRegions", "Region"],
        6 => &["WAR", "BrowseCategories", "Category", "Item"],
        7 => &["WAR", "BrowseRegions", "Region", "Item"],
        8 => &["WAR", "ViewItem", "Item", "User"],
        9 => &["WAR", "ViewUserInfo", "User", "UserFeedback"],
        10 => &["WAR", "ViewBidHistory", "Bid", "Item", "User"],
        11 => &["WAR", "ViewItem", "OldItem"],
        12 => &[
            "WAR",
            "AboutMe",
            "User",
            "Item",
            "Bid",
            "BuyNow",
            "UserFeedback",
        ],
        13 => &["WAR", "SearchItemsByCategory", "Item"],
        14 => &["WAR", "SearchItemsByRegion", "Item"],
        15 => &["WAR", "Authenticate", "User"],
        16 => &["WAR", "Authenticate"],
        17 => &["WAR", "RegisterNewUser", "IdentityManager", "User"],
        18 => &["WAR", "MakeBid", "Item"],
        19 => &["WAR", "DoBuyNow", "Item"],
        20 => &["WAR", "LeaveUserFeedback", "User"],
        21 => &["WAR", "CommitBid", "IdentityManager", "Bid", "Item"],
        22 => &["WAR", "CommitBuyNow", "IdentityManager", "BuyNow", "Item"],
        23 => &[
            "WAR",
            "CommitUserFeedback",
            "IdentityManager",
            "UserFeedback",
            "User",
        ],
        24 => &["WAR", "RegisterNewItem", "IdentityManager", "Item"],
        _ => &[],
    }
}

/// Returns the display name of an operation.
pub fn name_of(op: OpCode) -> &'static str {
    NAMES.get(op.0 as usize).copied().unwrap_or("?")
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

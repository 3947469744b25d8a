//! eBid's component roster — the 27 deployment descriptors.
//!
//! The roster mirrors Table 3 of the paper exactly: 17 stateless session
//! beans (one per higher-level user operation), 9 entity beans (the
//! persistent application objects), and the WAR. Five entity beans —
//! Category, Region, User, Item and Bid — share container-spanning
//! relationships and therefore form the one recovery group, `EntityGroup`;
//! microrebooting any of them reboots all five (Section 3.2).
//!
//! Crash and reinit costs are the paper's measured averages (Table 3,
//! 10 trials per component under 500-client load). The five grouped
//! entities have no individual rows in Table 3; their costs are chosen so
//! the group's amortized cost reproduces the EntityGroup row
//! (36 ms crash, 789 ms reinit).

use components::descriptor::{ComponentDescriptor, ComponentKind};
use simcore::SimDuration;

/// Name of the web component.
pub(crate) const WAR: &str = "WAR";

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

fn session(
    name: &'static str,
    refs: &'static [&'static str],
    crash: u64,
    reinit: u64,
) -> ComponentDescriptor {
    ComponentDescriptor::new(name, ComponentKind::StatelessSessionBean)
        .with_jndi_refs(refs)
        .with_costs(ms(crash), ms(reinit))
        .with_base_bytes(3 << 20)
}

fn entity(
    name: &'static str,
    group: &'static [&'static str],
    crash: u64,
    reinit: u64,
) -> ComponentDescriptor {
    ComponentDescriptor::new(name, ComponentKind::EntityBean)
        .with_group_refs(group)
        .with_costs(ms(crash), ms(reinit))
        .with_base_bytes(4 << 20)
}

/// The roster, declared once: a row is a component's handle and its
/// descriptor. `descriptors()` is the rows in order and a handle is its
/// row's position, which is the `ComponentId` deployment gives it, so the
/// two cannot disagree; `schema::tests::handles_name_what_they_claim`
/// checks each row's two spellings of the name.
macro_rules! roster {
    ($($handle:ident: $descriptor:expr,)*) => {
        #[allow(
            non_camel_case_types,
            clippy::upper_case_acronyms,
            reason = "a variant is spelt as its handle"
        )]
        enum Position { $($handle),* }

        /// The handles `app.rs` calls components through.
        #[allow(dead_code, reason = "the server enters the WAR itself")]
        pub(crate) mod ejb {
            use components::descriptor::ComponentId;
            $(pub(crate) const $handle: ComponentId = ComponentId(super::Position::$handle as usize);)*
            #[cfg(test)]
            pub(crate) const SPELT: &[&str] = &[$(stringify!($handle)),*];
        }

        /// Returns eBid's full descriptor set.
        pub fn descriptors() -> Vec<ComponentDescriptor> {
            vec![$($descriptor),*]
        }
    };
}

roster! {
    // --- web tier (Table 3: WAR 71 ms crash, 957 ms reinit) ---
    WAR: ComponentDescriptor::new(WAR, ComponentKind::Web)
        .with_methods(&["dispatch"])
        .with_costs(ms(71), ms(957))
        .with_base_bytes(24 << 20),
    // --- entity beans ---
    // EntityGroup members: max reinit 449 + 4×85 increments ≈ 789 ms,
    // max crash 12 + 4×6 ≈ 36 ms (Table 3 EntityGroup row).
    CATEGORY: entity("Category", &[], 9, 395).with_methods(&["load", "store"]),
    REGION: entity("Region", &[], 10, 400).with_methods(&["load", "store"]),
    USER: entity("User", &[], 11, 430).with_methods(&["load", "store"]),
    ITEM: entity("Item", &["Category", "Region", "User"], 12, 449).with_methods(&["load", "store"]),
    BID: entity("Bid", &["Item", "User"], 10, 420).with_methods(&["load", "store"]),
    // Standalone entities (their own Table 3 rows).
    BUY_NOW: entity("BuyNow", &[], 9, 462).with_methods(&["load", "store"]),
    IDENTITY_MANAGER: entity("IdentityManager", &[], 10, 451).with_methods(&["next_id"]),
    OLD_ITEM: entity("OldItem", &[], 10, 519).with_methods(&["load", "store"]),
    USER_FEEDBACK: entity("UserFeedback", &[], 11, 472).with_methods(&["load", "store"]),
    // --- stateless session beans (Table 3 rows) ---
    ABOUT_ME: session("AboutMe", &["User", "Item", "Bid", "BuyNow", "UserFeedback"], 9, 542)
        .with_methods(&["summary"]),
    AUTHENTICATE: session("Authenticate", &["User"], 12, 479).with_methods(&["login", "logout"]),
    BROWSE_CATEGORIES: session("BrowseCategories", &["Category", "Item"], 11, 400)
        .with_methods(&["list", "items_in"]),
    BROWSE_REGIONS: session("BrowseRegions", &["Region", "Item"], 15, 401)
        .with_methods(&["list", "items_in"]),
    COMMIT_BID: session("CommitBid", &["IdentityManager", "Bid", "Item"], 8, 525)
        .with_methods(&["commit"]),
    COMMIT_BUY_NOW: session("CommitBuyNow", &["IdentityManager", "BuyNow", "Item"], 9, 462)
        .with_methods(&["commit"]),
    COMMIT_USER_FEEDBACK: session("CommitUserFeedback", &["IdentityManager", "UserFeedback", "User"], 9, 522)
        .with_methods(&["commit"]),
    DO_BUY_NOW: session("DoBuyNow", &["Item"], 10, 417).with_methods(&["select"]),
    LEAVE_USER_FEEDBACK: session("LeaveUserFeedback", &["User"], 10, 474).with_methods(&["select"]),
    MAKE_BID: session("MakeBid", &["Item"], 9, 505).with_methods(&["select"]),
    REGISTER_NEW_ITEM: session("RegisterNewItem", &["IdentityManager", "Item"], 13, 434)
        .with_methods(&["register"]),
    REGISTER_NEW_USER: session("RegisterNewUser", &["IdentityManager", "User"], 13, 588)
        .with_methods(&["register"]),
    SEARCH_ITEMS_BY_CATEGORY: session("SearchItemsByCategory", &["Item"], 14, 428)
        .with_methods(&["search"]),
    SEARCH_ITEMS_BY_REGION: session("SearchItemsByRegion", &["Item"], 8, 564)
        .with_methods(&["search"]),
    VIEW_BID_HISTORY: session("ViewBidHistory", &["Bid", "Item", "User"], 11, 496)
        .with_methods(&["history"]),
    VIEW_ITEM: session("ViewItem", &["Item", "User", "OldItem"], 10, 436)
        .with_methods(&["view", "view_old"]),
    VIEW_USER_INFO: session("ViewUserInfo", &["User", "UserFeedback"], 10, 405)
        .with_methods(&["view"]),
}

#[cfg(test)]
mod tests {
    use super::*;
    use components::graph::DependencyGraph;

    #[test]
    fn roster_has_27_components() {
        let d = descriptors();
        assert_eq!(d.len(), 27);
        let sessions = d
            .iter()
            .filter(|x| x.kind == ComponentKind::StatelessSessionBean)
            .count();
        let entities = d
            .iter()
            .filter(|x| x.kind == ComponentKind::EntityBean)
            .count();
        assert_eq!(sessions, 17);
        assert_eq!(entities, 9);
    }

    #[test]
    fn graph_builds_and_entity_group_is_the_five() {
        let graph = DependencyGraph::build(&descriptors()).unwrap();
        let item = graph.id_of("Item").unwrap();
        let group: Vec<&str> = graph
            .recovery_group(item)
            .iter()
            .map(|id| graph.name_of(*id))
            .collect();
        let mut expected = vec!["Category", "Region", "User", "Item", "Bid"];
        expected.sort_unstable();
        let mut got = group.clone();
        got.sort_unstable();
        assert_eq!(got, expected);
        // Everything else recovers alone.
        for name in ["ViewItem", "BuyNow", "IdentityManager", "OldItem", "WAR"] {
            let id = graph.id_of(name).unwrap();
            assert_eq!(graph.recovery_group(id).len(), 1, "{name} stands alone");
        }
    }

    #[test]
    fn costs_match_table3_rows() {
        let d = descriptors();
        let find = |n: &str| d.iter().find(|x| x.name == n).unwrap();
        assert_eq!(find("AboutMe").microreboot_cost(), ms(551));
        assert_eq!(find("BrowseCategories").microreboot_cost(), ms(411));
        assert_eq!(find("RegisterNewUser").microreboot_cost(), ms(601));
        assert_eq!(find("WAR").microreboot_cost(), ms(1028));
        assert_eq!(find("OldItem").microreboot_cost(), ms(529));
    }

    #[test]
    fn every_component_declares_methods() {
        for d in descriptors() {
            assert!(!d.methods.is_empty(), "{} has no methods", d.name);
        }
    }

    #[test]
    fn ejb_reboot_times_span_the_papers_range() {
        // Paper: individual EJB recovery ranges 411–601 ms.
        let d = descriptors();
        let ejb_costs: Vec<u64> = d
            .iter()
            .filter(|x| x.kind == ComponentKind::StatelessSessionBean)
            .map(|x| x.microreboot_cost().as_millis())
            .collect();
        assert_eq!(*ejb_costs.iter().min().unwrap(), 411);
        assert_eq!(*ejb_costs.iter().max().unwrap(), 601);
    }
}

//! The eBid application: request handlers for all 25 end-user operations.
//!
//! eBid follows the crash-only rules of Section 2: handlers are stateless
//! (all important state lives in the database, the session store, or —
//! for the key-generator cache — volatile component state that reseeds on
//! reinit); components are invoked only through the platform's naming
//! service; persistent writes run under container-managed transactions;
//! session objects are read and written whole.

use components::descriptor::ComponentDescriptor;
use simcore::SimDuration;
use statestore::db::Row;
use statestore::session::{CorruptKind, SessionObject};
use statestore::{TableId, Value};
use urb_core::app::{Application, CallError};
use urb_core::context::CallContext;
use urb_core::request::{OpCode, Request};

use crate::components::{descriptors, ejb};
use crate::keygen::{KeyGen, KeyResult};
use crate::ops::{codes, OPS};
use crate::schema::{
    bids, buy_now, categories, comments, items, old_items, regions, users, DatasetSpec,
};

/// Largest user id the application accepts as plausible.
const MAX_PLAUSIBLE_ID: i64 = 1 << 40;

/// The eBid application object.
pub struct EBid {
    keygen: KeyGen,
}

impl EBid {
    /// Creates the application for a dataset of the given shape. The
    /// handlers read the dataset itself from the database, so the shape
    /// is not kept.
    pub fn new(_: DatasetSpec) -> Self {
        EBid {
            keygen: KeyGen::new(),
        }
    }

    /// Fault injection: corrupt the primary-key generator (Table 2).
    pub fn corrupt_keygen(&mut self, kind: CorruptKind) {
        self.keygen.corrupt(kind);
    }

    /// Returns true if the key generator is corrupted.
    pub fn keygen_corrupt(&self) -> bool {
        self.keygen.is_corrupt()
    }

    fn plausible_id(v: i64) -> bool {
        (1..=MAX_PLAUSIBLE_ID).contains(&v)
    }

    /// Reads and validates the logged-in user from the session.
    ///
    /// `Ok(None)` means "no usable session" (the handler should prompt for
    /// login); corruption surfaces as exceptions (null) or invalid-data
    /// markers (implausible ids).
    fn session_user(
        &self,
        ctx: &mut CallContext<'_>,
    ) -> Result<Option<(SessionObject, i64)>, CallError> {
        let Some(obj) = ctx.session_read()? else {
            return Ok(None);
        };
        match obj.get("user_id") {
            None => Ok(None),
            Some(Value::Null) => Err(CallError::Exception),
            Some(v) => match v.as_int() {
                Some(id) if Self::plausible_id(id) => {
                    if obj.is_tainted() {
                        // A wrong-but-plausible user id is about to drive
                        // real work (oracle: writes will diverge).
                        ctx.mark_divergent_inputs();
                    }
                    Ok(Some((obj, id)))
                }
                _ => {
                    // Corrupt-but-typed session data blows up inside the
                    // handler (index out of range, absurd id) — the user
                    // sees an error page, not a login prompt, and keeps
                    // hitting it until the bad object is evicted.
                    ctx.mark_invalid_data();
                    Err(CallError::Exception)
                }
            },
        }
    }

    /// Produces the next primary key for `table` via IdentityManager.
    fn next_id(&mut self, ctx: &mut CallContext<'_>, table: TableId) -> Result<i64, CallError> {
        let keygen = &mut self.keygen;
        ctx.call(ejb::IDENTITY_MANAGER, "next_id", |ctx| {
            let max = ctx.db_max_pk(table)?;
            match keygen.next(table, max) {
                KeyResult::Fresh(id) => Ok(id),
                KeyResult::NullFailure => Err(CallError::Exception),
                KeyResult::Invalid(id) => {
                    // Application-side validation rejects implausible keys.
                    if id <= 0 {
                        Err(CallError::Exception)
                    } else {
                        Ok(id)
                    }
                }
                KeyResult::WrongExisting(id) => Ok(id),
            }
        })
    }

    /// Reads an item row, raising the null-dereference analogue on
    /// corrupted cells and flagging implausible content.
    fn load_item(ctx: &mut CallContext<'_>, item: i64) -> Result<Option<Row>, CallError> {
        let row = ctx.db_read(items::TABLE, item)?;
        if let Some(r) = &row {
            if r[items::NAME].is_null() || r[items::MAX_BID].is_null() {
                return Err(CallError::Exception);
            }
            if r[items::MAX_BID].as_float().unwrap_or(0.0) < 0.0
                || r[items::ID].as_int().unwrap_or(0) < 0
            {
                ctx.mark_invalid_data();
            }
        }
        Ok(row)
    }

    /// Extracts an id-valued session attribute with validation.
    fn session_ref(
        ctx: &mut CallContext<'_>,
        obj: &SessionObject,
        key: &str,
        fallback: i64,
    ) -> Result<i64, CallError> {
        match obj.get(key) {
            None => Ok(fallback),
            Some(Value::Null) => Err(CallError::Exception),
            Some(v) => match v.as_int() {
                Some(id) if Self::plausible_id(id) => {
                    if obj.is_tainted() {
                        ctx.mark_divergent_inputs();
                    }
                    Ok(id)
                }
                _ => {
                    ctx.mark_invalid_data();
                    Ok(fallback)
                }
            },
        }
    }
}

impl Application for EBid {
    fn descriptors(&self) -> Vec<ComponentDescriptor> {
        descriptors()
    }

    fn call_path(&self, op: OpCode) -> &'static [&'static str] {
        crate::ops::call_path(op)
    }

    fn base_cost(&self, op: OpCode) -> SimDuration {
        // The row's servlet + JSP rendering CPU, plus 3 ms of fixed
        // overhead per request; calibrated so steady-state latency lands
        // near Table 5's 15.02 ms with FastS.
        SimDuration::from_millis(OPS[usize::from(op.0)].cpu_ms + 3)
    }

    fn handle(&mut self, ctx: &mut CallContext<'_>, req: &Request) -> Result<(), CallError> {
        let arg = req.arg;
        // WAR preamble: any request carrying a cookie loads its session to
        // render the logged-in header. A cookie that no longer resolves
        // (session lost in a restart, discarded by a checksum, expired)
        // renders the login prompt — the "prompted to log in when already
        // logged in" anomaly the monitors detect.
        if req.session.is_some()
            && req.op != codes::LOGIN
            && req.op != codes::LOGOUT
            && !ctx.session_present()?
        {
            ctx.mark_login_prompt();
            return Ok(());
        }
        match req.op {
            // ---- static pages -------------------------------------------
            codes::HOME | codes::HELP | codes::REGISTER_USER_FORM => Ok(()),
            codes::SELL_ITEM_FORM => {
                if self.session_user(ctx)?.is_none() {
                    ctx.mark_login_prompt();
                }
                Ok(())
            }

            // ---- browsing ------------------------------------------------
            codes::BROWSE_CATEGORIES => ctx.call(ejb::BROWSE_CATEGORIES, "list", |ctx| {
                ctx.call(ejb::CATEGORY, "load", |ctx| {
                    ctx.db_scan_all(categories::TABLE, 20)?;
                    Ok(())
                })
            }),
            codes::BROWSE_REGIONS => ctx.call(ejb::BROWSE_REGIONS, "list", |ctx| {
                ctx.call(ejb::REGION, "load", |ctx| {
                    ctx.db_scan_all(regions::TABLE, 62)?;
                    Ok(())
                })
            }),
            codes::BROWSE_ITEMS_IN_CATEGORY => {
                ctx.call(ejb::BROWSE_CATEGORIES, "items_in", |ctx| {
                    ctx.call(ejb::CATEGORY, "load", |ctx| {
                        let cat = ctx.db_read(categories::TABLE, arg)?;
                        if cat.is_none() {
                            ctx.mark_invalid_data();
                        }
                        Ok(())
                    })?;
                    ctx.call(ejb::ITEM, "load", |ctx| {
                        ctx.db_scan_eq(items::TABLE, items::CATEGORY_ID, arg, 25)?;
                        Ok(())
                    })
                })
            }
            codes::BROWSE_ITEMS_IN_REGION => ctx.call(ejb::BROWSE_REGIONS, "items_in", |ctx| {
                ctx.call(ejb::REGION, "load", |ctx| {
                    let region = ctx.db_read(regions::TABLE, arg)?;
                    if region.is_none() {
                        ctx.mark_invalid_data();
                    }
                    Ok(())
                })?;
                ctx.call(ejb::ITEM, "load", |ctx| {
                    ctx.db_scan_eq(items::TABLE, items::REGION_ID, arg, 25)?;
                    Ok(())
                })
            }),

            // ---- viewing -------------------------------------------------
            codes::VIEW_ITEM => ctx.call(ejb::VIEW_ITEM, "view", |ctx| {
                let row = ctx.call(ejb::ITEM, "load", |ctx| Self::load_item(ctx, arg))?;
                match row {
                    Some(r) => {
                        let seller = r[items::SELLER_ID].as_int().unwrap_or(0);
                        if seller <= 0 {
                            ctx.mark_invalid_data();
                            return Ok(());
                        }
                        ctx.call(ejb::USER, "load", |ctx| {
                            if ctx.db_read(users::TABLE, seller)?.is_none() {
                                ctx.mark_invalid_data();
                            }
                            Ok(())
                        })
                    }
                    None => {
                        ctx.mark_invalid_data();
                        Ok(())
                    }
                }
            }),
            codes::VIEW_USER_INFO => ctx.call(ejb::VIEW_USER_INFO, "view", |ctx| {
                ctx.call(ejb::USER, "load", |ctx| {
                    let user = ctx.db_read(users::TABLE, arg)?;
                    match user {
                        Some(u) => {
                            if u[users::NICKNAME].is_null() {
                                return Err(CallError::Exception);
                            }
                            if u[users::RATING].as_int().unwrap_or(0) < 0 {
                                ctx.mark_invalid_data();
                            }
                            Ok(())
                        }
                        None => {
                            ctx.mark_invalid_data();
                            Ok(())
                        }
                    }
                })?;
                ctx.call(ejb::USER_FEEDBACK, "load", |ctx| {
                    ctx.db_scan_eq(comments::TABLE, comments::TO_USER, arg, 10)?;
                    Ok(())
                })
            }),
            codes::VIEW_BID_HISTORY => ctx.call(ejb::VIEW_BID_HISTORY, "history", |ctx| {
                ctx.call(ejb::BID, "load", |ctx| {
                    ctx.db_scan_eq(bids::TABLE, bids::ITEM_ID, arg, 20)?;
                    Ok(())
                })?;
                ctx.call(ejb::ITEM, "load", |ctx| {
                    Self::load_item(ctx, arg)?;
                    Ok(())
                })?;
                ctx.call(ejb::USER, "load", |_| Ok(()))
            }),
            codes::VIEW_PAST_AUCTION => ctx.call(ejb::VIEW_ITEM, "view_old", |ctx| {
                ctx.call(ejb::OLD_ITEM, "load", |ctx| {
                    let row = ctx.db_read(old_items::TABLE, arg)?;
                    match row {
                        Some(r) if r[old_items::NAME].is_null() => Err(CallError::Exception),
                        Some(_) => Ok(()),
                        None => {
                            ctx.mark_invalid_data();
                            Ok(())
                        }
                    }
                })
            }),
            codes::ABOUT_ME => {
                let Some((_, user)) = self.session_user(ctx)? else {
                    ctx.mark_login_prompt();
                    return Ok(());
                };
                ctx.call(ejb::ABOUT_ME, "summary", |ctx| {
                    ctx.call(ejb::USER, "load", |ctx| {
                        if ctx.db_read(users::TABLE, user)?.is_none() {
                            ctx.mark_invalid_data();
                        }
                        Ok(())
                    })?;
                    ctx.call(ejb::ITEM, "load", |ctx| {
                        ctx.db_scan_eq(items::TABLE, items::SELLER_ID, user, 10)?;
                        Ok(())
                    })?;
                    ctx.call(ejb::BID, "load", |ctx| {
                        ctx.db_scan_eq(bids::TABLE, bids::USER_ID, user, 10)?;
                        Ok(())
                    })?;
                    ctx.call(ejb::BUY_NOW, "load", |ctx| {
                        ctx.db_scan_eq(buy_now::TABLE, buy_now::BUYER_ID, user, 10)?;
                        Ok(())
                    })?;
                    ctx.call(ejb::USER_FEEDBACK, "load", |ctx| {
                        ctx.db_scan_eq(comments::TABLE, comments::TO_USER, user, 10)?;
                        Ok(())
                    })
                })
            }

            // ---- search --------------------------------------------------
            codes::SEARCH_BY_CATEGORY => ctx.call(ejb::SEARCH_ITEMS_BY_CATEGORY, "search", |ctx| {
                ctx.call(ejb::ITEM, "load", |ctx| {
                    ctx.db_scan_eq(items::TABLE, items::CATEGORY_ID, arg, 25)?;
                    Ok(())
                })
            }),
            codes::SEARCH_BY_REGION => ctx.call(ejb::SEARCH_ITEMS_BY_REGION, "search", |ctx| {
                ctx.call(ejb::ITEM, "load", |ctx| {
                    ctx.db_scan_eq(items::TABLE, items::REGION_ID, arg, 25)?;
                    Ok(())
                })
            }),

            // ---- session management ---------------------------------------
            codes::LOGIN => ctx.call(ejb::AUTHENTICATE, "login", |ctx| {
                let user = ctx.call(ejb::USER, "load", |ctx| {
                    let row = ctx.db_read(users::TABLE, arg)?;
                    match row {
                        Some(u) if u[users::NICKNAME].is_null() => Err(CallError::Exception),
                        Some(_) => Ok(Some(arg)),
                        None => Ok(None),
                    }
                })?;
                match user {
                    Some(uid) => {
                        ctx.new_session();
                        let mut obj = SessionObject::new();
                        obj.set("user_id", uid);
                        ctx.session_write(obj)
                    }
                    None => {
                        ctx.mark_invalid_data();
                        Ok(())
                    }
                }
            }),
            codes::LOGOUT => ctx.call(ejb::AUTHENTICATE, "logout", |ctx| ctx.end_session()),
            codes::REGISTER_NEW_USER => {
                let id = self.next_id(ctx, users::TABLE)?;
                ctx.call(ejb::REGISTER_NEW_USER, "register", |ctx| {
                    ctx.call(ejb::USER, "store", |ctx| {
                        ctx.db_insert_or_overwrite(
                            users::TABLE,
                            [
                                Value::Int(id),
                                Value::from(format!("user-{id}")),
                                Value::Int(0),
                                Value::Int(0),
                                Value::Int(1),
                            ],
                        )?;
                        Ok(())
                    })?;
                    ctx.new_session();
                    let mut obj = SessionObject::new();
                    obj.set("user_id", id);
                    ctx.session_write(obj)
                })
            }

            // ---- session-state updates -----------------------------------
            codes::MAKE_BID => {
                let Some((mut obj, _user)) = self.session_user(ctx)? else {
                    ctx.mark_login_prompt();
                    return Ok(());
                };
                ctx.call(ejb::MAKE_BID, "select", |ctx| {
                    let row = ctx.call(ejb::ITEM, "load", |ctx| Self::load_item(ctx, arg))?;
                    match row {
                        Some(r) => {
                            let current = r[items::MAX_BID].as_float().unwrap_or(0.0);
                            obj.set("bid_item", arg);
                            obj.set("bid_amount", current + 10.0);
                            ctx.session_write(obj)
                        }
                        None => {
                            ctx.mark_invalid_data();
                            Ok(())
                        }
                    }
                })
            }
            codes::DO_BUY_NOW => {
                let Some((mut obj, _user)) = self.session_user(ctx)? else {
                    ctx.mark_login_prompt();
                    return Ok(());
                };
                ctx.call(ejb::DO_BUY_NOW, "select", |ctx| {
                    let row = ctx.call(ejb::ITEM, "load", |ctx| Self::load_item(ctx, arg))?;
                    match row {
                        Some(_) => {
                            obj.set("buy_item", arg);
                            ctx.session_write(obj)
                        }
                        None => {
                            ctx.mark_invalid_data();
                            Ok(())
                        }
                    }
                })
            }
            codes::LEAVE_USER_FEEDBACK => {
                let Some((mut obj, _user)) = self.session_user(ctx)? else {
                    ctx.mark_login_prompt();
                    return Ok(());
                };
                ctx.call(ejb::LEAVE_USER_FEEDBACK, "select", |ctx| {
                    ctx.call(ejb::USER, "load", |ctx| {
                        if ctx.db_read(users::TABLE, arg)?.is_none() {
                            ctx.mark_invalid_data();
                        }
                        Ok(())
                    })?;
                    obj.set("fb_user", arg);
                    ctx.session_write(obj)
                })
            }

            // ---- database updates (commit points) -----------------------
            codes::COMMIT_BID => {
                let Some((obj, user)) = self.session_user(ctx)? else {
                    ctx.mark_login_prompt();
                    return Ok(());
                };
                let item = Self::session_ref(ctx, &obj, "bid_item", arg)?;
                let amount = obj
                    .get("bid_amount")
                    .and_then(Value::as_float)
                    .unwrap_or(110.0);
                let bid_id = self.next_id(ctx, bids::TABLE)?;
                ctx.call(ejb::COMMIT_BID, "commit", |ctx| {
                    // Validate the item first (reads Item), then record
                    // the bid, then update the item's auction state.
                    let row = ctx.call(ejb::ITEM, "load", |ctx| Self::load_item(ctx, item))?;
                    let Some(r) = row else {
                        ctx.mark_invalid_data();
                        return Ok(());
                    };
                    let nb_bids = r[items::NB_BIDS].as_int().unwrap_or(0);
                    ctx.call(ejb::BID, "store", |ctx| {
                        ctx.db_insert_or_overwrite(
                            bids::TABLE,
                            [
                                Value::Int(bid_id),
                                Value::Int(user),
                                Value::Int(item),
                                Value::Float(amount),
                            ],
                        )?;
                        Ok(())
                    })?;
                    ctx.call(ejb::ITEM, "store", |ctx| {
                        ctx.db_update(
                            items::TABLE,
                            item,
                            &[
                                (items::MAX_BID, Value::Float(amount)),
                                (items::NB_BIDS, Value::Int(nb_bids + 1)),
                            ],
                        )
                    })
                })
            }
            codes::COMMIT_BUY_NOW => {
                let Some((obj, user)) = self.session_user(ctx)? else {
                    ctx.mark_login_prompt();
                    return Ok(());
                };
                let item = Self::session_ref(ctx, &obj, "buy_item", arg)?;
                let buy_id = self.next_id(ctx, buy_now::TABLE)?;
                ctx.call(ejb::COMMIT_BUY_NOW, "commit", |ctx| {
                    let row = ctx.call(ejb::ITEM, "load", |ctx| Self::load_item(ctx, item))?;
                    let Some(r) = row else {
                        ctx.mark_invalid_data();
                        return Ok(());
                    };
                    let qty = r[items::QUANTITY].as_int().unwrap_or(1);
                    ctx.call(ejb::BUY_NOW, "store", |ctx| {
                        ctx.db_insert_or_overwrite(
                            buy_now::TABLE,
                            [
                                Value::Int(buy_id),
                                Value::Int(user),
                                Value::Int(item),
                                Value::Int(1),
                            ],
                        )?;
                        Ok(())
                    })?;
                    ctx.call(ejb::ITEM, "store", |ctx| {
                        ctx.db_update(
                            items::TABLE,
                            item,
                            &[(items::QUANTITY, Value::Int((qty - 1).max(0)))],
                        )
                    })
                })
            }
            codes::COMMIT_USER_FEEDBACK => {
                let Some((obj, user)) = self.session_user(ctx)? else {
                    ctx.mark_login_prompt();
                    return Ok(());
                };
                let target = Self::session_ref(ctx, &obj, "fb_user", arg)?;
                let comment_id = self.next_id(ctx, comments::TABLE)?;
                ctx.call(ejb::COMMIT_USER_FEEDBACK, "commit", |ctx| {
                    ctx.call(ejb::USER_FEEDBACK, "store", |ctx| {
                        ctx.db_insert_or_overwrite(
                            comments::TABLE,
                            [
                                Value::Int(comment_id),
                                Value::Int(user),
                                Value::Int(target),
                                Value::Int(5),
                                Value::Int(120),
                            ],
                        )?;
                        Ok(())
                    })?;
                    ctx.call(ejb::USER, "store", |ctx| {
                        let row = ctx.db_read(users::TABLE, target)?;
                        match row {
                            Some(u) => {
                                let rating = u[users::RATING].as_int().unwrap_or(0);
                                ctx.db_update(
                                    users::TABLE,
                                    target,
                                    &[(users::RATING, Value::Int(rating + 1))],
                                )
                            }
                            None => {
                                ctx.mark_invalid_data();
                                Ok(())
                            }
                        }
                    })
                })
            }
            codes::REGISTER_NEW_ITEM => {
                let Some((_, user)) = self.session_user(ctx)? else {
                    ctx.mark_login_prompt();
                    return Ok(());
                };
                let item_id = self.next_id(ctx, items::TABLE)?;
                ctx.call(ejb::REGISTER_NEW_ITEM, "register", |ctx| {
                    ctx.call(ejb::ITEM, "store", |ctx| {
                        ctx.db_insert_or_overwrite(
                            items::TABLE,
                            [
                                Value::Int(item_id),
                                Value::from(format!("item-{item_id}")),
                                Value::Int(user),
                                Value::Int(1 + (item_id % 20)),
                                Value::Int(1 + (item_id % 62)),
                                Value::Int(1),
                                Value::Float(100.0),
                                Value::Int(0),
                                Value::Float(300.0),
                            ],
                        )?;
                        Ok(())
                    })
                })
            }
            _ => Err(CallError::Exception),
        }
    }

    fn session_valid(&self, obj: &SessionObject) -> bool {
        // The WAR's revalidation check: a usable session names a plausible
        // user and its optional references are plausible ids.
        let user_ok = obj
            .get("user_id")
            .and_then(Value::as_int)
            .map(Self::plausible_id)
            .unwrap_or(false);
        if !user_ok {
            return false;
        }
        for key in ["bid_item", "buy_item", "fb_user"] {
            if let Some(v) = obj.get(key) {
                match v.as_int() {
                    Some(id) if Self::plausible_id(id) => {}
                    _ => return false,
                }
            }
        }
        true
    }

    fn on_component_reinit(&mut self, component: &str) {
        if component == "IdentityManager" {
            // The key-generator cache is IdentityManager's volatile state.
            self.keygen.reset();
        }
    }

    fn on_process_restart(&mut self) {
        self.keygen.reset();
    }
}

//! Failure detectors (Section 4).
//!
//! The paper deploys detection at the client side, mimicking WAN
//! end-to-end monitors:
//!
//! * the **simple** detector flags network-level errors, HTTP 4xx/5xx,
//!   failure keywords in the HTML ("exception", "failed", "error"), and
//!   application-specific anomalies (a login prompt when already logged
//!   in, negative item ids);
//! * the **comparison** detector additionally submits each request to a
//!   known-good instance and flags any difference — the only detector that
//!   catches *silently wrong* output, such as a corrupted dollar amount.
//!
//! In this reproduction the known-good comparison is implemented as taint
//! tracking: injected corruption marks the state it touches, responses
//! computed from tainted state carry the taint, and the comparison
//! detector flags exactly those responses. This is semantically the
//! comparison against a fault-free twin, without simulating the twin.

use simcore::SimTime;
use urb_core::{OpCode, Response};

/// Which detector a run uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DetectorKind {
    /// Network/HTTP/keyword/app-specific checks only.
    Simple,
    /// Simple checks plus the known-good comparison.
    Comparison,
    /// Simple checks plus the windowed latency-anomaly tracker
    /// (`crate::perf`). Per-response classification is identical to
    /// [`DetectorKind::Simple`]: fail-slow evidence comes from comparing
    /// live latency sketches against a frozen baseline, never from any
    /// single response.
    LatencyAnomaly,
}

/// What kind of failure a detector observed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FailureKind {
    /// Could not connect / connection died.
    Network,
    /// The request was accepted but never answered in time.
    Timeout,
    /// HTTP 4xx or 5xx.
    Http,
    /// Failure keyword in the response body.
    Keyword,
    /// The user was prompted to log in while already logged in — the
    /// session was lost (restart, eviction, expiry, checksum discard).
    SessionLoss,
    /// Application-specific anomaly (invalid ids in the page, ...).
    AppSpecific,
    /// The error page named the session store: the state plane, not the
    /// serving component, is the culprit. Recovery must not microreboot a
    /// healthy component over this evidence.
    StateStore,
    /// Output differed from the known-good instance.
    Comparison,
    /// A component's live latency quantiles drifted beyond the configured
    /// multiplier of its frozen pre-fault baseline. Produced only by the
    /// perf tracker's windowed check (`crate::perf`) — every response
    /// in the window may be individually healthy.
    LatencyAnomaly,
}

/// A failure report sent to the recovery manager (the UDP datagram of
/// Section 4: failed URL plus failure type).
#[derive(Clone, Copy, Debug)]
pub struct FailureReport {
    /// When the failure was observed.
    pub at: SimTime,
    /// The operation whose response failed (the URL prefix).
    pub op: OpCode,
    /// The kind of failure observed.
    pub kind: FailureKind,
    /// Which node served (or failed to serve) the request.
    pub node: usize,
    /// The component a server-rendered error page named, when the body
    /// carried exception text (JBoss error pages print the failing bean's
    /// class). Under concurrent faults this is what lets the recovery
    /// manager separate overlapping failure streams; plain HTTP/network
    /// failures carry no hint.
    pub hint: Option<&'static str>,
}

/// Classifies a response, given whether the client believed itself logged
/// in when it made the request.
///
/// Returns `None` for responses the detector does not flag.
pub fn classify(
    kind: DetectorKind,
    response: &Response,
    was_logged_in: bool,
) -> Option<FailureKind> {
    use urb_core::Status;
    match response.status {
        Status::NetworkError => return Some(FailureKind::Network),
        Status::TimedOut => return Some(FailureKind::Timeout),
        Status::ClientError(_) | Status::ServerError(_) => {
            // A store outage surfaces as a 500 like any other server
            // exception; the error page's store marker is what separates
            // "the store is sick" from "this component is sick", so it
            // must win over the generic HTTP class.
            return Some(if response.markers.store_error {
                FailureKind::StateStore
            } else {
                FailureKind::Http
            });
        }
        Status::Ok | Status::RetryAfter(_) => {}
    }
    // Store attribution wins over the generic keyword check: the same
    // error page carries both markers, and the specific evidence keeps
    // the ladder off healthy components.
    if response.markers.store_error {
        return Some(FailureKind::StateStore);
    }
    if response.markers.exception_text {
        return Some(FailureKind::Keyword);
    }
    if response.markers.invalid_data {
        return Some(FailureKind::AppSpecific);
    }
    if response.markers.login_prompt && was_logged_in {
        return Some(FailureKind::SessionLoss);
    }
    if kind == DetectorKind::Comparison && response.tainted {
        return Some(FailureKind::Comparison);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimTime;
    use urb_core::{BodyMarkers, ReqId, Status};

    fn resp(status: Status) -> Response {
        Response {
            req: ReqId(1),
            op: OpCode(3),
            status,
            markers: BodyMarkers::default(),
            tainted: false,
            finished_at: SimTime::ZERO,
            failed_component: None,
            set_cookie: None,
            clear_cookie: false,
        }
    }

    #[test]
    fn network_and_http_always_flagged() {
        for kind in [DetectorKind::Simple, DetectorKind::Comparison] {
            assert_eq!(
                classify(kind, &resp(Status::NetworkError), false),
                Some(FailureKind::Network)
            );
            assert_eq!(
                classify(kind, &resp(Status::ServerError(500)), false),
                Some(FailureKind::Http)
            );
        }
    }

    #[test]
    fn keyword_beats_app_specific() {
        let mut r = resp(Status::Ok);
        r.markers.exception_text = true;
        r.markers.invalid_data = true;
        assert_eq!(
            classify(DetectorKind::Simple, &r, false),
            Some(FailureKind::Keyword)
        );
    }

    #[test]
    fn login_prompt_only_fails_when_logged_in() {
        let mut r = resp(Status::Ok);
        r.markers.login_prompt = true;
        assert_eq!(classify(DetectorKind::Simple, &r, false), None);
        assert_eq!(
            classify(DetectorKind::Simple, &r, true),
            Some(FailureKind::SessionLoss)
        );
    }

    #[test]
    fn taint_only_visible_to_comparison() {
        let mut r = resp(Status::Ok);
        r.tainted = true;
        assert_eq!(classify(DetectorKind::Simple, &r, false), None);
        assert_eq!(
            classify(DetectorKind::Comparison, &r, false),
            Some(FailureKind::Comparison)
        );
    }

    #[test]
    fn retry_after_is_never_a_failure() {
        let r = resp(Status::RetryAfter(simcore::SimDuration::from_secs(2)));
        assert_eq!(classify(DetectorKind::Comparison, &r, true), None);
    }

    #[test]
    fn clean_ok_is_clean() {
        assert_eq!(
            classify(DetectorKind::Comparison, &resp(Status::Ok), true),
            None
        );
    }

    /// One row per classification path: every [`FailureKind`] must be
    /// reachable, under the detector(s) that can see it, and the rows the
    /// detectors must NOT flag (Ok, RetryAfter backpressure) stay clean
    /// under both. The final assertion proves the table itself covers the
    /// whole `FailureKind` enum, so adding a variant without a row here
    /// fails the test rather than silently shrinking coverage.
    #[test]
    fn classification_table_covers_every_failure_kind_under_both_detectors() {
        struct Case {
            name: &'static str,
            build: fn() -> Response,
            logged_in: bool,
            simple: Option<FailureKind>,
            comparison: Option<FailureKind>,
        }
        let cases = [
            Case {
                name: "connection refused",
                build: || resp(Status::NetworkError),
                logged_in: false,
                simple: Some(FailureKind::Network),
                comparison: Some(FailureKind::Network),
            },
            Case {
                name: "client-side timeout",
                build: || resp(Status::TimedOut),
                logged_in: false,
                simple: Some(FailureKind::Timeout),
                comparison: Some(FailureKind::Timeout),
            },
            Case {
                name: "http 4xx",
                build: || resp(Status::ClientError(404)),
                logged_in: false,
                simple: Some(FailureKind::Http),
                comparison: Some(FailureKind::Http),
            },
            Case {
                name: "http 5xx",
                build: || resp(Status::ServerError(500)),
                logged_in: false,
                simple: Some(FailureKind::Http),
                comparison: Some(FailureKind::Http),
            },
            Case {
                name: "exception text in body",
                build: || {
                    let mut r = resp(Status::Ok);
                    r.markers.exception_text = true;
                    r
                },
                logged_in: false,
                simple: Some(FailureKind::Keyword),
                comparison: Some(FailureKind::Keyword),
            },
            Case {
                name: "state store unreachable",
                build: || {
                    let mut r = resp(Status::Ok);
                    // The store-error page also carries exception text;
                    // store attribution wins.
                    r.markers.exception_text = true;
                    r.markers.store_error = true;
                    r
                },
                logged_in: true,
                simple: Some(FailureKind::StateStore),
                comparison: Some(FailureKind::StateStore),
            },
            Case {
                name: "state store unreachable behind a 500",
                build: || {
                    let mut r = resp(Status::ServerError(500));
                    r.markers.store_error = true;
                    r
                },
                logged_in: true,
                simple: Some(FailureKind::StateStore),
                comparison: Some(FailureKind::StateStore),
            },
            Case {
                name: "invalid ids in page",
                build: || {
                    let mut r = resp(Status::Ok);
                    r.markers.invalid_data = true;
                    r
                },
                logged_in: false,
                simple: Some(FailureKind::AppSpecific),
                comparison: Some(FailureKind::AppSpecific),
            },
            Case {
                name: "login prompt while logged in",
                build: || {
                    let mut r = resp(Status::Ok);
                    r.markers.login_prompt = true;
                    r
                },
                logged_in: true,
                simple: Some(FailureKind::SessionLoss),
                comparison: Some(FailureKind::SessionLoss),
            },
            Case {
                name: "login prompt while anonymous",
                build: || {
                    let mut r = resp(Status::Ok);
                    r.markers.login_prompt = true;
                    r
                },
                logged_in: false,
                simple: None,
                comparison: None,
            },
            Case {
                name: "silently wrong output (tainted)",
                build: || {
                    let mut r = resp(Status::Ok);
                    r.tainted = true;
                    r
                },
                logged_in: false,
                simple: None,
                comparison: Some(FailureKind::Comparison),
            },
            Case {
                name: "retry-after backpressure",
                build: || resp(Status::RetryAfter(simcore::SimDuration::from_secs(2))),
                logged_in: true,
                // RetryAfter is admission control, never a failure.
                simple: None,
                comparison: None,
            },
            Case {
                name: "clean ok",
                build: || resp(Status::Ok),
                logged_in: true,
                simple: None,
                comparison: None,
            },
        ];
        for c in &cases {
            assert_eq!(
                classify(DetectorKind::Simple, &(c.build)(), c.logged_in),
                c.simple,
                "simple detector on {}",
                c.name
            );
            assert_eq!(
                classify(DetectorKind::Comparison, &(c.build)(), c.logged_in),
                c.comparison,
                "comparison detector on {}",
                c.name
            );
        }
        // Exhaustiveness: the table reaches every FailureKind that
        // per-response classification can produce. The match is the
        // guard — adding a FailureKind without deciding its row here
        // fails to compile.
        let all = [
            FailureKind::Network,
            FailureKind::Timeout,
            FailureKind::Http,
            FailureKind::Keyword,
            FailureKind::SessionLoss,
            FailureKind::AppSpecific,
            FailureKind::StateStore,
            FailureKind::Comparison,
            FailureKind::LatencyAnomaly,
        ];
        for kind in all {
            let classify_reachable = match kind {
                FailureKind::Network
                | FailureKind::Timeout
                | FailureKind::Http
                | FailureKind::Keyword
                | FailureKind::SessionLoss
                | FailureKind::AppSpecific
                | FailureKind::StateStore
                | FailureKind::Comparison => true,
                // Produced by the perf tracker's windowed baseline
                // check, never by classify().
                FailureKind::LatencyAnomaly => false,
            };
            if classify_reachable {
                assert!(
                    cases
                        .iter()
                        .any(|c| c.simple == Some(kind) || c.comparison == Some(kind)),
                    "{kind:?} has no reaching row in the table"
                );
            }
        }
    }

    #[test]
    fn latency_anomaly_detector_classifies_like_simple() {
        // Per-response classification is byte-identical to Simple: the
        // fail-slow evidence never comes from a single response.
        let mut tainted = resp(Status::Ok);
        tainted.tainted = true;
        let mut keyword = resp(Status::Ok);
        keyword.markers.exception_text = true;
        for (r, logged_in) in [
            (resp(Status::NetworkError), false),
            (resp(Status::Ok), true),
            (tainted, false),
            (keyword, false),
        ] {
            assert_eq!(
                classify(DetectorKind::LatencyAnomaly, &r, logged_in),
                classify(DetectorKind::Simple, &r, logged_in),
            );
        }
    }
}

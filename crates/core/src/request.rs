//! Requests and responses at the server boundary.
//!
//! A request is one HTTP operation issued by an emulated client; a response
//! carries everything the paper's failure detectors look at: the HTTP
//! status (network errors and 4xx/5xx), failure keywords in the body
//! ("exception", "failed", "error"), application-specific anomalies (login
//! prompt while logged in, negative item IDs), and — visible only to the
//! comparison-based detector — whether the response was influenced by
//! injected corruption (`tainted`).

use simcore::{SimDuration, SimTime};
use statestore::SessionId;

/// Identifier of a request, unique within a simulation run.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ReqId(pub u64);

/// Application-defined operation code (eBid defines 25 of them).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct OpCode(pub u16);

/// One HTTP request entering a node.
#[derive(Clone, Debug)]
pub struct Request {
    /// Unique id.
    pub id: ReqId,
    /// The operation requested (the URL prefix analogue).
    pub op: OpCode,
    /// The client's session cookie, if it has one.
    pub session: Option<SessionId>,
    /// Whether the operation is idempotent (safe to retry transparently).
    pub idempotent: bool,
    /// Operation argument (item id, user id, ... — application-defined).
    pub arg: i64,
    /// When the request arrived at the node.
    pub submitted_at: SimTime,
}

/// HTTP-level status of a response.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Status {
    /// 200 OK.
    Ok,
    /// A client-side error (HTTP 4xx).
    ClientError(u16),
    /// A server-side error (HTTP 5xx).
    ServerError(u16),
    /// 503 with a `Retry-After` header: the target component is
    /// microrebooting; retry after the given interval (Section 6.2).
    RetryAfter(SimDuration),
    /// The connection failed (process down, OS rebooting, queue refused).
    NetworkError,
    /// The client gave up waiting (or the server purged a stuck request
    /// via its TTL lease). Unlike [`Status::NetworkError`], the connection
    /// was accepted: the request is attributable to its URL.
    TimedOut,
}

impl Status {
    /// Returns true if the paper's *simple* end-to-end detector flags this
    /// status (network errors, 4xx, 5xx — but not Retry-After, which the
    /// client honours transparently).
    pub fn is_error(self) -> bool {
        matches!(
            self,
            Status::ClientError(_)
                | Status::ServerError(_)
                | Status::NetworkError
                | Status::TimedOut
        )
    }
}

/// Failure keywords and anomalies scraped from the response body.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BodyMarkers {
    /// The HTML contains "exception" / "failed" / "error".
    pub exception_text: bool,
    /// The user was prompted to log in although already logged in
    /// (session lost or unreadable).
    pub login_prompt: bool,
    /// Application-visible nonsense such as a negative item id.
    pub invalid_data: bool,
    /// The error page names the session store as the culprit (the SSM was
    /// unreachable). Always accompanies `exception_text`; lets detectors
    /// attribute the failure to the state plane instead of a component.
    pub store_error: bool,
}

impl BodyMarkers {
    /// Returns true if any keyword/anomaly detector would fire.
    pub(crate) fn any(self) -> bool {
        self.exception_text || self.login_prompt || self.invalid_data
    }
}

/// A finished response.
#[derive(Clone, Debug)]
pub struct Response {
    /// The request this answers.
    pub req: ReqId,
    /// The operation that was requested.
    pub op: OpCode,
    /// HTTP status.
    pub status: Status,
    /// Body anomalies visible to end-to-end monitors.
    pub markers: BodyMarkers,
    /// True if injected corruption influenced this response. Invisible to
    /// end-to-end monitors; the comparison detector's oracle (the response
    /// would differ from a known-good instance's).
    pub tainted: bool,
    /// When the response left the node.
    pub finished_at: SimTime,
    /// The component whose failure caused an error response, when the
    /// server can attribute it (feeds recovery-manager diagnosis).
    pub failed_component: Option<&'static str>,
    /// A new session cookie for the client (set by login).
    pub set_cookie: Option<SessionId>,
    /// Instructs the client to drop its cookie (logout).
    pub clear_cookie: bool,
}

impl Response {
    /// Returns true if the simple end-to-end detector flags this response.
    pub fn simple_detector_flags(&self) -> bool {
        self.status.is_error() || self.markers.any()
    }

    /// Returns true if the comparison-based detector flags this response
    /// (everything the simple detector sees, plus silent wrong output).
    pub fn comparison_detector_flags(&self) -> bool {
        self.simple_detector_flags() || self.tainted
    }

    /// Returns true if this is a `Retry-After` answer the client should
    /// transparently honour rather than count as a failure.
    pub fn wants_retry(&self) -> Option<SimDuration> {
        match self.status {
            Status::RetryAfter(d) => Some(d),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resp(status: Status) -> Response {
        Response {
            req: ReqId(1),
            op: OpCode(0),
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
    fn simple_detector_sees_http_errors() {
        assert!(!resp(Status::Ok).simple_detector_flags());
        assert!(resp(Status::ServerError(500)).simple_detector_flags());
        assert!(resp(Status::ClientError(404)).simple_detector_flags());
        assert!(resp(Status::NetworkError).simple_detector_flags());
    }

    #[test]
    fn retry_after_is_not_a_failure() {
        let r = resp(Status::RetryAfter(SimDuration::from_secs(2)));
        assert!(!r.simple_detector_flags());
        assert_eq!(r.wants_retry(), Some(SimDuration::from_secs(2)));
    }

    #[test]
    fn markers_trigger_simple_detector() {
        let mut r = resp(Status::Ok);
        r.markers.login_prompt = true;
        assert!(r.simple_detector_flags());
    }

    #[test]
    fn taint_visible_only_to_comparison_detector() {
        let mut r = resp(Status::Ok);
        r.tainted = true;
        assert!(!r.simple_detector_flags());
        assert!(r.comparison_detector_flags());
    }
}

//! The service's error type: every failure a handler can hit, mapped
//! to a status code and a small JSON body.
//!
//! The contract the error-path tests pin (`tests/api.rs`): malformed
//! input is always a 4xx with a rendered explanation — never a panic,
//! never a bare 500 — and the session id space discriminates `404 Not
//! Found` (an id the service never issued) from `410 Gone` (an id that
//! existed and was evicted or deleted; ids are sequential, so any id
//! below the allocator watermark was once live).

use axum::{Response, StatusCode};
use diic_cif::Diagnostic;
use serde_json::Value;

/// The text front ends a request passes through; each rejection is a
/// [`Diagnostic`] with its own code and status (the wire contract).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrontEnd {
    /// `400 bad-json`: the body is not UTF-8 JSON.
    Json,
    /// `422 bad-cif`: a CIF source failed to parse.
    Cif,
    /// `422 bad-deck`: the rule deck failed to compile.
    Deck,
}

/// A handler failure: status plus a machine-readable code and a
/// human-readable detail (the rendered parse diagnostic, the eviction
/// explanation, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// The HTTP status.
    pub status: StatusCode,
    /// Stable machine-readable error code (`"bad-json"`, `"gone"`, …).
    pub code: &'static str,
    /// Human-readable detail; multi-line for rendered diagnostics.
    pub detail: String,
}

impl ApiError {
    /// A new error.
    pub fn new(status: StatusCode, code: &'static str, detail: impl Into<String>) -> ApiError {
        ApiError {
            status,
            code,
            detail: detail.into(),
        }
    }

    /// The front end `from` rejected `source` — the text the request
    /// calls `file` (`"body"`, `"cif"`, `"cells[3]"`, `"deck"`); the
    /// detail is `diagnostic`'s caret rendering. The one door for every
    /// text front end's failure.
    pub fn rejected(from: FrontEnd, file: &str, source: &str, diagnostic: &Diagnostic) -> ApiError {
        let (status, code) = match from {
            FrontEnd::Json => (StatusCode::BAD_REQUEST, "bad-json"),
            FrontEnd::Cif => (StatusCode::UNPROCESSABLE_ENTITY, "bad-cif"),
            FrontEnd::Deck => (StatusCode::UNPROCESSABLE_ENTITY, "bad-deck"),
        };
        ApiError::new(status, code, diagnostic.render(file, source))
    }

    /// `422`: well-formed JSON that does not decode to the expected
    /// shape (missing field, wrong type, unknown enum tag, …).
    pub fn bad_request_shape(detail: impl Into<String>) -> ApiError {
        ApiError::new(StatusCode::UNPROCESSABLE_ENTITY, "bad-shape", detail)
    }

    /// `422`: the edit set was rejected by the session (the session is
    /// untouched, exactly as [`diic_core::CheckSession::apply`]
    /// guarantees).
    pub fn bad_edit(detail: impl Into<String>) -> ApiError {
        ApiError::new(StatusCode::UNPROCESSABLE_ENTITY, "bad-edit", detail)
    }

    /// `404`: a session id the service never issued.
    pub fn unknown_session(id: u64) -> ApiError {
        ApiError::new(
            StatusCode::NOT_FOUND,
            "unknown-session",
            format!("session {id} was never created"),
        )
    }

    /// `410`: a session id that existed but was evicted or deleted.
    pub fn session_gone(id: u64) -> ApiError {
        ApiError::new(
            StatusCode::GONE,
            "session-gone",
            format!("session {id} was evicted or deleted"),
        )
    }

    /// `429`: too many writers queued on one session.
    pub fn session_busy(id: u64) -> ApiError {
        ApiError::new(
            StatusCode::TOO_MANY_REQUESTS,
            "session-busy",
            format!("session {id} has too many queued requests"),
        )
    }

    /// `503`: the service-wide concurrent-request bound is hit.
    pub fn overloaded() -> ApiError {
        ApiError::new(
            StatusCode::SERVICE_UNAVAILABLE,
            "overloaded",
            "service at concurrent-request capacity",
        )
    }

    /// Renders the error as its JSON response.
    pub fn into_response(self) -> Response {
        let body = Value::object([
            ("error", Value::from(self.code)),
            ("detail", Value::from(self.detail.as_str())),
        ]);
        json_response(self.status, &body)
    }
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}: {}", self.status.0, self.code, self.detail)
    }
}

impl std::error::Error for ApiError {}

/// A JSON response with the right content type.
pub fn json_response(status: StatusCode, body: &Value) -> Response {
    Response::new(status)
        .header("content-type", "application/json")
        .body(body.to_string().into_bytes())
}

//! # diic-api — check-as-a-service
//!
//! An HTTP service over the incremental checker: clients open a
//! **session** per layout (`POST /sessions`), push typed edit batches
//! (`POST /sessions/{id}/edits`) and get back the report **delta** the
//! edit caused, stream the full canonical report at any point
//! (`GET /sessions/{id}/report`), and batch-verify cell libraries over
//! the shared content-keyed cache (`POST /library`). The paper's
//! designer loop — check, fix, re-check — as a service boundary, with
//! the session pool owning memory the way the designer's workstation
//! never had to.
//!
//! The crate splits along the obvious seams:
//!
//! * [`wire`] — deterministic JSON codecs for edit sets, report
//!   summaries, and deltas; byte-stable encodes, strict decodes;
//! * [`registry`] — the shared [`SessionRegistry`]: sequential ids
//!   (`404`/`410` discrimination), per-session writer locks, pin
//!   counts so eviction never races a request, and a sweep that
//!   **compacts before it evicts** ([`diic_core::CheckSession::compact_memory`]
//!   reopens a patched session, shedding its churn garbage, before any
//!   session is dropped — one per sweep at most), and retires a session a panicking request
//!   left poisoned (`410`);
//! * [`service`] — the [`Router`] and handlers; a report read writes
//!   the session's own rendered lines
//!   ([`diic_core::CheckSession::write_report`]) straight into the
//!   connection;
//! * [`error`] — the 4xx/5xx contract: malformed input is always a
//!   rendered diagnostic, never a panic; a handler that panics anyway
//!   fails its own request with a `500` ([`Router::oneshot`]), not the
//!   service.
//!
//! Everything a response carries is **canonical**: report lines are
//! byte-identical to a local [`diic_core::canonical_check`] render,
//! whatever the worker count or how many edits the session absorbed —
//! `tests/api.rs` is the differential harness that holds the service to
//! it.
//!
//! The HTTP layer itself is the offline [`axum`] stand-in from
//! `crates/compat/axum`: same router/handler shapes, no async runtime
//! (the engine is CPU-bound — concurrency is one thread per
//! connection), and in-process [`Router::oneshot`] dispatch so the
//! whole differential harness runs without sockets.
//!
//! ```
//! use diic_api::{App, RegistryConfig, router};
//! use axum::{Method, Request, StatusCode};
//!
//! let app = router(App::new(RegistryConfig::default()));
//! let body = r#"{"cif": "L NM; B 2000 700 1000 350; E"}"#;
//! let resp = app.oneshot(Request::new(Method::Post, "/sessions").with_body(body));
//! assert_eq!(resp.status, StatusCode::CREATED);
//! ```

pub mod error;
pub mod registry;
pub mod service;
pub mod wire;

pub use axum::{Router, StatusCode};
pub use error::{ApiError, FrontEnd};
pub use registry::{RegistryConfig, SessionRegistry, MAX_LIBRARY_DECKS, REOPENS_PER_SWEEP};
pub use service::{router, App};

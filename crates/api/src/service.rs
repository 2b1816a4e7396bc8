//! The HTTP surface: routes, handlers, and the streamed report body.
//!
//! | Route                        | Method | Does                                                    |
//! |------------------------------|--------|---------------------------------------------------------|
//! | `/healthz`                   | GET    | liveness                                                |
//! | `/stats`                     | GET    | registry counters and pool memory                       |
//! | `/sessions`                  | POST   | open a [`CheckSession`]; body `{cif, deck?, options?}`  |
//! | `/sessions/{id}/edits`       | POST   | apply an edit set; returns the report **delta**         |
//! | `/sessions/{id}/report`      | GET    | stream the full canonical report                        |
//! | `/sessions/{id}`             | DELETE | close a session                                         |
//! | `/library`                   | POST   | batch-verify cells over the shared content-keyed cache  |
//!
//! Handlers are synchronous (the engine is CPU-bound; service
//! concurrency is the compat server's thread-per-connection model) and
//! every one admits itself against the registry's request budget
//! first, so overload degrades to fast `503`s instead of a queue.
//!
//! `GET /sessions/{id}/report` copies no violation: the response
//! carries a [`axum::Body::Writer`] closure owning the session pin and
//! the request permit, and [`CheckSession::write_report`] writes the
//! lines the session already holds in canonical order. A client hanging
//! up mid-stream surfaces as the closure's I/O error; the pin drops,
//! the registry is untouched.

use crate::error::{json_response, ApiError, FrontEnd};
use crate::registry::{RegistryConfig, SessionRegistry};
use crate::wire;
use axum::{delete, get, post, Request, Response, Router, StatusCode};
use diic_core::{CheckSession, DiagnosticSink, LibraryOptions};
use serde_json::Value;
use std::sync::Arc;

/// The service state: just the registry (it owns every bound).
pub struct App {
    /// The shared session registry.
    pub registry: SessionRegistry,
}

impl App {
    /// A fresh service.
    pub fn new(config: RegistryConfig) -> Arc<App> {
        Arc::new(App {
            registry: SessionRegistry::new(config),
        })
    }
}

/// Builds the router over shared state. The result is `Send + Sync`:
/// hand it to [`axum::serve`] for TCP, or drive it in-process with
/// [`Router::oneshot`] (what the differential and soak tests do).
pub fn router(app: Arc<App>) -> Router {
    let open = {
        let app = Arc::clone(&app);
        move |req: Request| respond(open_session(&app, &req))
    };
    let edits = {
        let app = Arc::clone(&app);
        move |req: Request| respond(apply_edits(&app, &req))
    };
    let report = {
        let app = Arc::clone(&app);
        move |req: Request| match stream_report(&app, &req) {
            Ok(resp) => resp,
            Err(e) => e.into_response(),
        }
    };
    let close = {
        let app = Arc::clone(&app);
        move |req: Request| respond(delete_session(&app, &req))
    };
    let library = {
        let app = Arc::clone(&app);
        move |req: Request| respond(check_library(&app, &req))
    };
    let stats = {
        let app = Arc::clone(&app);
        move |_req: Request| json_response(StatusCode::OK, &app.registry.stats())
    };
    Router::new()
        .route("/healthz", get(healthz))
        .route("/stats", get(stats))
        .route("/sessions", post(open))
        .route("/sessions/{id}/edits", post(edits))
        .route("/sessions/{id}/report", get(report))
        .route("/sessions/{id}", delete(close))
        .route("/library", post(library))
}

fn respond(result: Result<Response, ApiError>) -> Response {
    result.unwrap_or_else(ApiError::into_response)
}

fn healthz(_req: Request) -> Response {
    json_response(StatusCode::OK, &Value::object([("ok", Value::from(true))]))
}

fn session_id(req: &Request) -> Result<u64, ApiError> {
    let raw = req
        .param("id")
        .ok_or_else(|| ApiError::bad_request_shape("missing session id"))?;
    raw.parse::<u64>().map_err(|_| {
        ApiError::new(
            StatusCode::NOT_FOUND,
            "unknown-session",
            format!("`{raw}` is not a session id"),
        )
    })
}

/// `POST /sessions` — body `{"cif": "...", "deck"?: "...",
/// "options"?: {...}}`. The deck defaults to the built-in NMOS
/// process. Responds `201` with `{"id", "report"}`; the open runs the
/// full initial check, so the summary is live from the first byte.
fn open_session(app: &App, req: &Request) -> Result<Response, ApiError> {
    let _permit = app.registry.admit()?;
    let body = wire::parse_body(&req.body)?;
    let cif = wire::required(&body, "cif")?
        .as_str()
        .ok_or_else(|| ApiError::bad_request_shape("`cif` must be a string"))?;
    let options = wire::check_options_from_json(body.get("options"))?;
    let tech = match body.get("deck").and_then(Value::as_str) {
        Some(deck) => diic_tech::deck::compile_str(deck)
            .map_err(|e| ApiError::rejected(FrontEnd::Deck, "deck", deck, &e))?,
        None => diic_tech::nmos::nmos_technology(),
    };
    let layout =
        diic_cif::parse(cif).map_err(|e| ApiError::rejected(FrontEnd::Cif, "cif", cif, &e))?;
    let session = CheckSession::new(layout, &tech, &options);
    let summary = wire::report_summary(session.report());
    let id = app.registry.open(session);
    Ok(json_response(
        StatusCode::CREATED,
        &Value::object([("id", Value::from(id)), ("report", summary)]),
    ))
}

/// `POST /sessions/{id}/edits` — body is the wire [`EditSet`]
/// ([`wire::edit_set_from_json`]). Responds with the applied delta:
/// the violations the edit added and removed (canonical order,
/// rendered exactly like report lines), the engine's [`EditStats`],
/// and the fresh summary. A rejected edit set (`422`) leaves the
/// session untouched, exactly as [`CheckSession::apply`] guarantees.
///
/// [`EditStats`]: diic_core::EditStats
fn apply_edits(app: &App, req: &Request) -> Result<Response, ApiError> {
    let _permit = app.registry.admit()?;
    let id = session_id(req)?;
    let body = wire::parse_body(&req.body)?;
    let pin = app.registry.pin(id)?;
    let mut session = pin.lock()?;
    let edits = wire::edit_set_from_json(&body, session.layout())?;
    let stats = session
        .apply(&edits)
        .map_err(|e| ApiError::bad_edit(e.to_string()))?;
    let delta = session.last_delta();
    let response = Value::object([
        ("applied", Value::from(edits.edits.len())),
        ("added", string_array(&delta.added)),
        ("removed", string_array(&delta.removed)),
        ("stats", wire::edit_stats_to_json(&stats)),
        ("report", wire::report_summary(session.report())),
    ]);
    Ok(json_response(StatusCode::OK, &response))
}

fn string_array(items: &[String]) -> Value {
    Value::array(items.iter().map(|line| Value::from(line.as_str())))
}

/// `GET /sessions/{id}/report` — streams the canonical report as
/// plain text, one violation per line, byte-identical to rendering
/// [`diic_core::canonical_check`] locally. The query parameters `chunk`
/// and `spill_budget` are accepted and ignored, for clients that still
/// send them: every read writes the same bytes.
fn stream_report(app: &App, req: &Request) -> Result<Response, ApiError> {
    let permit = app.registry.admit()?;
    let id = session_id(req)?;
    let pin = app.registry.pin(id)?;
    let writer: axum::BodyWriter = Box::new(move |out| {
        // The pin and the permit live exactly as long as the stream:
        // eviction cannot touch the session mid-body, and the request
        // budget counts the body, not just the headers.
        let _permit = permit;
        let session = pin.lock().map_err(|e| {
            // Admission failed after headers went out; truncating the
            // close-delimited body is the only remaining signal.
            std::io::Error::other(e.to_string())
        })?;
        session.write_report(out)
    });
    Ok(Response::new(StatusCode::OK)
        .header("content-type", "text/plain; charset=utf-8")
        .body_writer(writer))
}

/// `DELETE /sessions/{id}` — closes the session; later requests for
/// the id get `410`.
fn delete_session(app: &App, req: &Request) -> Result<Response, ApiError> {
    let _permit = app.registry.admit()?;
    let id = session_id(req)?;
    app.registry.delete(id)?;
    Ok(json_response(
        StatusCode::OK,
        &Value::object([("deleted", Value::from(id))]),
    ))
}

/// `POST /library` — body `{"cells": ["cif", ...], "deck"?: "...",
/// "options"?: {"parallelism"?: N}}`. Runs
/// the batch through the shared per-deck [`LibrarySession`]: repeated
/// requests over the same deck keep its content-keyed cache warm
/// across requests. Each cell's response report is canonical and
/// byte-identical (line for line) to a standalone check of that cell.
///
/// [`LibrarySession`]: diic_core::LibrarySession
fn check_library(app: &App, req: &Request) -> Result<Response, ApiError> {
    let _permit = app.registry.admit()?;
    let body = wire::parse_body(&req.body)?;
    let Some(cells) = wire::required(&body, "cells")?.as_array() else {
        return Err(ApiError::bad_request_shape("`cells` must be an array"));
    };
    let deck_source = body
        .get("deck")
        .map(|d| {
            d.as_str()
                .map(str::to_string)
                .ok_or_else(|| ApiError::bad_request_shape("`deck` must be a string"))
        })
        .transpose()?
        .unwrap_or_else(|| diic_tech::deck::NMOS_DECK.to_string());
    let mut options = LibraryOptions::default();
    if let Some(opts) = body.get("options") {
        let Some(pairs) = opts.as_object() else {
            return Err(ApiError::bad_request_shape("`options` must be an object"));
        };
        for (key, v) in pairs {
            match key.as_str() {
                "parallelism" => {
                    options.parallelism = wire::as_worker_count(v, "options.parallelism")?
                }
                other => {
                    return Err(ApiError::bad_request_shape(format!(
                        "unknown option `{other}`"
                    )))
                }
            }
        }
    }

    let mut layouts = Vec::with_capacity(cells.len());
    for (i, cell) in cells.iter().enumerate() {
        let cif = cell
            .as_str()
            .ok_or_else(|| ApiError::bad_request_shape(format!("cells[{i}] must be a string")))?;
        let cell = diic_cif::parse(cif)
            .map_err(|e| ApiError::rejected(FrontEnd::Cif, &format!("cells[{i}]"), cif, &e))?;
        layouts.push(cell);
    }

    let library = app.registry.library_for_deck(&deck_source)?;
    let batch =
        diic_core::check_library_in(&library.session, &layouts, &library.tech, &options, |_| {
            DiagnosticSink::new()
        });
    let cells_out = Value::array(batch.reports.into_iter().map(|report| {
        let (_, lines) = diic_core::canonical_sort_keyed(report.violations);
        Value::object([
            ("violations", Value::from(lines.len())),
            ("report", Value::array(lines.into_iter().map(Value::from))),
        ])
    }));
    let response = Value::object([
        ("cells", cells_out),
        ("stats", wire::fill_stats(batch.stats.fills)),
    ]);
    Ok(json_response(StatusCode::OK, &response))
}

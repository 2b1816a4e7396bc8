//! The **twelfth differential leg**: the service == the session.
//!
//! Everything the check-as-a-service API returns must be
//! byte-identical to driving the underlying [`CheckSession`] /
//! [`check_library_in`] locally — the HTTP layer (wire codecs, the
//! registry's locking and eviction, streamed bodies) must add exactly
//! zero semantics. Each proptest case generates a faulted chip, opens
//! it twice through the in-process router (a serial session and one at
//! the `CHECK_PARALLELISM` wide worker count, like every other leg),
//! and drives both with [`random_edit_set`] batches round-tripped
//! through the JSON codec, holding the service to three identities at
//! every step:
//!
//! * the per-edit **delta** (added/removed violation lines) equals the
//!   one computed from a local oracle session's [`CheckSession::apply`];
//! * the streamed `GET /report` bytes — buffered, chunked small, and
//!   spilled with `?spill_budget=1` — equal the canonical report
//!   rendered locally;
//! * `POST /library` per-cell report lines equal standalone
//!   [`canonical_check`] runs of each cell.
//!
//! On top of the leg: a concurrency soak (hot writers on one session
//! plus writers on distinct sessions, under a registry squeezed hard
//! enough that sweeps compact and evict continuously — no lost
//! updates, no torn reports, nothing evicted mid-request) and the
//! error-path contract (malformed JSON / CIF / deck / edits are 4xx
//! with rendered diagnostics, never a panic; the id space answers
//! 404 vs 410; a client hanging up mid-stream latches the sink error
//! without poisoning the registry).
//!
//! [`check_library_in`]: diic::core::check_library_in

use axum::{Body, Method, Request, Response, Router, StatusCode};
use diic::api::wire;
use diic::api::{router, App, RegistryConfig, MAX_LIBRARY_DECKS};
use diic::cif::{Call, Item, SymbolId};
use diic::core::incremental::{CheckSession, EditSet};
use diic::core::{canonical_check, env_parallelism, CheckOptions, Violation};
use diic::gen::{cell_library, generate, random_edit_set, ChipSpec, ErrorKind};
use diic::geom::{Rect, Transform};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::Value;
use std::sync::Arc;
use std::time::Duration;

/// The parallel worker count exercised against serial runs.
fn wide_workers() -> usize {
    env_parallelism().unwrap_or(0) // 0 = all available cores
}

fn service() -> Arc<Router> {
    Arc::new(router(App::new(RegistryConfig::default())))
}

fn get(app: &Router, path: &str) -> Response {
    app.oneshot(Request::new(Method::Get, path))
}

fn post(app: &Router, path: &str, body: String) -> Response {
    app.oneshot(Request::new(Method::Post, path).with_body(body))
}

fn json_body(resp: Response) -> Value {
    let bytes = resp.into_bytes().expect("in-process bodies collect");
    serde_json::from_str(std::str::from_utf8(&bytes).expect("utf-8 body"))
        .expect("response bodies are JSON")
}

/// Opens a session over `cif`, asserting success; returns its id.
fn open_session(app: &Router, cif: &str, options: &str) -> u64 {
    let body = format!(
        r#"{{"cif": {}, "options": {options}}}"#,
        Value::from(cif) // escapes the CIF text as a JSON string
    );
    let resp = post(app, "/sessions", body);
    assert_eq!(resp.status, StatusCode::CREATED, "open failed");
    json_body(resp).get("id").and_then(Value::as_i64).unwrap() as u64
}

/// The canonical report rendered exactly as the streamed body renders
/// it: one `Debug` line per violation, canonical order.
fn render_canonical(violations: &[Violation]) -> String {
    violations.iter().map(|v| format!("{v:?}\n")).collect()
}

fn string_vec(v: &Value, key: &str) -> Vec<String> {
    v.get(key)
        .and_then(Value::as_array)
        .expect("delta arrays present")
        .iter()
        .map(|s| s.as_str().expect("delta lines are strings").to_string())
        .collect()
}

/// Asserts the three streamed `GET /report` variants (buffered-size
/// chunks, chunk=1, spill_budget=1) all return exactly `expected`.
fn assert_report_streams(app: &Router, id: u64, expected: &str, ctx: &str) {
    for query in ["", "?chunk=1", "?spill_budget=1"] {
        let resp = get(app, &format!("/sessions/{id}/report{query}"));
        assert_eq!(resp.status, StatusCode::OK, "{ctx}: report {query}");
        let bytes = resp.into_bytes().unwrap();
        assert_eq!(
            std::str::from_utf8(&bytes).unwrap(),
            expected,
            "{ctx}: streamed report bytes diverge ({query})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The leg proper: faulted chips, serial + wide service sessions,
    /// every edit round-tripped through the wire codec, deltas and
    /// streamed reports equal to the local oracle at every step.
    #[test]
    fn service_matches_session_oracle(
        nx in 2usize..4,
        ny in 1usize..3,
        seed in 0u64..1_000_000,
        mask in 1u16..512,
    ) {
        let tech = diic::tech::nmos::nmos_technology();
        let errors: Vec<ErrorKind> = ErrorKind::ALL
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, k)| *k)
            .take(nx * ny)
            .collect();
        let chip = generate(&ChipSpec::with_errors(nx, ny, errors, seed));
        let layout = diic::cif::parse(&chip.cif).expect("generated chips always parse");

        let app = service();
        let serial_id = open_session(&app, &chip.cif, "{}");
        let wide_id = open_session(
            &app,
            &chip.cif,
            &format!(r#"{{"parallelism": {}}}"#, wide_workers()),
        );
        // The local oracle: the session the fifth leg already pins to
        // from-scratch checks. The service must mirror it byte for byte.
        let mut oracle = CheckSession::new(layout, &tech, &CheckOptions::default());
        assert_report_streams(
            &app,
            serial_id,
            &render_canonical(&oracle.report().violations),
            "step 0",
        );

        let bounds = Rect::new(-2500, -6000, nx as i64 * 6750 + 2500, ny as i64 * 10000 + 2500);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA41);
        for step in 0..6 {
            let edits = random_edit_set(oracle.layout(), bounds, step, &mut rng);
            // Encode against the pre-edit layout — the state the
            // service's sessions are in when the request arrives.
            let body = wire::edit_set_to_json(&edits, oracle.layout()).to_string();
            let old = oracle.report().violations.clone();
            oracle.apply(&edits).expect("generated edits are valid");
            let (want_added, want_removed) =
                wire::violation_delta(&old, &oracle.report().violations);

            let ctx = format!("step {} (nx={nx} ny={ny} seed={seed} mask={mask:#b})", step + 1);
            for id in [serial_id, wide_id] {
                let resp = post(&app, &format!("/sessions/{id}/edits"), body.clone());
                prop_assert_eq!(resp.status, StatusCode::OK, "{}: edit rejected", &ctx);
                let delta = json_body(resp);
                prop_assert_eq!(
                    string_vec(&delta, "added"),
                    want_added.clone(),
                    "{}: added delta diverges (session {})", &ctx, id
                );
                prop_assert_eq!(
                    string_vec(&delta, "removed"),
                    want_removed.clone(),
                    "{}: removed delta diverges (session {})", &ctx, id
                );
                prop_assert_eq!(
                    delta.get("report").and_then(|r| r.get("violations")).and_then(Value::as_i64),
                    Some(oracle.report().violations.len() as i64),
                    "{}: summary count diverges (session {})", &ctx, id
                );
            }
            // Stream identity every other step (each stream is three
            // full renders; every step would double the leg's cost).
            if step % 2 == 1 {
                let expected = render_canonical(&oracle.report().violations);
                assert_report_streams(&app, serial_id, &expected, &ctx);
                assert_report_streams(&app, wide_id, &expected, &ctx);
            }
        }
        let expected = render_canonical(&oracle.report().violations);
        assert_report_streams(&app, serial_id, &expected, "final");
        assert_report_streams(&app, wide_id, &expected, "final");
    }

    /// `POST /library` per-cell report lines equal standalone
    /// [`canonical_check`] runs, serial and wide, and repeated batches
    /// through the same deck accumulate shared-cache hits. A session
    /// keeps a definition from its second sighting, so the batch goes in
    /// three times: the third is served what the second kept.
    #[test]
    fn library_endpoint_matches_standalone_checks(seed in 0u64..1_000_000) {
        let lib = cell_library(8, seed);
        let tech = diic::deck::compile_str(diic::deck::NMOS_DECK).unwrap();
        let options = diic::core::LibraryOptions::default();
        let want: Vec<Vec<String>> = lib
            .cells
            .iter()
            .map(|c| {
                let layout = diic::cif::parse(&c.cif).unwrap();
                canonical_check(&layout, &tech, &options.cell)
                    .violations
                    .iter()
                    .map(|v| format!("{v:?}"))
                    .collect()
            })
            .collect();

        let app = service();
        let cells_json = Value::array(lib.cells.iter().map(|c| Value::from(c.cif.as_str())));
        for parallelism in [1, wide_workers(), 1] {
            let body = format!(
                r#"{{"cells": {cells_json}, "options": {{"parallelism": {parallelism}}}}}"#
            );
            let resp = post(&app, "/library", body);
            prop_assert_eq!(resp.status, StatusCode::OK);
            let reply = json_body(resp);
            let cells = reply.get("cells").and_then(Value::as_array).unwrap();
            prop_assert_eq!(cells.len(), want.len());
            for (i, (cell, want_lines)) in cells.iter().zip(&want).enumerate() {
                prop_assert_eq!(
                    string_vec(cell, "report"),
                    want_lines.clone(),
                    "cell {} diverges at parallelism {}", i, parallelism
                );
            }
        }
        // Same deck, same cells, same registry: the third batch ran
        // against the fills the second kept.
        let stats = json_body(get(&app, "/stats"));
        let libraries = stats.get("libraries").and_then(Value::as_array).unwrap();
        prop_assert_eq!(libraries.len(), 1, "one deck, one shared library session");
        let hits = libraries[0].get("cache_hits").and_then(Value::as_i64).unwrap();
        prop_assert!(hits > 0, "the repeat batch must hit the shared cache");
    }
}

/// The `/library` deck map is bounded: one deck more than the cap
/// leaves the cap's worth of entries, and the deck that was pushed out
/// recompiles to the same per-cell reports when it comes back.
#[test]
fn library_deck_map_is_bounded_lru() {
    let lib = cell_library(4, 7);
    let cells_json = Value::array(lib.cells.iter().map(|c| Value::from(c.cif.as_str())));
    let post_deck = |app: &Router, n: usize| -> Vec<Vec<String>> {
        // Distinct texts, one technology: a trailing comment.
        let deck = format!("{}\n# deck {n}\n", diic::deck::NMOS_DECK);
        let body = format!(
            r#"{{"cells": {cells_json}, "deck": {}}}"#,
            Value::from(deck)
        );
        let resp = post(app, "/library", body);
        assert_eq!(resp.status, StatusCode::OK, "deck {n}");
        let reply = json_body(resp);
        let cells = reply.get("cells").and_then(Value::as_array).unwrap();
        cells.iter().map(|c| string_vec(c, "report")).collect()
    };
    let library_decks = |app: &Router| {
        let stats = json_body(get(app, "/stats"));
        stats.get("library_decks").and_then(Value::as_i64).unwrap() as usize
    };

    let app = service();
    let first = post_deck(&app, 0);
    assert!(
        first.iter().any(|r| !r.is_empty()),
        "a faulted library reports something"
    );
    for n in 1..MAX_LIBRARY_DECKS {
        assert_eq!(post_deck(&app, n), first);
    }
    assert_eq!(library_decks(&app), MAX_LIBRARY_DECKS);
    // Deck 0 is the least recently used: one more distinct deck drops
    // it (the registry's own unit test pins which entry goes), and it
    // recompiles to the same reports when it comes back.
    assert_eq!(post_deck(&app, MAX_LIBRARY_DECKS), first);
    assert_eq!(library_decks(&app), MAX_LIBRARY_DECKS);
    assert_eq!(post_deck(&app, 0), first);
    assert_eq!(library_decks(&app), MAX_LIBRARY_DECKS);
}

// ---------------------------------------------------------------------
// Concurrency / soak.

/// Hot concurrent writers: N threads hammer one session while M
/// threads each churn private sessions (every open runs a sweep). The
/// registry has headroom, so nothing is evicted — no lost updates
/// (element counts add up exactly), no torn responses, no deadlock.
#[test]
fn soak_concurrent_edits_no_lost_updates() {
    let hot_threads = 4usize;
    let cold_threads = 3usize;
    let iters = 12usize;

    // Headroom: at most 1 hot + `cold_threads` sessions are ever open
    // at once, under the cap and the budget — every cold open still
    // runs a sweep concurrently with the hot writers.
    let app = Arc::new(router(App::new(RegistryConfig {
        max_sessions: 8,
        idle_ttl: Duration::from_secs(3600),
        ..RegistryConfig::default()
    })));

    let chip = generate(&ChipSpec::clean(2, 1));
    let hot_id = open_session(&app, &chip.cif, r#"{"erc": false}"#);
    let base_elements = {
        let resp = get(&app, &format!("/sessions/{hot_id}/report"));
        assert_eq!(resp.status, StatusCode::OK);
        let layout = diic::cif::parse(&chip.cif).unwrap();
        let tech = diic::tech::nmos::nmos_technology();
        let options = CheckOptions {
            erc: false,
            ..CheckOptions::default()
        };
        canonical_check(&layout, &tech, &options).element_count
    };

    std::thread::scope(|s| {
        // Hot: all threads append clean far-apart metal boxes to ONE
        // session. Adds commute, so any interleaving is fine — but a
        // lost update would show up as a missing element at the end.
        for t in 0..hot_threads {
            let app = Arc::clone(&app);
            s.spawn(move || {
                for i in 0..iters {
                    let y = 100_000 + (t * iters + i) as i64 * 3000;
                    let body = format!(
                        r#"{{"edits": [{{"op": "add_element", "layer": "NM",
                            "shape": {{"box": [-20000, {y}, -18000, {}]}},
                            "net": "IO_T{t}I{i}"}}]}}"#,
                        y + 750
                    );
                    let resp = app.oneshot(
                        Request::new(Method::Post, &format!("/sessions/{hot_id}/edits"))
                            .with_body(body),
                    );
                    // Nothing sheds here: the thread count stays under
                    // the queue bound and the registry has headroom.
                    assert_eq!(resp.status, StatusCode::OK, "hot edit failed");
                    json_body(resp); // must always parse — no torn bodies
                }
            });
        }
        // Cold: each thread repeatedly opens its own session (every
        // open runs a sweep concurrently with the hot edits), streams
        // its report — which must be exactly the canonical bytes —
        // and closes it.
        for t in 0..cold_threads {
            let app = Arc::clone(&app);
            let cif = chip.cif.clone();
            s.spawn(move || {
                let layout = diic::cif::parse(&cif).unwrap();
                let tech = diic::tech::nmos::nmos_technology();
                let options = CheckOptions {
                    erc: false,
                    ..CheckOptions::default()
                };
                let clean = render_canonical(&canonical_check(&layout, &tech, &options).violations);
                for i in 0..iters {
                    let id = open_session(&app, &cif, r#"{"erc": false}"#);
                    let resp = get(&app, &format!("/sessions/{id}/report"));
                    assert_eq!(resp.status, StatusCode::OK, "cold thread {t} iter {i}");
                    let bytes = resp.into_bytes().unwrap();
                    assert_eq!(
                        std::str::from_utf8(&bytes).unwrap(),
                        clean,
                        "cold thread {t} iter {i}: torn report"
                    );
                    let resp =
                        app.oneshot(Request::new(Method::Delete, &format!("/sessions/{id}")));
                    assert_eq!(resp.status, StatusCode::OK, "close {t}/{i}");
                }
            });
        }
    });

    // No lost updates: every hot add landed exactly once.
    let body = r#"{"edits": [{"op": "move", "index": 0, "by": [0, 0]}]}"#.to_string();
    let resp = post(&app, &format!("/sessions/{hot_id}/edits"), body);
    assert_eq!(resp.status, StatusCode::OK);
    let elements = json_body(resp)
        .get("report")
        .and_then(|r| r.get("elements"))
        .and_then(Value::as_i64)
        .unwrap();
    assert_eq!(
        elements as usize,
        base_elements + hot_threads * iters,
        "lost update: element count does not add up"
    );

    // With headroom, none of those concurrent sweeps evicted anything.
    let stats = json_body(get(&app, "/stats"));
    assert_eq!(
        stats.get("evicted_pressure").and_then(Value::as_i64),
        Some(0),
        "nothing should be evicted under headroom: {stats}"
    );
    assert_eq!(
        stats.get("evicted_idle").and_then(Value::as_i64),
        Some(0),
        "nothing idled past a 1h TTL: {stats}"
    );
}

/// Open-churn under a registry squeezed to a 1-byte memory budget and
/// a 2-session cap: every sweep compacts survivors and evicts LRU.
/// Concurrent owners racing those sweeps see `200` (with exactly
/// canonical bytes — eviction never tears an in-flight request, pins
/// forbid it) or `410` (evicted between requests) — never a `5xx`,
/// never a panic, never a torn body.
#[test]
fn soak_open_churn_under_eviction_pressure() {
    let threads = 4usize;
    let iters = 10usize;
    let app = Arc::new(router(App::new(RegistryConfig {
        max_sessions: 2,
        memory_budget_bytes: 1,
        idle_ttl: Duration::from_secs(3600),
        ..RegistryConfig::default()
    })));

    let chip = generate(&ChipSpec::clean(2, 1));
    let layout = diic::cif::parse(&chip.cif).unwrap();
    let tech = diic::tech::nmos::nmos_technology();
    let options = CheckOptions {
        erc: false,
        ..CheckOptions::default()
    };
    let clean = render_canonical(&canonical_check(&layout, &tech, &options).violations);

    std::thread::scope(|s| {
        for t in 0..threads {
            let app = Arc::clone(&app);
            let cif = chip.cif.clone();
            let clean = clean.clone();
            s.spawn(move || {
                for i in 0..iters {
                    let id = open_session(&app, &cif, r#"{"erc": false}"#);
                    // Report: 200 with full canonical bytes, or 410 if a
                    // racing sweep evicted us between the two requests.
                    let resp = get(&app, &format!("/sessions/{id}/report"));
                    match resp.status {
                        StatusCode::OK => {
                            let bytes = resp.into_bytes().unwrap();
                            assert_eq!(
                                std::str::from_utf8(&bytes).unwrap(),
                                clean,
                                "thread {t} iter {i}: torn report"
                            );
                        }
                        StatusCode::GONE => {}
                        other => panic!("thread {t} iter {i}: report {other:?}"),
                    }
                    // An edit against a maybe-evicted session: 200 or 410.
                    let body = format!(
                        r#"{{"edits": [{{"op": "add_element", "layer": "NM",
                            "shape": {{"box": [-20000, {0}, -18000, {1}]}}}}]}}"#,
                        100_000 + (t * iters + i) as i64 * 3000,
                        100_750 + (t * iters + i) as i64 * 3000,
                    );
                    let resp = app.oneshot(
                        Request::new(Method::Post, &format!("/sessions/{id}/edits"))
                            .with_body(body),
                    );
                    assert!(
                        resp.status == StatusCode::OK || resp.status == StatusCode::GONE,
                        "thread {t} iter {i}: edit {:?}",
                        resp.status
                    );
                    json_body(resp); // bodies always parse
                    let resp =
                        app.oneshot(Request::new(Method::Delete, &format!("/sessions/{id}")));
                    assert!(
                        resp.status == StatusCode::OK || resp.status == StatusCode::GONE,
                        "thread {t} iter {i}: close {:?}",
                        resp.status
                    );
                }
            });
        }
    });

    // Deterministic coda: with the registry quiet, opening A then B
    // makes B's sweep find A idle and over-budget — compact, still
    // over, evict. The pressure path provably ran.
    let a = open_session(&app, &chip.cif, r#"{"erc": false}"#);
    let _b = open_session(&app, &chip.cif, r#"{"erc": false}"#);
    assert_eq!(
        get(&app, &format!("/sessions/{a}/report")).status,
        StatusCode::GONE,
        "the 1-byte budget must evict the idle LRU session"
    );
    let stats = json_body(get(&app, "/stats"));
    let compactions = stats.get("compactions").and_then(Value::as_i64).unwrap();
    let evicted = stats
        .get("evicted_pressure")
        .and_then(Value::as_i64)
        .unwrap();
    assert!(compactions > 0, "no sweep ever compacted: {stats}");
    assert!(evicted > 0, "no sweep ever evicted: {stats}");
}

/// Sessions keep answering canonically after the sweep's
/// [`CheckSession::compact_memory`] ran on them (the doc-promised
/// service-level compaction test: interner eviction + handle remap
/// must be invisible on the wire).
#[test]
fn service_sessions_survive_compaction() {
    // A 1-byte budget makes every sweep compact (and want to evict)
    // everything. Holding a pin across the sweep — exactly what an
    // in-flight request does — lets compaction run on the session
    // while forbidding its eviction.
    let state = App::new(RegistryConfig {
        memory_budget_bytes: 1,
        ..RegistryConfig::default()
    });
    let app = router(Arc::clone(&state));
    let chip = generate(&ChipSpec::clean(3, 1));
    let layout = diic::cif::parse(&chip.cif).unwrap();
    let tech = diic::tech::nmos::nmos_technology();
    let mut oracle = CheckSession::new(layout, &tech, &CheckOptions::default());
    let id = open_session(&app, &chip.cif, "{}");

    let bounds = Rect::new(-2500, -6000, 3 * 6750 + 2500, 10000 + 2500);
    let mut rng = StdRng::seed_from_u64(7);
    for step in 0..5 {
        // Sweep with the session pinned: compact_memory runs on it
        // (the sweep takes the session mutex, not the pin), eviction
        // is forbidden by the pin.
        let pin = state.registry.pin(id).expect("session stays live");
        state.registry.sweep();
        drop(pin);

        let edits = random_edit_set(oracle.layout(), bounds, step, &mut rng);
        let body = wire::edit_set_to_json(&edits, oracle.layout()).to_string();
        oracle.apply(&edits).expect("generated edits are valid");
        let resp = post(&app, &format!("/sessions/{id}/edits"), body);
        assert_eq!(resp.status, StatusCode::OK, "step {step}");
        assert_report_streams(
            &app,
            id,
            &render_canonical(&oracle.report().violations),
            &format!("post-compaction step {step}"),
        );
    }
    let stats = json_body(get(&app, "/stats"));
    let compactions = stats.get("compactions").and_then(Value::as_i64).unwrap();
    assert!(compactions >= 5, "every sweep must have compacted: {stats}");
    assert_eq!(
        stats.get("open_sessions").and_then(Value::as_i64),
        Some(1),
        "the pinned session must never be evicted: {stats}"
    );
}

// ---------------------------------------------------------------------
// Error paths.

#[test]
fn malformed_bodies_are_4xx_never_panics() {
    let app = service();

    // Every front end's failure is its code plus a caret-rendered
    // diagnostic naming the text it points into.
    let rejected = |resp: Response, status: StatusCode, code: &str, file: &str| {
        assert_eq!(resp.status, status, "{code}");
        let body = json_body(resp);
        assert_eq!(body.get("error").and_then(Value::as_str), Some(code));
        let detail = body.get("detail").and_then(Value::as_str).unwrap();
        assert!(
            detail.contains(&format!(" --> {file}:")) && detail.contains('^'),
            "expected a caret-rendered {code} diagnostic, got: {detail}"
        );
    };

    // Not JSON at all, or not UTF-8.
    let resp = post(&app, "/sessions", "{not json".to_string());
    rejected(resp, StatusCode::BAD_REQUEST, "bad-json", "body");
    let resp = app.oneshot(Request::new(Method::Post, "/sessions").with_body(vec![b'{', 0xff]));
    rejected(resp, StatusCode::BAD_REQUEST, "bad-json", "body");
    // A bad escape whose reported offset falls inside a multi-byte
    // character, and a long one-line body whose detail stays small.
    let resp = post(&app, "/sessions", "{\"cif\": \"\\\u{e9}\"}".to_string());
    rejected(resp, StatusCode::BAD_REQUEST, "bad-json", "body");
    let long = format!("{{\"cif\": \"{}\" ?}}", "E".repeat(1 << 20));
    let resp = post(&app, "/sessions", long);
    assert_eq!(resp.status, StatusCode::BAD_REQUEST);
    assert!(resp.into_bytes().unwrap().len() < 1000);

    // JSON of the wrong shape.
    let resp = post(&app, "/sessions", r#"{"cif": 42}"#.to_string());
    assert_eq!(resp.status, StatusCode::UNPROCESSABLE_ENTITY);

    // Malformed CIF: a rendered parse diagnostic, not a panic — and
    // each input that overflowed the front end's arithmetic (a debug
    // panic in the handler, wrong geometry in release), and a call
    // chain deep enough to overflow a connection thread's stack.
    let chain: String = (0..10_000)
        .map(|i| format!("DS {i}; C {};DF;", i + 1))
        .collect();
    let deep = format!("{chain}DS 10000; DF; C 0; E");
    for cif in [
        "L NM; B oops; E",
        "L NM; B 99999999999999999999 750 0 0; E",
        "L NM; B 2 2 -9223372036854775808 0; E",
        "L NM; B 2 2 9223372036854775807 0; E",
        "DS 1 9223372036854775807 1; L NM; B 2 2 0 0; DF; C 1; E",
        "DS 1; DF; C 1 T 9223372036854775807 0 T 9223372036854775807 0; E",
        // Parses with an i64 per coordinate, but overflowed the
        // checker's call composition: out of the coordinate range now.
        "DS 1; L NM; B 2 2 0 0; DF; C 1 T 9223372036854775807 0; E",
        &deep,
    ] {
        let body = Value::object([("cif", Value::from(cif))]).to_string();
        rejected(
            post(&app, "/sessions", body),
            StatusCode::UNPROCESSABLE_ENTITY,
            "bad-cif",
            "cif",
        );
    }

    // A `/library` cell names its index.
    let body = r#"{"cells": ["E", "L NM; B 2 2 9223372036854775807 0; E"]}"#;
    let resp = post(&app, "/library", body.to_string());
    rejected(
        resp,
        StatusCode::UNPROCESSABLE_ENTITY,
        "bad-cif",
        "cells[1]",
    );

    // Malformed deck.
    let resp = post(
        &app,
        "/sessions",
        r#"{"cif": "L NM; B 2000 750 1000 375; E", "deck": "layer NM metal {\n  width 750\n"}"#
            .to_string(),
    );
    rejected(resp, StatusCode::UNPROCESSABLE_ENTITY, "bad-deck", "deck");

    // Unknown option keys: a typo, and two retired knobs (one name
    // split so a search for users of it finds none; the other's field
    // survives on `CheckOptions`, read by nothing).
    let retired = format!(r#"{{"tiled_{}": false}}"#, "interactions");
    let knobs = [
        r#"{"paralellism": 2}"#,
        retired.as_str(),
        r#"{"hierarchical": false}"#,
    ];
    for options in knobs {
        let resp = post(
            &app,
            "/sessions",
            format!(r#"{{"cif": "E", "options": {options}}}"#),
        );
        assert_eq!(resp.status, StatusCode::UNPROCESSABLE_ENTITY, "{options}");
        let detail = json_body(resp)
            .get("detail")
            .and_then(Value::as_str)
            .map(str::to_string);
        assert!(
            detail
                .as_deref()
                .is_some_and(|d| d.contains("unknown option")),
            "{options}: {detail:?}"
        );
    }

    // Bad edit bodies against a real session.
    let id = open_session(&app, "L NM; B 2000 750 1000 375; E", "{}");
    for (body, want) in [
        ("{", StatusCode::BAD_REQUEST),
        (r#"{"edits": 7}"#, StatusCode::UNPROCESSABLE_ENTITY),
        (
            r#"{"edits": [{"op": "transmogrify"}]}"#,
            StatusCode::UNPROCESSABLE_ENTITY,
        ),
        (
            // Valid shape, out-of-bounds index: rejected by apply(),
            // session untouched.
            r#"{"edits": [{"op": "remove", "index": 99}]}"#,
            StatusCode::UNPROCESSABLE_ENTITY,
        ),
        (
            // A box past the coordinate range: decoded unchecked, it
            // overflowed the checker's arithmetic (a debug panic in the
            // handler).
            r#"{"edits": [{"op": "add_element", "layer": "NM",
                "shape": {"box": [9223372036854775000, 0, 9223372036854775807, 750]}}]}"#,
            StatusCode::UNPROCESSABLE_ENTITY,
        ),
    ] {
        let resp = post(&app, &format!("/sessions/{id}/edits"), body.to_string());
        assert_eq!(resp.status, want, "body {body:?}");
        json_body(resp); // always a JSON error body
    }
    // The rejected edits left the session serving.
    assert_eq!(
        get(&app, &format!("/sessions/{id}/report")).status,
        StatusCode::OK
    );

    // A well-formed `replace_symbol` whose body calls the symbol's own
    // caller: every id is in range, but the definition would be
    // recursive, and the first hierarchy walk of it would overflow the
    // stack and abort the whole process. `422`, and the session keeps
    // the report bytes it had.
    let cif = "DS 1; L NM; B 2000 750 1000 375; B 2000 750 1000 1625; DF;
               DS 2; C 1 T 0 0; DF; C 2 T 0 0; E";
    let id = open_session(&app, cif, "{}");
    let report = |app: &Router| {
        let resp = get(app, &format!("/sessions/{id}/report"));
        assert_eq!(resp.status, StatusCode::OK);
        resp.into_bytes().unwrap()
    };
    let before = report(&app);
    assert!(!before.is_empty(), "the two boxes are too close");
    let layout = diic::cif::parse(cif).unwrap();
    let (callee, caller) = (SymbolId(0), SymbolId(1));
    let mut edits = EditSet::new();
    let body = vec![Item::Call(Call {
        target: caller,
        transform: Transform::IDENTITY,
        name: "loop".to_string(),
    })];
    edits.replace_symbol(callee, body);
    let body = wire::edit_set_to_json(&edits, &layout).to_string();
    let resp = post(&app, &format!("/sessions/{id}/edits"), body);
    assert_eq!(resp.status, StatusCode::UNPROCESSABLE_ENTITY);
    let body = json_body(resp);
    assert_eq!(body.get("error").and_then(Value::as_str), Some("bad-edit"));
    assert_eq!(report(&app), before);
}

/// A few hundred bytes of CIF — 30 levels of a symbol calling its child
/// twice — ask for 2³⁰ elements. The open is a `422 bad-cif` before any
/// template is built, and an edit that would call the top of the chain
/// into a session holding its table is a `422 bad-edit` that leaves the
/// session's report as it was.
#[test]
fn doubling_call_chain_is_refused_at_the_element_budget() {
    let table: String = (2..=31)
        .map(|n| format!("DS {n};C {};C {};DF;", n - 1, n - 1))
        .collect();
    let leaf = "DS 1;L NM;B 2000 750 1000 375;DF;";
    let app = service();

    let cif = format!("{leaf}{table}C 31;E");
    assert!(cif.len() < 600, "{} bytes", cif.len());
    let body = Value::object([("cif", Value::from(cif.as_str()))]).to_string();
    let resp = post(&app, "/sessions", body);
    assert_eq!(resp.status, StatusCode::UNPROCESSABLE_ENTITY);
    let body = json_body(resp);
    assert_eq!(body.get("error").and_then(Value::as_str), Some("bad-cif"));
    let detail = body.get("detail").and_then(Value::as_str).unwrap_or("");
    assert!(detail.contains("1073741824 elements"), "{detail}");

    let cif = format!("{leaf}{table}C 1;E");
    let id = open_session(&app, &cif, "{}");
    let report = |app: &Router| get(app, &format!("/sessions/{id}/report")).into_bytes();
    let before = report(&app).unwrap();
    let layout = diic::cif::parse(&cif).unwrap();
    let mut edits = EditSet::new();
    let top = layout.symbol_by_cif_id(31).unwrap();
    edits.add_call(top, Transform::IDENTITY, "big");
    let body = wire::edit_set_to_json(&edits, &layout).to_string();
    let resp = post(&app, &format!("/sessions/{id}/edits"), body);
    assert_eq!(resp.status, StatusCode::UNPROCESSABLE_ENTITY);
    let body = json_body(resp);
    assert_eq!(body.get("error").and_then(Value::as_str), Some("bad-edit"));
    assert_eq!(report(&app).unwrap(), before);
}

/// The deepest call chain the parser accepts (`MAX_CALL_DEPTH`) opens —
/// parse, instantiate, the whole check — on a thread with the 2 MiB
/// stack `axum::serve` gives a connection, in a debug build too. A chain
/// of a few thousand aborted the process there before the bound.
#[test]
fn deepest_accepted_call_chain_fits_a_connection_stack() {
    let depth = diic::cif::hierarchy::MAX_CALL_DEPTH;
    let chain: String = (1..depth)
        .map(|i| format!("DS {}; C {i}; DF;", i - 1))
        .collect();
    let cif = format!(
        "{chain}DS {}; L NM; B 2000 750 1000 375; DF; C 0; E",
        depth - 1
    );
    let body = Value::object([("cif", Value::from(cif.as_str()))]).to_string();
    let app = service();
    let status = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || post(&app, "/sessions", body).status)
        .unwrap()
        .join()
        .expect("the open fits the stack");
    assert_eq!(status, StatusCode::CREATED);
}

/// The farthest geometry the parser accepts — every coordinate and
/// every call translation at `MAX_COORD`, composed `MAX_CALL_DEPTH`
/// deep, and mirrored to the far side, against a deck whose metal
/// spacing is `MAX_COORD` too — checks without an overflow in a debug
/// build. One more unit is a `bad-cif` or a `bad-deck`.
#[test]
fn farthest_accepted_geometry_checks_without_overflow() {
    let (m, depth) = (diic::geom::MAX_COORD, diic::cif::hierarchy::MAX_CALL_DEPTH);
    let chain: String = (1..depth)
        .map(|i| format!("DS {}; C {i} T {m} {m}; DF;", i - 1))
        .collect();
    let leaf = format!(
        "DS {}; L NM; B 2000 750 {} {}; B 2000 750 {} 0; B 2000 250 0 0; \
         B 2000 750 0 1000; W 750 {} 5000 {} 5000; P 0 {m} 0 {} 1000 {};\
         9D D; 9T G NM {m} {m}; DF;",
        depth - 1,
        m - 1000,
        m - 375,
        1000 - m,
        m - 5000,
        m - 375,
        m - 1000,
        m - 1000,
    );
    let cif = format!("{chain}{leaf}C 0 T {m} {m}; C 0 MX R 0 -1 T {} {m}; E", -m);
    let spacing = |d: i64| {
        diic::deck::NMOS_DECK.replace(
            "space metal metal 3 lambda;",
            &format!("space metal metal {d};"),
        )
    };
    let app = service();
    let open = |cif: &str, deck: &str| {
        let body = Value::object([("cif", Value::from(cif)), ("deck", Value::from(deck))]);
        post(&app, "/sessions", body.to_string())
    };
    let resp = open(&cif, &spacing(m));
    assert_eq!(resp.status, StatusCode::CREATED);
    let id = json_body(resp).get("id").and_then(Value::as_i64).unwrap();
    let resp = get(&app, &format!("/sessions/{id}/report"));
    assert_eq!(resp.status, StatusCode::OK);
    assert!(!resp.into_bytes().unwrap().is_empty());
    let past = cif.replacen(
        &format!("C 0 T {m} {m}"),
        &format!("C 0 T {} {m}", m + 1),
        1,
    );
    let resp = open(&past, diic::deck::NMOS_DECK);
    assert_eq!(resp.status, StatusCode::UNPROCESSABLE_ENTITY);
    let resp = open(&cif, &spacing(m + 1));
    assert_eq!(resp.status, StatusCode::UNPROCESSABLE_ENTITY);
}

/// Every `move` vector the wire decoder accepts lies inside the
/// coordinate range, but a run of them can still walk an item out of
/// it: the step that would is a `422 bad-edit`, and the session keeps
/// serving the report it had.
#[test]
fn move_walk_past_the_coordinate_range_is_a_bad_edit() {
    let cif = "L NM; B 2000 750 1000 375; L NM; B 2000 750 1000 3375;
               L NM; B 2000 750 1000 6375; L NM; B 2000 750 1000 9375; E";
    let app = service();
    let id = open_session(&app, cif, "{}");
    let report = |app: &Router| {
        let resp = get(app, &format!("/sessions/{id}/report"));
        assert_eq!(resp.status, StatusCode::OK);
        resp.into_bytes().unwrap()
    };
    let mut step = EditSet::new();
    step.translate(0, diic::geom::MAX_COORD / 3, 0);
    let body = wire::edit_set_to_json(&step, &diic::cif::parse(cif).unwrap()).to_string();
    let mut walked = 0;
    let refused = loop {
        let before = report(&app);
        let resp = post(&app, &format!("/sessions/{id}/edits"), body.clone());
        if resp.status != StatusCode::OK {
            assert_eq!(report(&app), before);
            break resp;
        }
        walked += 1;
    };
    assert_eq!(walked, 2, "the third step ends past the range");
    assert_eq!(refused.status, StatusCode::UNPROCESSABLE_ENTITY);
    let refused = json_body(refused);
    assert_eq!(
        refused.get("error").and_then(Value::as_str),
        Some("bad-edit")
    );
    let detail = refused.get("detail").and_then(Value::as_str).unwrap();
    assert!(detail.contains("outside the coordinate range"), "{detail}");
}

/// A worker count from the wire is clamped to the machine's cores where
/// it is decoded (taken literally, a million would be a thread per job
/// in every stage), and the clamp is invisible in what comes back.
#[test]
fn wire_worker_count_is_clamped_to_the_cores() {
    let cores = diic::core::effective_parallelism(0);
    let huge: Value = serde_json::from_str(r#"{"parallelism": 1000000}"#).unwrap();
    let decoded = wire::check_options_from_json(Some(&huge)).unwrap();
    assert_eq!(decoded.parallelism, cores);

    let chip = generate(&ChipSpec::with_errors(
        3,
        2,
        vec![ErrorKind::NarrowWire, ErrorKind::CloseSpacing],
        7,
    ));
    let app = service();
    let reports: Vec<Vec<u8>> = [1usize, 1_000_000]
        .iter()
        .map(|workers| {
            let id = open_session(&app, &chip.cif, &format!(r#"{{"parallelism": {workers}}}"#));
            let resp = get(&app, &format!("/sessions/{id}/report"));
            assert_eq!(resp.status, StatusCode::OK);
            resp.into_bytes().unwrap()
        })
        .collect();
    assert!(!reports[0].is_empty(), "the faulted chip reports something");
    assert_eq!(reports[0], reports[1]);

    // `/library` decodes its worker count through the same function.
    let cells = Value::array([Value::from(chip.cif.as_str()), Value::from("E")]);
    let batches: Vec<Value> = [1usize, 1_000_000]
        .iter()
        .map(|workers| {
            let body = format!(r#"{{"cells": {cells}, "options": {{"parallelism": {workers}}}}}"#);
            let resp = post(&app, "/library", body);
            assert_eq!(resp.status, StatusCode::OK);
            json_body(resp).get("cells").cloned().expect("cells")
        })
        .collect();
    assert_eq!(batches[0], batches[1]);
}

#[test]
fn session_id_space_discriminates_404_from_410() {
    let app = service();
    // Never issued.
    assert_eq!(
        get(&app, "/sessions/999/report").status,
        StatusCode::NOT_FOUND
    );
    assert_eq!(
        get(&app, "/sessions/banana/report").status,
        StatusCode::NOT_FOUND
    );
    // Issued, then deleted → 410 everywhere.
    let id = open_session(&app, "L NM; B 2000 750 1000 375; E", "{}");
    let resp = app.oneshot(Request::new(Method::Delete, &format!("/sessions/{id}")));
    assert_eq!(resp.status, StatusCode::OK);
    assert_eq!(
        get(&app, &format!("/sessions/{id}/report")).status,
        StatusCode::GONE
    );
    let resp = post(
        &app,
        &format!("/sessions/{id}/edits"),
        r#"{"edits": []}"#.to_string(),
    );
    assert_eq!(resp.status, StatusCode::GONE);
    let resp = app.oneshot(Request::new(Method::Delete, &format!("/sessions/{id}")));
    assert_eq!(resp.status, StatusCode::GONE, "double delete");

    // Evicted (capacity pressure) → same 410.
    let app = router(App::new(RegistryConfig {
        max_sessions: 1,
        ..RegistryConfig::default()
    }));
    let first = open_session(&app, "L NM; B 2000 750 1000 375; E", "{}");
    let _second = open_session(&app, "L NM; B 2000 750 1000 375; E", "{}");
    let _third = open_session(&app, "L NM; B 2000 750 1000 375; E", "{}");
    assert_eq!(
        get(&app, &format!("/sessions/{first}/report")).status,
        StatusCode::GONE,
        "the LRU session must have been evicted"
    );
}

/// A client hanging up mid-stream: the body writer hits the I/O error
/// (the sink latches it), the pin drops, and the session keeps
/// serving canonical bytes — the registry is not poisoned.
#[test]
fn client_disconnect_mid_stream_does_not_poison_the_session() {
    /// A connection that dies after a few bytes.
    struct Hangup {
        left: usize,
    }
    impl std::io::Write for Hangup {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.left == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::BrokenPipe,
                    "client hung up",
                ));
            }
            let n = buf.len().min(self.left);
            self.left -= n;
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    let app = service();
    // A chip with real violations so the report has bytes to truncate.
    let chip = generate(&ChipSpec::with_errors(
        2,
        1,
        vec![ErrorKind::CloseSpacing, ErrorKind::NarrowWire],
        11,
    ));
    let id = open_session(&app, &chip.cif, "{}");

    let expected = {
        let resp = get(&app, &format!("/sessions/{id}/report"));
        String::from_utf8(resp.into_bytes().unwrap()).unwrap()
    };
    assert!(!expected.is_empty(), "need a non-empty report to truncate");

    for query in ["", "?spill_budget=1"] {
        let resp = get(&app, &format!("/sessions/{id}/report{query}"));
        assert_eq!(resp.status, StatusCode::OK);
        let Body::Writer(writer) = resp.body else {
            panic!("report bodies stream");
        };
        let err = writer(&mut Hangup { left: 8 });
        assert!(err.is_err(), "the latched sink error must surface");
    }

    // The session still answers, bytes still canonical.
    let resp = get(&app, &format!("/sessions/{id}/report"));
    assert_eq!(resp.status, StatusCode::OK);
    assert_eq!(
        String::from_utf8(resp.into_bytes().unwrap()).unwrap(),
        expected,
        "a hung-up stream must not corrupt later ones"
    );
    // And the registry still takes edits for it.
    let resp = post(
        &app,
        &format!("/sessions/{id}/edits"),
        r#"{"edits": [{"op": "move", "index": 0, "by": [0, 40]}]}"#.to_string(),
    );
    assert_eq!(resp.status, StatusCode::OK);
}

/// The service-wide admission bound sheds with 503 — while the
/// diagnostic endpoints stay reachable — and a released permit admits
/// the next request.
#[test]
fn overload_sheds_with_503_and_recovers() {
    let app = router(App::new(RegistryConfig {
        max_concurrent_requests: 0,
        ..RegistryConfig::default()
    }));
    let resp = post(
        &app,
        "/sessions",
        r#"{"cif": "L NM; B 2000 750 1000 375; E"}"#.to_string(),
    );
    assert_eq!(resp.status, StatusCode::SERVICE_UNAVAILABLE);
    let body = json_body(resp);
    assert_eq!(
        body.get("error").and_then(Value::as_str),
        Some("overloaded")
    );
    // Liveness and stats never shed: an operator can always see why.
    assert_eq!(get(&app, "/healthz").status, StatusCode::OK);
    assert_eq!(get(&app, "/stats").status, StatusCode::OK);

    // A budget of one serves any number of *sequential* requests: the
    // permit drops with each response (shedding would mean a leak).
    let app = router(App::new(RegistryConfig {
        max_concurrent_requests: 1,
        ..RegistryConfig::default()
    }));
    let id = open_session(&app, "L NM; B 2000 750 1000 375; E", "{}");
    for _ in 0..3 {
        let resp = get(&app, &format!("/sessions/{id}/report"));
        assert_eq!(resp.status, StatusCode::OK, "permit leaked");
        resp.into_bytes().unwrap(); // the streamed body carries the permit
    }
}

/// The lines of a streamed report body.
fn body_lines(app: &Router, id: u64) -> Vec<String> {
    let resp = get(app, &format!("/sessions/{id}/report"));
    assert_eq!(resp.status, StatusCode::OK);
    let bytes = resp.into_bytes().unwrap();
    (std::str::from_utf8(&bytes).unwrap().lines())
        .map(str::to_string)
        .collect()
}

/// The route answers an edit with the session's own delta, taken from
/// its patch: along an edit stream, each response's `added` / `removed`
/// is `violation_delta` of the reports before and after it — the
/// `GET /report` bodies, which the local session renders line for line.
#[test]
fn edit_responses_carry_the_delta_of_the_report_bodies() {
    let tech = diic::tech::nmos::nmos_technology();
    let errors = vec![
        ErrorKind::NarrowWire,
        ErrorKind::CloseSpacing,
        ErrorKind::BusToRail,
    ];
    let chip = generate(&ChipSpec::with_errors(4, 2, errors, 11));
    let layout = diic::cif::parse(&chip.cif).unwrap();
    let app = service();
    let id = open_session(&app, &chip.cif, "{}");
    let mut local = CheckSession::new(layout, &tech, &CheckOptions::default());
    let bounds = Rect::new(-2500, -6000, 4 * 6750 + 2500, 2 * 10000 + 2500);
    let mut rng = StdRng::seed_from_u64(0xB0D1E5);
    let render = |violations: &[Violation]| -> Vec<String> {
        violations.iter().map(|v| format!("{v:?}")).collect()
    };
    for step in 0..24 {
        let edits = random_edit_set(local.layout(), bounds, step, &mut rng);
        let body = wire::edit_set_to_json(&edits, local.layout()).to_string();
        let before = body_lines(&app, id);
        let old = local.report().violations.clone();
        assert_eq!(before, render(&old), "step {step}: the body before");
        let resp = post(&app, &format!("/sessions/{id}/edits"), body);
        assert_eq!(resp.status, StatusCode::OK, "step {step}");
        let delta = json_body(resp);
        local.apply(&edits).unwrap();
        let after = body_lines(&app, id);
        assert_eq!(
            after,
            render(&local.report().violations),
            "step {step}: the body after"
        );
        let (added, removed) = wire::violation_delta(&old, &local.report().violations);
        assert_eq!(string_vec(&delta, "added"), added, "step {step}: added");
        assert_eq!(
            string_vec(&delta, "removed"),
            removed,
            "step {step}: removed"
        );
    }
}

/// The `POST /sessions/{id}/edits` body, fuzzed the way
/// `tests/diagnostics.rs` fuzzes CIF and decks: a real encoded edit set,
/// truncated, with a stray `?` or `é`, or with a 20-digit number spliced
/// in at every 37th byte. A variant is accepted or refused with a 4xx
/// and a detail — never a 5xx or a panic — and a refused one leaves the
/// session's report and layout as they were.
#[test]
fn fuzzed_edit_bodies_are_refused_without_touching_the_session() {
    let chip = generate(&ChipSpec::with_errors(2, 1, vec![ErrorKind::NarrowWire], 5));
    let layout = diic::cif::parse(&chip.cif).unwrap();
    let symbol = SymbolId(0);
    let mut edits = EditSet::new();
    edits
        .add_box("NM", Rect::new(0, -9000, 2000, -8250), Some("IO_FUZZ"))
        .translate(0, 250, -500)
        .add_call(
            symbol,
            Transform::translate(diic::geom::Vector::new(0, -20_000)),
            "fz",
        )
        .remove(1)
        .replace_symbol(symbol, layout.symbol(symbol).items.clone());
    let source = wire::edit_set_to_json(&edits, &layout).to_string();

    let app = App::new(RegistryConfig::default());
    let routes = router(Arc::clone(&app));
    let open = |routes: &Router| open_session(routes, &chip.cif, "{}");
    let state = |id: u64| {
        let pin = app.registry.pin(id).unwrap();
        let session = pin.lock().unwrap();
        (
            session.layout().clone(),
            session.report().violations.clone(),
        )
    };
    let mut id = open(&routes);
    let (mut refused, mut accepted) = (0, 0);
    for cut in (0..=source.len()).step_by(37) {
        if !source.is_char_boundary(cut) {
            continue;
        }
        let (head, tail) = source.split_at(cut);
        let variants = [
            head.to_string(),
            format!("{head}?{tail}"),
            format!("{head}\u{e9}{tail}"),
            format!("{head} 99999999999999999999 {tail}"),
        ];
        for body in variants {
            let before = state(id);
            let resp = post(&routes, &format!("/sessions/{id}/edits"), body);
            let status = resp.status;
            let answer = json_body(resp);
            if status == StatusCode::OK {
                // A variant that still encodes an edit set was applied:
                // start the next one from a fresh session.
                accepted += 1;
                id = open(&routes);
                continue;
            }
            refused += 1;
            assert!(
                (400..500).contains(&status.0),
                "cut at {cut}: {status:?} {answer:?}"
            );
            let detail = answer.get("detail").and_then(Value::as_str).unwrap_or("");
            assert!(!detail.is_empty(), "cut at {cut}: no detail in {answer:?}");
            assert!(
                state(id) == before,
                "cut at {cut}: a refused body changed the session"
            );
        }
    }
    assert!(
        refused > 0 && accepted > 0,
        "refused {refused}, accepted {accepted}"
    );
}

//! `service-mix`: closed-loop clients driving the HTTP router
//! in-process (`Router::oneshot` — real sockets would add kernel noise
//! and are not in the claim), each owning four sessions of the
//! `edit-session` chip with different fault seeds.
//!
//! Per client, by choice: 80 % `POST /sessions/{id}/edits` (the same
//! do/undo stream as `edit-session`, pre-encoded with
//! `wire::edit_set_to_json`), 14 % `GET /sessions/{id}/report`
//! (alternating plain and `?spill_budget=8`), 3 % `POST /sessions`
//! followed by its `DELETE` (two ops), 3 % `POST /library` of 32 cells
//! on the warm per-deck `LibrarySession`.
//!
//! It is the same edit as `edit-session`, so the difference in edit
//! latency is the wire + registry + JSON cost; and it is the only
//! workload with reads beside writes under concurrency, `SpillingSink`,
//! a deck compile per open, and the registry sweep.

use super::edit::{render, session_chip, stream_len};
use super::{Spec, Workload};
use crate::edits::{Deck, EditStream};
use crate::harness::{median, percentile, sorted, Config, Meter, Metrics, Section, Until};
use crate::layers::{self, median_ns};
use crate::trace::{self, Span, Tracer};
use axum::{Method, Request, Router, StatusCode};
use diic_api::{router, wire, App, RegistryConfig};
use diic_cif::Layout;
use diic_core::{canonical_check, CheckOptions};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use serde_json::Value;
use std::hint::black_box;
use std::time::Instant;

pub const SPEC: Spec = Spec {
    name: "service-mix",
    tail_pct: 99.0,
    min_ops: 2000,
    unit: "requests",
};

/// Violations a spilled report read keeps in memory.
pub const SPILL_BUDGET: usize = 8;
const SESSIONS_PER_CLIENT: usize = 4;
const LIBRARY_CELLS: usize = 32;

/// The routes of the mix; a traced op's span carries the route name.
const ROUTES: [&str; 5] = [
    "api.edits",
    "api.report",
    "api.open",
    "api.delete",
    "api.library",
];

/// One session as its client sees it.
struct ClientSession {
    id: u64,
    start: Layout,
    stream: EditStream,
    /// `bodies[i]` is the wire form of `stream.ops()[i]`.
    bodies: Vec<String>,
    initial_report: String,
    /// Body of the last edit response; its summary is read at the end.
    last_edit_response: Vec<u8>,
}

/// What a client does next.
#[derive(Debug, Clone, Copy)]
enum Choice {
    Edit,
    Report,
    OpenDelete,
    Library,
}

struct Client {
    rng: StdRng,
    mix: Deck<Choice>,
    sessions: Vec<ClientSession>,
    open_body: String,
    library_body: String,
    spill_next: bool,
}

/// What one client's loop produced.
struct ClientRun {
    ops: Meter,
    failed: u64,
    shed: u64,
    spans: Vec<Span>,
}

pub struct Service {
    app: Router,
    clients: Vec<Client>,
    shed: u64,
}

fn json_string(text: &str) -> String {
    serde_json::to_string(&Value::from(text))
}

fn parse_json(bytes: &[u8]) -> Value {
    serde_json::from_str(std::str::from_utf8(bytes).expect("responses are UTF-8"))
        .expect("responses are JSON")
}

/// Sends one request and collects the whole response body (a streamed
/// report does its work while the body is collected).
fn send(app: &Router, name: &'static str, req: Request, t: &mut Tracer) -> (StatusCode, Vec<u8>) {
    t.span(name, |t| {
        let resp = t.span("router.oneshot", |_| app.oneshot(req));
        let status = resp.status;
        let body = t.span("response.body", |_| resp.into_bytes());
        match body {
            Ok(bytes) => (status, bytes),
            // A torn stream is a failed op whatever the status said.
            Err(_) => (StatusCode::INTERNAL_SERVER_ERROR, Vec::new()),
        }
    })
}

fn edits_request(session: &ClientSession, body: String) -> Request {
    Request::new(Method::Post, &format!("/sessions/{}/edits", session.id)).with_body(body)
}

impl Client {
    fn new(app: &Router, cfg: &Config, number: u64) -> Client {
        let mut client = Client {
            rng: StdRng::seed_from_u64(cfg.seed ^ (number + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            mix: Deck::new(&[
                (Choice::Edit, 80),
                (Choice::Report, 14),
                (Choice::OpenDelete, 3),
                (Choice::Library, 3),
            ]),
            sessions: Vec::new(),
            open_body: String::new(),
            library_body: String::new(),
            spill_next: false,
        };
        let mut off = Tracer::off();
        for k in 0..SESSIONS_PER_CLIENT as u64 {
            let seed = cfg.seed.wrapping_mul(1000) + number * 10 + k;
            let chip = session_chip(cfg, seed);
            let open_body = format!(
                r#"{{"cif":{},"options":{{"parallelism":1}}}}"#,
                json_string(&chip.cif)
            );
            let (status, bytes) = send(
                app,
                "api.open",
                Request::new(Method::Post, "/sessions").with_body(open_body.clone()),
                &mut off,
            );
            assert_eq!(status, StatusCode::CREATED, "session open failed");
            let id = parse_json(&bytes)
                .get("id")
                .and_then(Value::as_i64)
                .expect("open returns an id") as u64;
            let (status, report) = send(
                app,
                "api.report",
                Request::new(Method::Get, &format!("/sessions/{id}/report")),
                &mut off,
            );
            assert_eq!(status, StatusCode::OK, "initial report read failed");
            let start = diic_cif::parse(&chip.cif).expect("generated chips always parse");
            let stream = EditStream::new(&start, seed, stream_len(cfg));
            let bodies = stream
                .ops()
                .iter()
                .map(|op| serde_json::to_string(&wire::edit_set_to_json(&op.edits, &start)))
                .collect();
            client.sessions.push(ClientSession {
                id,
                start,
                stream,
                bodies,
                initial_report: String::from_utf8(report).expect("reports are UTF-8"),
                last_edit_response: Vec::new(),
            });
            client.open_body = open_body;
        }
        let cells = diic_gen::cell_library(LIBRARY_CELLS, cfg.seed ^ number);
        let cifs: Vec<String> = cells.cells.iter().map(|c| json_string(&c.cif)).collect();
        client.library_body = format!(
            r#"{{"cells":[{}],"options":{{"parallelism":1}}}}"#,
            cifs.join(",")
        );
        client
    }

    /// One choice from the mix: one op, or two for open + delete.
    fn step(&mut self, app: &Router, tracer: &mut Tracer, run: &mut ClientRun) {
        let timed = |name, req, tracer: &mut Tracer, run: &mut ClientRun| {
            let (status, bytes) = run.ops.measure(|| send(app, name, req, tracer));
            if !matches!(status, StatusCode::OK | StatusCode::CREATED) {
                eprintln!("{name}: status {}", status.0);
                run.failed += 1;
                if matches!(
                    status,
                    StatusCode::TOO_MANY_REQUESTS | StatusCode::SERVICE_UNAVAILABLE
                ) {
                    run.shed += 1;
                }
            }
            (status, bytes)
        };
        let pick = self.rng.next_below(self.sessions.len() as u64) as usize;
        match self.mix.deal(&mut self.rng) {
            Choice::Edit => {
                let session = &mut self.sessions[pick];
                let body = session.bodies[session.stream.cursor()].clone();
                session.stream.next_op();
                let (_, bytes) = timed("api.edits", edits_request(session, body), tracer, run);
                session.last_edit_response = bytes;
            }
            Choice::Report => {
                let spill = self.spill_next;
                self.spill_next = !spill;
                let query = if spill {
                    format!("?spill_budget={SPILL_BUDGET}")
                } else {
                    String::new()
                };
                let target = format!("/sessions/{}/report{query}", self.sessions[pick].id);
                timed(
                    "api.report",
                    Request::new(Method::Get, &target),
                    tracer,
                    run,
                );
            }
            Choice::OpenDelete => {
                let open =
                    Request::new(Method::Post, "/sessions").with_body(self.open_body.clone());
                let (status, bytes) = timed("api.open", open, tracer, run);
                if status == StatusCode::CREATED {
                    let id = parse_json(&bytes).get("id").and_then(Value::as_i64);
                    let target = format!("/sessions/{}", id.expect("open returns an id"));
                    timed(
                        "api.delete",
                        Request::new(Method::Delete, &target),
                        tracer,
                        run,
                    );
                }
            }
            Choice::Library => {
                let req =
                    Request::new(Method::Post, "/library").with_body(self.library_body.clone());
                timed("api.library", req, tracer, run);
            }
        }
    }

    fn run(&mut self, app: &Router, until: Until, mut tracer: Tracer) -> ClientRun {
        let mut run = ClientRun {
            ops: Meter::start(),
            failed: 0,
            shed: 0,
            spans: Vec::new(),
        };
        while !until.done(run.ops.calls()) {
            self.step(app, &mut tracer, &mut run);
        }
        run.spans = tracer.into_spans();
        run
    }
}

/// `report.violations` of an edit response.
fn summary_violations(edit_response: &[u8]) -> Option<i64> {
    if edit_response.is_empty() {
        return None;
    }
    parse_json(edit_response)
        .get("report")
        .and_then(|r| r.get("violations"))
        .and_then(Value::as_i64)
}

impl Service {
    pub fn setup(cfg: &Config) -> (Service, f64) {
        // Two closed-loop clients, one where there is one core.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut meter = Meter::start();
        let app = meter.measure(|| router(App::new(RegistryConfig::default())));
        let clients: Vec<Client> = (0..cores.min(2) as u64)
            .map(|number| meter.measure(|| Client::new(&app, cfg, number)))
            .collect();
        let warm_up_ops = cfg.scale.pick(500, 10) * clients.len();
        let mut service = Service {
            app,
            clients,
            shed: 0,
        };
        let warm_up = service.run(Until::ops(warm_up_ops), false);
        // The clients warm up side by side.
        let warm_up_s = warm_up.busy_s() / service.clients.len() as f64;
        (service, meter.busy_s() + warm_up_s)
    }
}

impl Workload for Service {
    fn run(&mut self, until: Until, trace: bool) -> Section {
        let app = &self.app;
        let per_client = Until {
            min_ops: until.min_ops.div_ceil(self.clients.len()),
            deadline: until.deadline,
        };
        let epoch = Instant::now();
        let runs: Vec<ClientRun> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(number, client)| {
                    let tracer = Tracer::new(trace, epoch, number as u32);
                    scope.spawn(move || client.run(app, per_client, tracer))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let mut section = Section::default();
        let mut spans = Vec::new();
        self.shed = 0;
        for run in runs {
            // One request per op.
            let requests = run.ops.calls() as u64;
            section.add_client(run.ops, requests);
            section.failed += run.failed;
            self.shed += run.shed;
            spans.push(run.spans);
        }
        section.spans = trace::merge(spans);
        section
    }

    fn verify(&mut self) -> Result<(), String> {
        let mut off = Tracer::off();
        let mut owned = 0;
        for session in self.clients.iter_mut().flat_map(|c| &mut c.sessions) {
            owned += 1;
            for inverse in session.stream.close() {
                let body =
                    serde_json::to_string(&wire::edit_set_to_json(&inverse.edits, &session.start));
                let (status, bytes) = send(
                    &self.app,
                    "api.edits",
                    edits_request(session, body),
                    &mut off,
                );
                if status != StatusCode::OK {
                    return Err(format!("closing inverse got status {}", status.0));
                }
                session.last_edit_response = bytes;
            }
            let target = format!("/sessions/{}/report", session.id);
            let (status, bytes) = send(
                &self.app,
                "api.report",
                Request::new(Method::Get, &target),
                &mut off,
            );
            if status != StatusCode::OK {
                return Err(format!("final report read got status {}", status.0));
            }
            let report = String::from_utf8(bytes).map_err(|e| e.to_string())?;
            let lines = report.lines().count() as i64;
            let summary = summary_violations(&session.last_edit_response);
            if summary != Some(lines) {
                return Err(format!(
                    "session {}: {lines} report lines, last edit summary said {summary:?}",
                    session.id
                ));
            }
            if report != session.initial_report {
                return Err(format!(
                    "session {}: the final report differs from the initial one",
                    session.id
                ));
            }
        }
        let (_, stats) = send(
            &self.app,
            "api.stats",
            Request::new(Method::Get, "/stats"),
            &mut off,
        );
        let open = parse_json(&stats)
            .get("open_sessions")
            .and_then(Value::as_i64);
        if open != Some(owned) {
            return Err(format!(
                "/stats reports {open:?} open sessions, clients own {owned}"
            ));
        }
        Ok(())
    }

    fn layer_metrics(&mut self, traced: &Section, out: &mut Metrics) {
        let spans = &traced.spans;
        for route in ROUTES {
            let ms: Vec<f64> = trace::durations_us(spans, route)
                .iter()
                .map(|us| us / 1e3)
                .collect();
            out.put(&format!("{route}_p50_ms"), median(&ms), "ms");
            if route == "api.edits" {
                out.put("api.edits_p99_ms", percentile(&sorted(&ms), 99.0), "ms");
            }
        }
        out.put("api.shed_count", self.shed as f64, "count");

        let session = &self.clients[0].sessions[0];
        let decode = median_ns(5, || {
            for body in &session.bodies {
                let value = serde_json::from_str(body).expect("bodies are JSON");
                black_box(wire::edit_set_from_json(&value, &session.start).is_ok());
            }
        }) / session.bodies.len() as f64;
        out.put("api.wire_decode_us", decode / 1e3, "us");

        // One edit's delta: three lines leave a report of this size.
        let options = CheckOptions {
            parallelism: 1,
            ..CheckOptions::default()
        };
        let tech = diic_deck::compile_str(diic_deck::NMOS_DECK).expect("built-in deck compiles");
        let old = canonical_check(&session.start, &tech, &options).violations;
        assert_eq!(
            render(&old),
            session.initial_report,
            "wire report ≡ local check"
        );
        let new = &old[3.min(old.len())..];
        let t = median_ns(50, || {
            let (added, removed) = wire::violation_delta(&old, new);
            let delta = Value::object([
                ("added", Value::array(added.into_iter().map(Value::from))),
                (
                    "removed",
                    Value::array(removed.into_iter().map(Value::from)),
                ),
            ]);
            black_box(serde_json::to_string(&delta));
        });
        out.put("api.wire_delta_us", t / 1e3, "us");

        let documents = || {
            session
                .bodies
                .iter()
                .map(String::as_str)
                .chain([self.clients[0].open_body.as_str()])
        };
        let bytes: usize = documents().map(str::len).sum();
        let t = median_ns(5, || {
            for doc in documents() {
                black_box(serde_json::from_str(doc).is_ok());
            }
        });
        out.put(
            "api.json_parse_mb_per_s",
            bytes as f64 / 1e6 / (t / 1e9),
            "MB/s",
        );

        layers::deck_compile(out);
        layers::sinks(&old, SPILL_BUDGET, &crate::out_dir().join("tmp"), out);
    }
}

//! Offline stand-in for the `axum` (+ `hyper`) crates.
//!
//! The build environment has no crates registry, so the workspace
//! vendors the slice of an HTTP framework `diic-api` needs, shaped
//! like axum where the shapes coincide:
//!
//! * [`Router`] with `{param}` path captures and per-method routing
//!   ([`get`] / [`post`] / [`delete`] method routers);
//! * [`Request`] / [`Response`] types, with a **streaming** response
//!   body variant ([`Body::Writer`]) — a closure handed the connection
//!   writer, which is how the service writes a session's canonical
//!   report without materialising it;
//! * [`Router::oneshot`] in-process dispatch (the tower idiom the
//!   differential and soak tests drive — no sockets involved);
//! * [`serve`], a small blocking HTTP/1.1 server over
//!   [`std::net::TcpListener`] — thread per connection, bounded by a
//!   connection cap that sheds load with `503` instead of queueing
//!   unboundedly.
//!
//! There is deliberately no async runtime: the checker engine is
//! CPU-bound and already owns a deterministic worker pool, so service
//! concurrency is plain OS threads; "async" arrives at the wire as
//! close-delimited streaming bodies.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// An HTTP method (the subset the service routes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// `GET`
    Get,
    /// `POST`
    Post,
    /// `DELETE`
    Delete,
}

impl Method {
    /// Parses a request-line method token.
    pub fn parse(s: &str) -> Option<Method> {
        match s {
            "GET" => Some(Method::Get),
            "POST" => Some(Method::Post),
            "DELETE" => Some(Method::Delete),
            _ => None,
        }
    }

    /// The canonical token.
    pub fn as_str(self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Delete => "DELETE",
        }
    }
}

/// An HTTP status code with its canonical reason phrase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatusCode(pub u16);

impl StatusCode {
    /// 200
    pub const OK: StatusCode = StatusCode(200);
    /// 201
    pub const CREATED: StatusCode = StatusCode(201);
    /// 400
    pub const BAD_REQUEST: StatusCode = StatusCode(400);
    /// 404
    pub const NOT_FOUND: StatusCode = StatusCode(404);
    /// 405
    pub const METHOD_NOT_ALLOWED: StatusCode = StatusCode(405);
    /// 410
    pub const GONE: StatusCode = StatusCode(410);
    /// 413
    pub const PAYLOAD_TOO_LARGE: StatusCode = StatusCode(413);
    /// 422
    pub const UNPROCESSABLE_ENTITY: StatusCode = StatusCode(422);
    /// 429
    pub const TOO_MANY_REQUESTS: StatusCode = StatusCode(429);
    /// 500
    pub const INTERNAL_SERVER_ERROR: StatusCode = StatusCode(500);
    /// 503
    pub const SERVICE_UNAVAILABLE: StatusCode = StatusCode(503);

    /// True for 2xx.
    pub fn is_success(self) -> bool {
        (200..300).contains(&self.0)
    }

    /// The reason phrase written on the status line.
    pub fn reason(self) -> &'static str {
        match self.0 {
            200 => "OK",
            201 => "Created",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            410 => "Gone",
            413 => "Payload Too Large",
            422 => "Unprocessable Entity",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }
}

/// A parsed request as a handler sees it.
#[derive(Debug)]
pub struct Request {
    /// The method.
    pub method: Method,
    /// The decoded path, query string stripped.
    pub path: String,
    /// Query pairs in order of appearance (`?a=1&b=2`), values
    /// percent-decoded minimally (`%xx` and `+`).
    pub query: Vec<(String, String)>,
    /// Header pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The body bytes.
    pub body: Vec<u8>,
    /// Path captures bound by the matched route pattern, in pattern
    /// order (`{id}` → `("id", "…")`).
    pub params: Vec<(String, String)>,
}

impl Request {
    /// A request with the given method and target (path plus optional
    /// `?query`) and no body — the oneshot-test constructor.
    pub fn new(method: Method, target: &str) -> Request {
        let (path, query) = split_target(target);
        Request {
            method,
            path,
            query,
            headers: Vec::new(),
            body: Vec::new(),
            params: Vec::new(),
        }
    }

    /// Sets the body.
    pub fn with_body(mut self, body: impl Into<Vec<u8>>) -> Request {
        self.body = body.into();
        self
    }

    /// First value of a path capture.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.params
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// First value of a query key.
    pub fn query_get(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A streaming body writer: handed the connection's writer, returns
/// the first I/O error it hit (a client hanging up mid-stream shows up
/// here, not as a panic).
pub type BodyWriter = Box<dyn FnOnce(&mut dyn Write) -> io::Result<()> + Send>;

/// A response body: either materialised bytes or a streaming writer.
pub enum Body {
    /// Fully materialised body (gets a `Content-Length`).
    Bytes(Vec<u8>),
    /// Streamed body: written straight to the connection and delimited
    /// by connection close (no `Content-Length`). Over
    /// [`Router::oneshot`] the stream is collected into bytes.
    Writer(BodyWriter),
}

impl std::fmt::Debug for Body {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Body::Bytes(b) => write!(f, "Body::Bytes({} bytes)", b.len()),
            Body::Writer(_) => write!(f, "Body::Writer(..)"),
        }
    }
}

/// A handler's response.
#[derive(Debug)]
pub struct Response {
    /// The status code.
    pub status: StatusCode,
    /// Extra headers (content-type etc.).
    pub headers: Vec<(String, String)>,
    /// The body.
    pub body: Body,
}

impl Response {
    /// An empty response with the given status.
    pub fn new(status: StatusCode) -> Response {
        Response {
            status,
            headers: Vec::new(),
            body: Body::Bytes(Vec::new()),
        }
    }

    /// Adds a header.
    pub fn header(mut self, name: &str, value: &str) -> Response {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// Sets a byte body.
    pub fn body(mut self, bytes: impl Into<Vec<u8>>) -> Response {
        self.body = Body::Bytes(bytes.into());
        self
    }

    /// Sets a streaming body.
    pub fn body_writer(mut self, writer: BodyWriter) -> Response {
        self.body = Body::Writer(writer);
        self
    }

    /// Plain-text convenience.
    pub fn text(status: StatusCode, text: impl Into<String>) -> Response {
        Response::new(status)
            .header("content-type", "text/plain; charset=utf-8")
            .body(text.into().into_bytes())
    }

    /// Collects the body into bytes (runs a streaming writer to
    /// completion). The in-process test path.
    pub fn into_bytes(self) -> io::Result<Vec<u8>> {
        match self.body {
            Body::Bytes(b) => Ok(b),
            Body::Writer(w) => {
                let mut buf = Vec::new();
                w(&mut buf)?;
                Ok(buf)
            }
        }
    }
}

/// The boxed handler type: request in, response out.
pub type Handler = Arc<dyn Fn(Request) -> Response + Send + Sync>;

/// Per-path method table, axum-style: `get(h)`, `post(h).delete(h2)`…
#[derive(Clone, Default)]
pub struct MethodRouter {
    entries: Vec<(Method, Handler)>,
}

impl MethodRouter {
    fn on(
        mut self,
        method: Method,
        handler: impl Fn(Request) -> Response + Send + Sync + 'static,
    ) -> Self {
        self.entries.push((method, Arc::new(handler)));
        self
    }

    /// Adds a `GET` handler.
    pub fn get(self, h: impl Fn(Request) -> Response + Send + Sync + 'static) -> Self {
        self.on(Method::Get, h)
    }

    /// Adds a `POST` handler.
    pub fn post(self, h: impl Fn(Request) -> Response + Send + Sync + 'static) -> Self {
        self.on(Method::Post, h)
    }

    /// Adds a `DELETE` handler.
    pub fn delete(self, h: impl Fn(Request) -> Response + Send + Sync + 'static) -> Self {
        self.on(Method::Delete, h)
    }
}

/// A `GET` method router.
pub fn get(h: impl Fn(Request) -> Response + Send + Sync + 'static) -> MethodRouter {
    MethodRouter::default().get(h)
}

/// A `POST` method router.
pub fn post(h: impl Fn(Request) -> Response + Send + Sync + 'static) -> MethodRouter {
    MethodRouter::default().post(h)
}

/// A `DELETE` method router.
pub fn delete(h: impl Fn(Request) -> Response + Send + Sync + 'static) -> MethodRouter {
    MethodRouter::default().delete(h)
}

/// One pattern segment.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Seg {
    Literal(String),
    Param(String),
}

struct Route {
    segments: Vec<Seg>,
    methods: MethodRouter,
}

/// The path router. Patterns are `/`-separated with `{name}` captures:
/// `/sessions/{id}/report`. Matching is exact on segment count;
/// literal segments win over captures only by registration order, so
/// register specific routes first.
#[derive(Default)]
pub struct Router {
    routes: Vec<Route>,
    fallback: Option<Handler>,
}

impl Router {
    /// An empty router.
    pub fn new() -> Router {
        Router::default()
    }

    /// Registers a pattern with its method table.
    pub fn route(mut self, pattern: &str, methods: MethodRouter) -> Router {
        let segments = pattern
            .trim_matches('/')
            .split('/')
            .filter(|s| !s.is_empty())
            .map(|s| {
                if let Some(name) = s.strip_prefix('{').and_then(|s| s.strip_suffix('}')) {
                    Seg::Param(name.to_string())
                } else {
                    Seg::Literal(s.to_string())
                }
            })
            .collect();
        self.routes.push(Route { segments, methods });
        self
    }

    /// Handler for unmatched paths (defaults to a plain `404`).
    pub fn fallback(mut self, h: impl Fn(Request) -> Response + Send + Sync + 'static) -> Router {
        self.fallback = Some(Arc::new(h));
        self
    }

    /// Dispatches one request in-process — the tower `oneshot` idiom.
    /// `405` carries an `allow` header listing the path's methods. A
    /// handler that panics fails its own request with a `500` (a JSON
    /// body, `{"error": "internal", ...}`); the router and every other
    /// request go on. (A streaming body runs after this returns: its
    /// panic ends its own connection only.)
    pub fn oneshot(&self, request: Request) -> Response {
        let dispatch = std::panic::AssertUnwindSafe(|| self.dispatch(request));
        std::panic::catch_unwind(dispatch).unwrap_or_else(|_| {
            let body = r#"{"error":"internal","detail":"the request's handler panicked"}"#;
            Response::new(StatusCode::INTERNAL_SERVER_ERROR)
                .header("content-type", "application/json")
                .body(body)
        })
    }

    fn dispatch(&self, mut request: Request) -> Response {
        let segs: Vec<&str> = request
            .path
            .trim_matches('/')
            .split('/')
            .filter(|s| !s.is_empty())
            .collect();
        let mut path_matched = false;
        let mut allowed: Vec<&'static str> = Vec::new();
        for route in &self.routes {
            let Some(params) = match_segments(&route.segments, &segs) else {
                continue;
            };
            path_matched = true;
            for (m, h) in &route.methods.entries {
                if *m == request.method {
                    request.params = params;
                    return h(request);
                }
                allowed.push(m.as_str());
            }
        }
        if path_matched {
            allowed.sort_unstable();
            allowed.dedup();
            return Response::text(StatusCode::METHOD_NOT_ALLOWED, "method not allowed\n")
                .header("allow", &allowed.join(", "));
        }
        match &self.fallback {
            Some(h) => h(request),
            None => Response::text(StatusCode::NOT_FOUND, "not found\n"),
        }
    }
}

fn match_segments(pattern: &[Seg], path: &[&str]) -> Option<Vec<(String, String)>> {
    if pattern.len() != path.len() {
        return None;
    }
    let mut params = Vec::new();
    for (seg, got) in pattern.iter().zip(path) {
        match seg {
            Seg::Literal(lit) if lit == got => {}
            Seg::Literal(_) => return None,
            Seg::Param(name) => params.push((name.clone(), (*got).to_string())),
        }
    }
    Some(params)
}

fn split_target(target: &str) -> (String, Vec<(String, String)>) {
    match target.split_once('?') {
        None => (target.to_string(), Vec::new()),
        Some((path, query)) => {
            let pairs = query
                .split('&')
                .filter(|p| !p.is_empty())
                .map(|p| match p.split_once('=') {
                    Some((k, v)) => (percent_decode(k), percent_decode(v)),
                    None => (percent_decode(p), String::new()),
                })
                .collect();
            (path.to_string(), pairs)
        }
    }
}

fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' => {
                let hex = |b: u8| match b {
                    b'0'..=b'9' => Some(b - b'0'),
                    b'a'..=b'f' => Some(b - b'a' + 10),
                    b'A'..=b'F' => Some(b - b'A' + 10),
                    _ => None,
                };
                match (
                    bytes.get(i + 1).and_then(|&b| hex(b)),
                    bytes.get(i + 2).and_then(|&b| hex(b)),
                ) {
                    (Some(h), Some(l)) => {
                        out.push(h * 16 + l);
                        i += 2;
                    }
                    _ => out.push(b'%'),
                }
            }
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Limits for the wire parser.
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Concurrent connections before the accept loop sheds load with
    /// an immediate `503` (never an unbounded thread/queue pile-up).
    pub max_connections: usize,
    /// Request body ceiling in bytes (`413` beyond it).
    pub max_body_bytes: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            max_connections: 64,
            max_body_bytes: 64 << 20,
        }
    }
}

/// Serves `router` on `listener`, one thread per connection, until the
/// listener errors. Streaming bodies are close-delimited
/// (`Connection: close` on every response — the service is an
/// edit-session API, not a keep-alive file server).
pub fn serve(listener: TcpListener, router: Router, options: ServeOptions) -> io::Result<()> {
    let router = Arc::new(router);
    let live = Arc::new(AtomicUsize::new(0));
    loop {
        let (stream, _) = listener.accept()?;
        let Some(slot) = ConnectionSlot::take(&live, options.max_connections) else {
            // Shed load without spawning: the 503 is written inline.
            let mut stream = stream;
            let resp = Response::text(StatusCode::SERVICE_UNAVAILABLE, "server at capacity\n");
            let _ = write_response(&mut stream, resp);
            continue;
        };
        let router = Arc::clone(&router);
        std::thread::spawn(move || {
            let _slot = slot;
            let _ = handle_connection(stream, &router, options);
        });
    }
}

/// One of [`serve`]'s `max_connections` slots, held by a connection's
/// thread. Dropping it frees the slot, so a thread that ends by a panic
/// (a streaming body's writer, say) frees its slot as one that returns.
struct ConnectionSlot(Arc<AtomicUsize>);

impl ConnectionSlot {
    /// Takes a slot of `live`, or `None` when all `max` are held.
    fn take(live: &Arc<AtomicUsize>, max: usize) -> Option<ConnectionSlot> {
        if live.load(Ordering::Relaxed) >= max {
            return None;
        }
        live.fetch_add(1, Ordering::Relaxed);
        Some(ConnectionSlot(Arc::clone(live)))
    }
}

impl Drop for ConnectionSlot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

fn handle_connection(stream: TcpStream, router: &Router, options: ServeOptions) -> io::Result<()> {
    stream.set_read_timeout(Some(std::time::Duration::from_secs(30)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut stream = stream;
    let response = match read_request(&mut reader, options) {
        Ok(request) => router.oneshot(request),
        Err(ReadError::TooLarge) => {
            Response::text(StatusCode::PAYLOAD_TOO_LARGE, "request body too large\n")
        }
        Err(ReadError::Malformed(why)) => Response::text(
            StatusCode::BAD_REQUEST,
            format!("malformed request: {why}\n"),
        ),
        Err(ReadError::Io(e)) => return Err(e),
    };
    write_response(&mut stream, response)
}

enum ReadError {
    Malformed(&'static str),
    TooLarge,
    Io(io::Error),
}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> ReadError {
        ReadError::Io(e)
    }
}

/// The most bytes a request line and its headers may take together. A
/// longer head fails as malformed, so a client that never sends a
/// newline cannot grow a line without bound.
const MAX_HEAD_BYTES: u64 = 64 * 1024;

fn read_request(reader: &mut impl BufRead, options: ServeOptions) -> Result<Request, ReadError> {
    let mut head = Read::take(&mut *reader, MAX_HEAD_BYTES);
    let mut next_line = |line: &mut String| -> Result<(), ReadError> {
        line.clear();
        head.read_line(line)?;
        if !line.ends_with('\n') && head.limit() == 0 {
            return Err(ReadError::Malformed("request head too large"));
        }
        Ok(())
    };
    let mut line = String::new();
    next_line(&mut line)?;
    let mut parts = line.trim_end().split(' ');
    let method = parts
        .next()
        .and_then(Method::parse)
        .ok_or(ReadError::Malformed("unsupported method"))?;
    let target = parts.next().ok_or(ReadError::Malformed("missing target"))?;
    if !parts.next().is_some_and(|v| v.starts_with("HTTP/1.")) {
        return Err(ReadError::Malformed("missing HTTP version"));
    }
    let (path, query) = split_target(target);

    let mut headers = Vec::new();
    let mut content_length = 0usize;
    let mut line = String::new();
    loop {
        next_line(&mut line)?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if headers.len() >= 256 {
            return Err(ReadError::Malformed("too many headers"));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ReadError::Malformed("header without colon"));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim().to_string();
        if name == "content-length" {
            content_length = value
                .parse()
                .map_err(|_| ReadError::Malformed("bad content-length"))?;
        }
        headers.push((name, value));
    }
    if content_length > options.max_body_bytes {
        return Err(ReadError::TooLarge);
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Request {
        method,
        path,
        query,
        headers,
        body,
        params: Vec::new(),
    })
}

fn write_response(stream: &mut TcpStream, response: Response) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\n",
        response.status.0,
        response.status.reason()
    );
    for (name, value) in &response.headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("connection: close\r\n");
    match response.body {
        Body::Bytes(bytes) => {
            head.push_str(&format!("content-length: {}\r\n\r\n", bytes.len()));
            stream.write_all(head.as_bytes())?;
            stream.write_all(&bytes)?;
        }
        Body::Writer(writer) => {
            head.push_str("\r\n");
            stream.write_all(head.as_bytes())?;
            writer(stream)?;
        }
    }
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn demo_router() -> Router {
        Router::new()
            .route("/healthz", get(|_| Response::text(StatusCode::OK, "ok\n")))
            .route(
                "/sessions/{id}/edits",
                post(|req| {
                    let id = req.param("id").unwrap_or("?").to_string();
                    let body = String::from_utf8_lossy(&req.body).into_owned();
                    Response::text(StatusCode::OK, format!("{id}:{body}"))
                }),
            )
            .route(
                "/stream",
                get(|_| {
                    Response::new(StatusCode::OK).body_writer(Box::new(|w| {
                        for i in 0..3 {
                            writeln!(w, "line {i}")?;
                        }
                        Ok(())
                    }))
                }),
            )
    }

    #[test]
    fn routes_with_params_dispatch() {
        let router = demo_router();
        let resp = router.oneshot(Request::new(Method::Post, "/sessions/7/edits").with_body("x"));
        assert_eq!(resp.status, StatusCode::OK);
        assert_eq!(resp.into_bytes().unwrap(), b"7:x");
    }

    #[test]
    fn unknown_path_404_wrong_method_405() {
        let router = demo_router();
        assert_eq!(
            router.oneshot(Request::new(Method::Get, "/nope")).status,
            StatusCode::NOT_FOUND
        );
        let resp = router.oneshot(Request::new(Method::Get, "/sessions/7/edits"));
        assert_eq!(resp.status, StatusCode::METHOD_NOT_ALLOWED);
        assert!(resp
            .headers
            .iter()
            .any(|(k, v)| k == "allow" && v == "POST"));
    }

    #[test]
    fn streaming_bodies_collect_in_process() {
        let router = demo_router();
        let resp = router.oneshot(Request::new(Method::Get, "/stream"));
        assert_eq!(
            String::from_utf8(resp.into_bytes().unwrap()).unwrap(),
            "line 0\nline 1\nline 2\n"
        );
    }

    #[test]
    fn query_strings_parse_and_decode() {
        let req = Request::new(Method::Get, "/r?budget=64&name=a%20b+c&flag");
        assert_eq!(req.query_get("budget"), Some("64"));
        assert_eq!(req.query_get("name"), Some("a b c"));
        assert_eq!(req.query_get("flag"), Some(""));
    }

    /// `read_request` over `bytes`, and how many of them it consumed.
    fn read_from(bytes: &[u8]) -> (Result<Request, ReadError>, u64) {
        let mut input = io::Cursor::new(bytes);
        let read = read_request(&mut input, ServeOptions::default());
        (read, input.position())
    }

    #[test]
    fn an_endless_header_line_is_cut_at_the_head_cap() {
        let mut bytes = b"GET /healthz HTTP/1.1\r\nx-long: ".to_vec();
        bytes.resize(bytes.len() + (1 << 20), b'a');
        bytes.extend_from_slice(b"\r\n\r\n");
        let (read, consumed) = read_from(&bytes);
        assert!(matches!(
            read,
            Err(ReadError::Malformed("request head too large"))
        ));
        assert_eq!(consumed, MAX_HEAD_BYTES, "no more than the cap is buffered");
        // A head just inside the cap still reads.
        let mut bytes = b"GET /healthz HTTP/1.1\r\nx-long: ".to_vec();
        bytes.resize(MAX_HEAD_BYTES as usize - 4, b'a');
        bytes.extend_from_slice(b"\r\n\r\n");
        assert!(read_from(&bytes).0.is_ok());
    }

    /// Truncates a sample `POST`, corrupts it with a stray `?` or a
    /// multi-byte `é`, and splices a 20-digit number into it, at every
    /// byte: each variant must read as a request or fail as malformed —
    /// or, when the cut falls in the body, as an early end of stream —
    /// never panic.
    #[test]
    fn no_request_bytes_panic_the_reader() {
        let sample = "POST /sessions/42/edits?budget=64 HTTP/1.1\r\nhost: localhost\r\n\
                      content-type: application/json\r\ncontent-length: 12\r\n\r\n\
                      {\"edits\":[]}";
        let mut malformed = 0;
        for cut in 0..=sample.len() {
            let (head, tail) = sample.split_at(cut);
            let variants = [
                head.to_string(),
                format!("{head}?{tail}"),
                format!("{head}\u{e9}{tail}"),
                format!("{head} 99999999999999999999 {tail}"),
            ];
            for input in &variants {
                match read_from(input.as_bytes()).0 {
                    Ok(_) => {}
                    Err(ReadError::Malformed(_)) => malformed += 1,
                    Err(ReadError::Io(e)) if e.kind() == io::ErrorKind::UnexpectedEof => {}
                    Err(ReadError::Io(e)) => panic!("cut at {cut}: {e} for {input:?}"),
                    Err(ReadError::TooLarge) => panic!("cut at {cut}: too large for {input:?}"),
                }
            }
        }
        assert!(malformed > 0, "the fuzz rejected nothing");
    }

    #[test]
    fn a_panicking_handler_fails_only_its_request() {
        let router = demo_router().route("/boom", get(|_| panic!("a handler bug")));
        for _ in 0..3 {
            let resp = router.oneshot(Request::new(Method::Get, "/boom"));
            assert_eq!(resp.status, StatusCode::INTERNAL_SERVER_ERROR);
            let body = String::from_utf8(resp.into_bytes().unwrap()).unwrap();
            assert!(body.starts_with(r#"{"error":"internal""#), "{body}");
            let resp = router.oneshot(Request::new(Method::Get, "/healthz"));
            assert_eq!(resp.status, StatusCode::OK, "the router goes on serving");
        }
    }

    #[test]
    fn a_connection_slot_is_freed_by_a_panicking_thread() {
        let live = Arc::new(AtomicUsize::new(0));
        let slot = ConnectionSlot::take(&live, 1).expect("a free slot");
        assert!(
            ConnectionSlot::take(&live, 1).is_none(),
            "the one slot is held"
        );
        let died = std::thread::spawn(move || {
            let _slot = slot;
            panic!("a body writer bug");
        })
        .join();
        assert!(died.is_err());
        assert_eq!(live.load(Ordering::Relaxed), 0);
        assert!(ConnectionSlot::take(&live, 1).is_some());
    }

    #[test]
    fn a_panicking_body_writer_does_not_leak_its_connection_slot() {
        // One connection slot: if the panicking writer's thread kept it,
        // every later connection would be shed with a 503.
        let router = demo_router().route(
            "/boom",
            get(|_| {
                Response::new(StatusCode::OK).body_writer(Box::new(|_| panic!("a body writer bug")))
            }),
        );
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let options = ServeOptions {
            max_connections: 1,
            ..ServeOptions::default()
        };
        std::thread::spawn(move || {
            let _ = serve(listener, router, options);
        });
        // A shed connection is answered and closed before its request is
        // read, so writing it may fail: only the reply counts.
        let request = |path: &str| {
            let mut conn = TcpStream::connect(addr).unwrap();
            let _ = write!(conn, "GET {path} HTTP/1.1\r\n\r\n");
            let mut reply = String::new();
            let _ = conn.read_to_string(&mut reply);
            reply
        };
        for _ in 0..3 {
            request("/boom");
            // The slot is freed as the thread unwinds, a moment after the
            // connection closed; a leaked one never is.
            let served = (0..200).any(|_| {
                let reply = request("/healthz");
                let ok = reply.starts_with("HTTP/1.1 200 OK\r\n");
                if !ok {
                    std::thread::sleep(std::time::Duration::from_millis(10));
                }
                ok
            });
            assert!(served, "the panicking connection leaked its slot");
        }
    }

    #[test]
    fn tcp_round_trip() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let _ = serve(listener, demo_router(), ServeOptions::default());
        });
        let mut conn = TcpStream::connect(addr).unwrap();
        let body = b"hello";
        write!(
            conn,
            "POST /sessions/42/edits HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            body.len()
        )
        .unwrap();
        conn.write_all(body).unwrap();
        let mut reply = String::new();
        conn.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "{reply}");
        assert!(reply.ends_with("42:hello"), "{reply}");

        // A streamed body is close-delimited and arrives in full.
        let mut conn = TcpStream::connect(addr).unwrap();
        write!(conn, "GET /stream HTTP/1.1\r\n\r\n").unwrap();
        let mut reply = String::new();
        conn.read_to_string(&mut reply).unwrap();
        assert!(
            reply.contains("\r\n\r\nline 0\nline 1\nline 2\n"),
            "{reply}"
        );
    }
}

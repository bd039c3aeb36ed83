//! The admin plane: a hand-rolled HTTP/1.1 listener serving liveness
//! probes and a scrapeable Prometheus metrics page.
//!
//! Three routes, all `GET`:
//!
//! * `/metrics` — [`Server::render_metrics`]: every `serve.*` counter,
//!   gauge and histogram in Prometheus text exposition format 0.0.4,
//!   rendered from a consistent snapshot so a scrape never stalls
//!   ingest.
//! * `/health` — `200 ok` while the process is up (liveness).
//! * `/ready` — `200 ready` until a shutdown RPC is accepted, then
//!   `503 draining` (readiness).
//!
//! The HTTP surface is deliberately minimal (the hermetic build carries
//! no HTTP dependency, same policy as the query RPC's hand-rolled JSON):
//! one request per connection, `Connection: close`, `Content-Length`
//! always present. That subset is what Prometheus scrapers and `curl`
//! speak. The request head (request line and headers) is capped at
//! [`MAX_ADMIN_HEAD`] bytes; a longer one is answered `431` and the
//! connection closed, so a peer streaming bytes cannot grow the server's
//! memory.

use std::io::{BufRead as _, BufReader, Read, Write as _};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::net::spawn_listener;
use crate::server::Server;

/// Binds `addr` and serves the admin HTTP routes on it until the
/// server's shutdown flag rises. Returns the bound address and the
/// accept-loop thread handle.
///
/// # Errors
///
/// Returns the bind error as text.
pub fn spawn_admin(
    server: Arc<Server>,
    addr: impl ToSocketAddrs,
) -> Result<(std::net::SocketAddr, JoinHandle<()>), String> {
    spawn_listener(server, addr, handle_admin_conn)
}

/// Longest admin request head the listener reads, in bytes: the request
/// line, the headers and the blank line that ends them.
pub const MAX_ADMIN_HEAD: usize = 8 * 1024;

/// Why a request head yields no route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HeadError {
    /// The stream ended before the blank line that ends the head.
    Incomplete,
    /// The head is longer than [`MAX_ADMIN_HEAD`].
    TooLarge,
    /// The request line is not UTF-8.
    Malformed,
}

/// Reads one request head from `stream`: whole lines up to and including
/// the first blank line after the request line, or whatever arrived
/// before the stream ended. It reads at most one byte past
/// [`MAX_ADMIN_HEAD`] — enough to tell an over-long head from one that
/// fits, never more.
fn read_head(stream: impl Read) -> std::io::Result<Vec<u8>> {
    let mut reader = BufReader::new(stream.take(MAX_ADMIN_HEAD as u64 + 1));
    let mut head = Vec::new();
    loop {
        let start = head.len();
        if reader.read_until(b'\n', &mut head)? == 0 {
            return Ok(head);
        }
        let line = &head[start..];
        if start > 0 && (line == b"\r\n" || line == b"\n") {
            return Ok(head);
        }
    }
}

/// Parses a request head as [`read_head`] returns it into the request's
/// method and path (either empty when the request line lacks it).
fn parse_head(head: &[u8]) -> Result<(&str, &str), HeadError> {
    if head.len() > MAX_ADMIN_HEAD {
        return Err(HeadError::TooLarge);
    }
    let mut lines = head.split_inclusive(|&b| b == b'\n');
    let request_line = lines.next().ok_or(HeadError::Incomplete)?;
    if !lines.any(|line| line == b"\r\n" || line == b"\n") {
        return Err(HeadError::Incomplete);
    }
    let request_line = std::str::from_utf8(request_line).map_err(|_| HeadError::Malformed)?;
    let mut parts = request_line.split_whitespace();
    Ok((parts.next().unwrap_or(""), parts.next().unwrap_or("")))
}

fn handle_admin_conn(server: Arc<Server>, mut stream: TcpStream) {
    let Ok(head) = read_head(&stream) else {
        return;
    };
    // The routes take no request body.
    let (status, content_type, body) = match parse_head(&head) {
        Ok((method, path)) => route(&server, method, path),
        Err(HeadError::Incomplete) => return,
        Err(HeadError::TooLarge) => (
            "431 Request Header Fields Too Large",
            "text/plain; charset=utf-8",
            format!("request head exceeds the {MAX_ADMIN_HEAD}-byte limit\n"),
        ),
        Err(HeadError::Malformed) => (
            "400 Bad Request",
            "text/plain; charset=utf-8",
            "request line is not UTF-8\n".to_string(),
        ),
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
}

/// Dispatches one request to `(status line, content type, body)`.
fn route(server: &Server, method: &str, path: &str) -> (&'static str, &'static str, String) {
    if method != "GET" {
        return (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "method not allowed\n".to_string(),
        );
    }
    match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            server.render_metrics(),
        ),
        "/health" => ("200 OK", "text/plain; charset=utf-8", "ok\n".to_string()),
        "/ready" => {
            if server.shutdown_requested() {
                (
                    "503 Service Unavailable",
                    "text/plain; charset=utf-8",
                    "draining\n".to_string(),
                )
            } else {
                ("200 OK", "text/plain; charset=utf-8", "ready\n".to_string())
            }
        }
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found\n".to_string(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServeConfig;

    fn get(addr: std::net::SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").as_bytes())
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    #[test]
    fn admin_routes_answer_and_close() {
        let server = Arc::new(Server::new(&ServeConfig::default()).unwrap());
        let (addr, handle) = spawn_admin(Arc::clone(&server), "127.0.0.1:0").unwrap();

        server
            .ingest_frame(&mobigrid_wireless::encode_batch(&[
                mobigrid_wireless::IngestRecord::TickEnd {
                    tick: 1,
                    time_s: 1.0,
                },
            ]))
            .unwrap();
        let metrics = get(addr, "/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200 OK\r\n"), "{metrics}");
        assert!(metrics.contains("Content-Length: "), "{metrics}");
        assert!(metrics.contains("serve_batches_total 1\n"), "{metrics}");
        assert!(
            metrics.contains("serve_shard_live_records{shard=\"0\"} 0"),
            "{metrics}"
        );

        assert!(get(addr, "/health").contains("\r\n\r\nok\n"));
        assert!(get(addr, "/ready").starts_with("HTTP/1.1 200 OK"));
        assert!(get(addr, "/nope").starts_with("HTTP/1.1 404"));

        let mut post = TcpStream::connect(addr).unwrap();
        post.write_all(b"POST /metrics HTTP/1.1\r\n\r\n").unwrap();
        let mut response = String::new();
        post.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 405"), "{response}");

        let _ = server.query_line(r#"{"op":"shutdown"}"#);
        // The accept loop is now draining; probe the route directly.
        let (status, _, body) = route(&server, "GET", "/ready");
        assert_eq!(status, "503 Service Unavailable");
        assert_eq!(body, "draining\n");
        handle.join().unwrap();
    }

    #[test]
    fn an_oversized_request_head_is_refused() {
        let server = Arc::new(Server::new(&ServeConfig::default()).unwrap());
        let (addr, handle) = spawn_admin(Arc::clone(&server), "127.0.0.1:0").unwrap();
        // One byte past the cap and no newline: the listener reads exactly
        // what was sent, answers and closes.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&[b'a'; MAX_ADMIN_HEAD + 1]).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 431 "), "{response}");
        // The connection did not wedge the listener.
        assert!(get(addr, "/health").contains("\r\n\r\nok\n"));
        let _ = server.query_line(r#"{"op":"shutdown"}"#);
        handle.join().unwrap();
    }

    #[test]
    fn request_heads_parse_from_bytes() {
        let head = |bytes: &[u8]| {
            let head = read_head(bytes).unwrap();
            parse_head(&head).map(|(method, path)| (method.to_string(), path.to_string()))
        };
        let route = |method: &str, path: &str| Ok((method.to_string(), path.to_string()));
        assert_eq!(
            head(b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n"),
            route("GET", "/health")
        );
        assert_eq!(head(b"GET /ready HTTP/1.1\n\n"), route("GET", "/ready"));
        // The head ends at its blank line; a body after it is not read.
        assert_eq!(
            read_head(&b"GET / HTTP/1.1\r\n\r\nbody"[..]).unwrap(),
            b"GET / HTTP/1.1\r\n\r\n"
        );
        assert_eq!(
            head(b"GET /health HTTP/1.1\r\nHost: x\r\n"),
            Err(HeadError::Incomplete)
        );
        assert_eq!(head(b""), Err(HeadError::Incomplete));
        assert_eq!(head(b"\xff\xfe /x\r\n\r\n"), Err(HeadError::Malformed));
        let mut long = b"GET / HTTP/1.1\r\n".to_vec();
        long.extend(std::iter::repeat_n(b"X-Pad: yyyyyyyy\r\n", 600).flatten());
        long.extend_from_slice(b"\r\n");
        assert_eq!(head(&long), Err(HeadError::TooLarge));
        assert_eq!(head(&[b'a'; 3 * MAX_ADMIN_HEAD]), Err(HeadError::TooLarge));
    }

    proptest::proptest! {
        /// Arbitrary bytes, and arbitrary lines, as an admin request: the
        /// head reader and parser never panic, and what they hold stays
        /// within one byte past the cap.
        #[test]
        fn arbitrary_request_heads_stay_bounded(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..3 * MAX_ADMIN_HEAD),
            lines in proptest::collection::vec(
                proptest::collection::vec(32u8..127, 0..900),
                0..40,
            ),
            blank in proptest::prelude::any::<bool>(),
        ) {
            let mut framed: Vec<u8> = lines.iter().flat_map(|l| l.iter().copied().chain(*b"\r\n")).collect();
            if blank {
                framed.extend_from_slice(b"\r\n");
            }
            for input in [&bytes, &framed] {
                let head = read_head(&input[..]).unwrap();
                proptest::prop_assert!(head.len() <= MAX_ADMIN_HEAD + 1);
                proptest::prop_assert!(head.capacity() <= 2 * (MAX_ADMIN_HEAD + 1));
                proptest::prop_assert!(input.starts_with(&head));
                if let Ok((method, path)) = parse_head(&head) {
                    proptest::prop_assert!(method.len() + path.len() <= head.len());
                }
            }
        }
    }
}

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
//! speak.

use std::io::{BufRead as _, BufReader, Write as _};
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

fn handle_admin_conn(server: Arc<Server>, stream: TcpStream) {
    let mut reader = BufReader::new(stream);
    let mut request_line = String::new();
    if matches!(reader.read_line(&mut request_line), Ok(0) | Err(_)) {
        return;
    }
    // Drain the headers; the routes take no request body.
    let mut header = String::new();
    loop {
        header.clear();
        match reader.read_line(&mut header) {
            Ok(0) | Err(_) => return,
            Ok(_) if header == "\r\n" || header == "\n" => break,
            Ok(_) => {}
        }
    }
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, content_type, body) = route(&server, method, path);
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = reader.get_mut().write_all(response.as_bytes());
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
    use std::io::Read as _;

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
        assert!(metrics.contains("serve_shard_live_records{shard=\"0\"} 0"), "{metrics}");

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
}

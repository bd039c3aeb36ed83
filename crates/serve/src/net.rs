//! The TCP front-ends and their matching clients.
//!
//! **Ingest wire protocol** — the PR-3 stream codec, length-prefixed: the
//! client writes a 4-byte big-endian payload length followed by the
//! payload (concatenated opcode-tagged records); the server answers each
//! batch with a 4-byte big-endian count of records applied, or
//! [`INGEST_NAK`] followed by connection close when the batch is
//! rejected (bad prefix, unknown opcode, truncated record, CRC
//! mismatch). The per-batch ack doubles as flow control: a client never
//! has more than one unacknowledged batch in flight, so a digest query
//! issued after the last ack observes every record.
//!
//! **Query wire protocol** — line-delimited JSON, one request line in,
//! one response line out (see [`Server::query_line`]). A request line is
//! capped at [`MAX_QUERY_LINE`] bytes; a longer one gets an error line
//! and the connection is closed.

use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use mobigrid_telemetry::json::{self, Value};
use mobigrid_wireless::{encode_batch, IngestRecord, BATCH_PREFIX_SIZE};

use crate::server::{err_line, Server};

/// The ack value signalling a rejected batch (no valid batch can apply
/// `u32::MAX` records: the payload cap bounds batches far below it).
pub const INGEST_NAK: u32 = u32::MAX;

/// Longest query request line the server reads, in bytes (newline
/// excluded). A longer line is answered with one error line and the
/// connection is closed, so a peer streaming bytes without a newline
/// cannot grow the server's memory.
pub const MAX_QUERY_LINE: usize = 64 * 1024;

/// How often the accept loops poll the shutdown flag.
const ACCEPT_POLL: Duration = Duration::from_millis(25);

/// Binds `addr` and serves the ingest protocol on it until the server's
/// shutdown flag rises. Returns the bound listener (for its local
/// address) and the accept-loop thread handle.
///
/// # Errors
///
/// Returns the bind error as text.
pub fn spawn_ingest(
    server: Arc<Server>,
    addr: impl ToSocketAddrs,
) -> Result<(std::net::SocketAddr, JoinHandle<()>), String> {
    spawn_listener(server, addr, handle_ingest_conn)
}

/// Binds `addr` and serves the query RPC on it until the server's
/// shutdown flag rises. Returns the bound address and the accept-loop
/// thread handle.
///
/// # Errors
///
/// Returns the bind error as text.
pub fn spawn_query(
    server: Arc<Server>,
    addr: impl ToSocketAddrs,
) -> Result<(std::net::SocketAddr, JoinHandle<()>), String> {
    spawn_listener(server, addr, handle_query_conn)
}

pub(crate) fn spawn_listener(
    server: Arc<Server>,
    addr: impl ToSocketAddrs,
    handler: fn(Arc<Server>, TcpStream),
) -> Result<(std::net::SocketAddr, JoinHandle<()>), String> {
    let listener = TcpListener::bind(addr).map_err(|e| format!("bind failed: {e}"))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("local_addr failed: {e}"))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("set_nonblocking failed: {e}"))?;
    let handle = std::thread::spawn(move || loop {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nonblocking(false);
                let server = Arc::clone(&server);
                std::thread::spawn(move || handler(server, stream));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if server.shutdown_requested() {
                    return;
                }
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => return,
        }
    });
    Ok((local, handle))
}

fn handle_ingest_conn(server: Arc<Server>, mut stream: TcpStream) {
    let mut prefix = [0u8; BATCH_PREFIX_SIZE];
    let mut frame = Vec::new();
    loop {
        match stream.read_exact(&mut prefix) {
            Ok(()) => {}
            Err(_) => return, // clean EOF between batches, or a dead peer
        }
        let Ok(len) = mobigrid_wireless::payload_len(prefix) else {
            let _ = stream.write_all(&INGEST_NAK.to_be_bytes());
            return;
        };
        frame.clear();
        frame.extend_from_slice(&prefix);
        frame.resize(BATCH_PREFIX_SIZE + len, 0);
        if stream.read_exact(&mut frame[BATCH_PREFIX_SIZE..]).is_err() {
            return;
        }
        match server.ingest_frame(&frame) {
            Ok(applied) => {
                let ack = u32::try_from(applied).unwrap_or(INGEST_NAK - 1);
                if stream.write_all(&ack.to_be_bytes()).is_err() {
                    return;
                }
            }
            Err(_) => {
                let _ = stream.write_all(&INGEST_NAK.to_be_bytes());
                return;
            }
        }
    }
}

fn handle_query_conn(server: Arc<Server>, stream: TcpStream) {
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        line.clear();
        // Read at most one byte past the cap: enough to tell an
        // over-length line from one that fits, never more.
        match (&mut reader)
            .take(MAX_QUERY_LINE as u64 + 1)
            .read_until(b'\n', &mut line)
        {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        if line.len() > MAX_QUERY_LINE && line.last() != Some(&b'\n') {
            let mut response = err_line(&format!(
                "request line exceeds the {MAX_QUERY_LINE}-byte limit"
            ));
            response.push('\n');
            let _ = reader.get_mut().write_all(response.as_bytes());
            return;
        }
        let mut response = match std::str::from_utf8(&line) {
            Ok(text) if text.trim().is_empty() => continue,
            Ok(text) => server.query_line(text.trim()),
            Err(_) => err_line("request line is not UTF-8"),
        };
        response.push('\n');
        if reader.get_mut().write_all(response.as_bytes()).is_err() {
            return;
        }
    }
}

/// A blocking ingest client: one length-prefixed batch out, one ack in.
pub struct IngestClient {
    stream: TcpStream,
}

impl IngestClient {
    /// Connects to a serve ingest port.
    ///
    /// # Errors
    ///
    /// Returns the connect error as text.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect failed: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("set_nodelay failed: {e}"))?;
        Ok(IngestClient { stream })
    }

    /// Encodes and sends one op batch, then waits for the ack. Returns
    /// the number of records the server applied.
    ///
    /// # Errors
    ///
    /// Returns transport errors and server-side batch rejections as text.
    pub fn send_batch(&mut self, ops: &[IngestRecord]) -> Result<u32, String> {
        self.send_frame(&encode_batch(ops))
    }

    /// Sends one pre-encoded wire frame (prefix included), then waits for
    /// the ack.
    ///
    /// # Errors
    ///
    /// Returns transport errors and server-side batch rejections as text.
    pub fn send_frame(&mut self, frame: &[u8]) -> Result<u32, String> {
        self.stream
            .write_all(frame)
            .map_err(|e| format!("send failed: {e}"))?;
        let mut ack = [0u8; 4];
        self.stream
            .read_exact(&mut ack)
            .map_err(|e| format!("ack read failed: {e}"))?;
        let applied = u32::from_be_bytes(ack);
        if applied == INGEST_NAK {
            return Err("server rejected the batch".to_string());
        }
        Ok(applied)
    }
}

/// A blocking query-RPC client: one JSON line out, one parsed response in.
pub struct QueryClient {
    reader: BufReader<TcpStream>,
}

impl QueryClient {
    /// Connects to a serve query port.
    ///
    /// # Errors
    ///
    /// Returns the connect error as text.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect failed: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("set_nodelay failed: {e}"))?;
        Ok(QueryClient {
            reader: BufReader::new(stream),
        })
    }

    /// Sends one request line and returns the parsed response object.
    ///
    /// # Errors
    ///
    /// Returns transport errors, a server disconnect, and response parse
    /// errors as text.
    pub fn call(&mut self, request: &str) -> Result<Value, String> {
        let mut line = String::with_capacity(request.len() + 1);
        line.push_str(request);
        line.push('\n');
        self.reader
            .get_mut()
            .write_all(line.as_bytes())
            .map_err(|e| format!("send failed: {e}"))?;
        let mut response = String::new();
        match self.reader.read_line(&mut response) {
            Ok(0) => Err("server closed the connection".to_string()),
            Ok(_) => json::parse(response.trim()).map_err(|e| format!("bad response: {e}")),
            Err(e) => Err(format!("receive failed: {e}")),
        }
    }

    /// Like [`QueryClient::call`], but fails unless the response carries
    /// `"ok": true`.
    ///
    /// # Errors
    ///
    /// Everything [`QueryClient::call`] returns, plus the server's
    /// `"error"` text on an un-ok response.
    pub fn call_ok(&mut self, request: &str) -> Result<Value, String> {
        let v = self.call(request)?;
        if v.get("ok").and_then(Value::as_bool) == Some(true) {
            Ok(v)
        } else {
            let reason = v
                .get("error")
                .and_then(Value::as_str)
                .unwrap_or("unknown error")
                .to_string();
            Err(format!("server error: {reason}"))
        }
    }
}

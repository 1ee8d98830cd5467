//! A minimal std-net HTTP/1.1 client for coordinator→node RPC.
//!
//! One [`NodeClient`] per node, holding one keep-alive TCP connection:
//! the serve front-end now speaks persistent connections, so a
//! heartbeat's health probe and checkpoint pull ride the same socket
//! instead of paying a fresh connect each. Any transport error drops the
//! connection; the next call reconnects. Response heads are read by the
//! server's own [`read_head`], under the same caps and framing rules, so
//! a response whose body cannot be framed is an error and its bytes are
//! never read as the next response.

use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use serde::de::DeserializeOwned;
use serde::Serialize;

use breaksym_serve::http::read_head;
use breaksym_serve::ServeError;

/// Largest response body accepted from a node. It is four times the
/// server's 4 MiB request cap because a node's `/checkpoints` export
/// carries every job's checkpoint, and one checkpoint can reach a few
/// hundred KB.
const MAX_RESPONSE_BYTES: u64 = 16 * 1024 * 1024;

/// A parsed HTTP response: status code plus raw JSON body.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// The HTTP status code.
    pub status: u16,
    /// The response body, verbatim.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// Deserialises the body as `T`.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] when the body is not valid `T` JSON —
    /// from the coordinator's point of view a malformed node response is
    /// a protocol error worth surfacing, not a panic.
    pub fn json<T: DeserializeOwned>(&self) -> Result<T, ServeError> {
        serde_json::from_slice(&self.body).map_err(|e| ServeError::BadRequest {
            reason: format!("node response does not parse: {e}"),
        })
    }

    /// Interprets a non-200 response as the wire's tagged [`ServeError`];
    /// falls back to `BadRequest` when the body is not one.
    pub fn error(&self) -> ServeError {
        serde_json::from_slice::<ServeError>(&self.body).unwrap_or_else(|_| {
            ServeError::BadRequest {
                reason: format!("node answered HTTP {} with an unrecognised body", self.status),
            }
        })
    }
}

/// One live connection: the write half plus a buffered read half.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

/// A keep-alive HTTP/1.1 client pinned to one node address.
#[derive(Debug)]
pub struct NodeClient {
    addr: String,
    timeout: Duration,
    conn: Option<Conn>,
    reconnects: u64,
}

impl NodeClient {
    /// A client for `addr` (`host:port`) with the given per-call socket
    /// timeout. No connection is opened until the first request.
    pub fn new(addr: impl Into<String>, timeout: Duration) -> Self {
        NodeClient { addr: addr.into(), timeout, conn: None, reconnects: 0 }
    }

    /// The node address this client talks to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// How many TCP connects this client has performed — observability
    /// for the keep-alive path (N requests over a healthy node should
    /// cost 1 connect, not N).
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    fn connect(&mut self) -> io::Result<&mut Conn> {
        if self.conn.is_none() {
            let addr: SocketAddr =
                self.addr.to_socket_addrs()?.next().ok_or_else(|| {
                    io::Error::new(io::ErrorKind::NotFound, "address resolves empty")
                })?;
            let stream = TcpStream::connect_timeout(&addr, self.timeout)?;
            stream.set_read_timeout(Some(self.timeout))?;
            stream.set_write_timeout(Some(self.timeout))?;
            stream.set_nodelay(true)?;
            let reader = BufReader::new(stream.try_clone()?);
            self.conn = Some(Conn { stream, reader });
            self.reconnects += 1;
        }
        Ok(self.conn.as_mut().expect("just connected"))
    }

    /// One request/response exchange on the kept-alive connection. Any
    /// transport error tears the connection down (the next call
    /// reconnects) and is returned to the caller, who decides whether the
    /// operation is safe to retry.
    ///
    /// # Errors
    ///
    /// The underlying socket error.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
    ) -> io::Result<HttpResponse> {
        let result = self.request_inner(method, path, body);
        if result.is_err() {
            self.conn = None;
        }
        result
    }

    fn request_inner(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
    ) -> io::Result<HttpResponse> {
        let conn = self.connect()?;
        let payload = body.unwrap_or(&[]);
        // Head and payload leave as one buffer: one write, one segment.
        let mut request = format!(
            "{method} {path} HTTP/1.1\r\nHost: node\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: keep-alive\r\n\r\n",
            payload.len()
        )
        .into_bytes();
        request.extend_from_slice(payload);
        conn.stream.write_all(&request)?;

        let head = read_head(&mut conn.reader)?.map_err(|refused| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("node response: {}", refused.reason()),
            )
        })?;
        let status: u16 = head
            .start_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad status line {:?}", head.start_line),
                )
            })?;
        let content_length = head.content_length;
        if content_length > MAX_RESPONSE_BYTES {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "response body too large"));
        }
        let mut body = vec![0u8; content_length as usize];
        conn.reader.read_exact(&mut body)?;
        if head.connection.contains("close") {
            self.conn = None;
        }
        Ok(HttpResponse { status, body })
    }

    /// `GET path`, retried once over a fresh connection on a transport
    /// error — GETs here are idempotent, and the single retry absorbs the
    /// benign case of a keep-alive connection the peer idled out between
    /// calls.
    ///
    /// # Errors
    ///
    /// The second attempt's socket error.
    pub fn get(&mut self, path: &str) -> io::Result<HttpResponse> {
        match self.request("GET", path, None) {
            Ok(resp) => Ok(resp),
            Err(_) => self.request("GET", path, None),
        }
    }

    /// `POST path` with a JSON payload. *Not* retried: a POST may have
    /// been applied even when its response was lost, and only the caller
    /// knows whether a duplicate is safe.
    ///
    /// # Errors
    ///
    /// Serialisation failure (as `InvalidData`) or the socket error.
    pub fn post_json<T: Serialize>(&mut self, path: &str, value: &T) -> io::Result<HttpResponse> {
        let body =
            serde_json::to_vec(value).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        self.request("POST", path, Some(&body))
    }
}

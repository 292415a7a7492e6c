//! A minimal HTTP/1.1 client: one request per connection, as the server
//! closes each connection after replying.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One completed exchange.
#[derive(Clone, Debug)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// The `X-Cache` header, when present.
    pub x_cache: Option<String>,
    /// The response body.
    pub body: Vec<u8>,
    /// Client latency, from connect to the last byte.
    pub latency: Duration,
}

/// Sends one request and reads the whole reply.
///
/// # Errors
///
/// Connection, I/O and framing errors, as text.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> Result<Reply, String> {
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| format!("timeout: {e}"))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body))
        .map_err(|e| format!("write: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("read: {e}"))?;
    let latency = start.elapsed();
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("reply has no header terminator")?;
    let head = String::from_utf8_lossy(&raw[..split]).into_owned();
    let mut lines = head.lines();
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or("reply has no status line")?;
    let x_cache = lines.find_map(|l| {
        let (k, v) = l.split_once(':')?;
        k.trim()
            .eq_ignore_ascii_case("x-cache")
            .then(|| v.trim().to_string())
    });
    Ok(Reply {
        status,
        x_cache,
        body: raw[split + 4..].to_vec(),
        latency,
    })
}

//! A minimal blocking HTTP/1.1 client for the daemon's API: one
//! keep-alive connection, serial request/response.
//!
//! This is the client half of the [`crate::http`] subset, shared by the
//! integration tests, the soak benchmark and the `serve_classroom`
//! example so they exercise the daemon the way a real grader script
//! would — over actual sockets — without three copies of response
//! framing. It is deliberately tiny; anything beyond
//! JSON-over-`Content-Length` (redirects, TLS, chunked bodies) is out
//! of scope.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One keep-alive connection to a qr-hint daemon.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Whether the last response left the connection reusable (the
    /// server did not answer `Connection: close`). Pools check this
    /// before parking the connection for the next checkout.
    reusable: bool,
}

impl Client {
    /// Connect with a read timeout (so a wedged server cannot hang the
    /// caller forever) and `TCP_NODELAY` (the request/response segments
    /// are small; Nagle + delayed ACK would add ~40 ms per round trip).
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client { reader: BufReader::new(stream), writer, reusable: true })
    }

    /// Whether the connection survived the last exchange: `false` once
    /// a response carried `Connection: close` (drain, shed, framing
    /// error), after which the next request would hit a dead socket.
    pub fn is_reusable(&self) -> bool {
        self.reusable
    }

    /// Send one request, read one response; returns (status, body).
    /// The connection stays open for the next call.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
        let mut wire = format!(
            "{method} {path} HTTP/1.1\r\nHost: qrhint\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        wire.push_str(body);
        self.writer.write_all(wire.as_bytes())?;
        self.writer.flush()?;
        self.read_response()
    }

    fn read_response(&mut self) -> io::Result<(u16, String)> {
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let mut status_line = String::new();
        self.reader.read_line(&mut status_line)?;
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(&format!("bad status line: {status_line:?}")))?;
        let mut lengths = Vec::new();
        loop {
            let mut line = String::new();
            self.reader.read_line(&mut line)?;
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            let lower = line.to_ascii_lowercase();
            if let Some(v) = lower.strip_prefix("content-length:") {
                lengths.push(v.trim().to_string());
            } else if let Some(v) = lower.strip_prefix("connection:") {
                self.reusable = !v.trim().eq_ignore_ascii_case("close");
            }
        }
        let content_length = crate::http::content_length(lengths.iter().map(String::as_str))
            .map_err(|e| bad(&e))?
            .unwrap_or(0);
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        String::from_utf8(body)
            .map(|body| (status, body))
            .map_err(|_| bad("response body is not UTF-8"))
    }
}

/// One request on a fresh connection (register, health probes, …).
pub fn request_once(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> io::Result<(u16, String)> {
    Client::connect(addr)?.request(method, path, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// One `GET /healthz` against a listener that reads the request head
    /// and answers `response` verbatim.
    fn scripted(response: &'static str) -> io::Result<(u16, String)> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            while reader.read_line(&mut line).unwrap() > 0 && line != "\r\n" {
                line.clear();
            }
            stream.write_all(response.as_bytes()).unwrap();
        });
        let out = request_once(addr, "GET", "/healthz", "");
        server.join().unwrap();
        out
    }

    #[test]
    fn conflicting_response_content_lengths_are_rejected() {
        // Framing by the last length would read `hello` as the body.
        let err =
            scripted("HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 5\r\n\r\nhello")
                .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        let agreeing =
            scripted("HTTP/1.1 200 OK\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello");
        assert_eq!(agreeing.unwrap(), (200, "hello".to_string()), "identical repeats agree");
    }

    #[test]
    fn signed_response_content_length_is_rejected() {
        let err = scripted("HTTP/1.1 200 OK\r\nContent-Length: +2\r\n\r\nhi").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }
}

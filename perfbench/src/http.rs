//! A minimal HTTP/1.1 keep-alive client: one request at a time on one
//! connection, bodies framed by `Content-Length`. It is the load
//! generator's own rather than `qrhint_server::Client`, so a change to
//! the program's client cannot move the generator's side of a timing.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct Conn {
    addr: SocketAddr,
    reader: Option<BufReader<TcpStream>>,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Conn {
        Conn { addr, reader: None }
    }

    fn connect(&mut self) -> io::Result<&mut BufReader<TcpStream>> {
        if self.reader.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(30)))?;
            self.reader = Some(BufReader::new(stream));
        }
        Ok(self.reader.as_mut().expect("connected above"))
    }

    /// Send one request and read its response: status and body. A
    /// keep-alive connection the server closed while idle is reopened
    /// once; any other I/O failure is returned.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
        // Head and body in one write: one segment per request.
        let mut wire = format!(
            "{method} {path} HTTP/1.1\r\nHost: qrhint\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        wire.push_str(body);
        for attempt in 0..2 {
            let reader = self.connect()?;
            let result = reader
                .get_mut()
                .write_all(wire.as_bytes())
                .and_then(|()| read_response(reader));
            match result {
                Ok((status, body, keep_alive)) => {
                    if !keep_alive {
                        self.reader = None;
                    }
                    return Ok((status, body));
                }
                Err(e) => {
                    self.reader = None;
                    let stale = matches!(
                        e.kind(),
                        io::ErrorKind::UnexpectedEof
                            | io::ErrorKind::ConnectionReset
                            | io::ErrorKind::BrokenPipe
                    );
                    if attempt == 1 || !stale {
                        return Err(e);
                    }
                }
            }
        }
        unreachable!("the second attempt returns")
    }
}

/// Read one response: status, body, and whether the connection stays
/// open.
fn read_response(reader: &mut BufReader<TcpStream>) -> io::Result<(u16, String, bool)> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, format!("status line {line:?}"))
        })?;
    let (mut length, mut keep_alive) = (0usize, true);
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = value.parse().map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "bad Content-Length")
                })?;
            } else if name.eq_ignore_ascii_case("connection") {
                keep_alive = !value.eq_ignore_ascii_case("close");
            }
        }
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8(body)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "body is not UTF-8"))?;
    Ok((status, body, keep_alive))
}

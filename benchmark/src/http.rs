//! The load generator's side of the wire: one keep-alive HTTP/1.1
//! connection that sends a request and waits for the whole response
//! (closed loop — the next request leaves only after the previous answer
//! arrived).

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    request: Vec<u8>,
    line: String,
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_owned())
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A stuck server must fail the operation, not hang the benchmark.
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            request: Vec::new(),
            line: String::new(),
        })
    }

    /// Sends one `POST` and reads the `Content-Length`-framed response
    /// into `body`, returning the status code.
    pub fn post(&mut self, path: &str, payload: &str, body: &mut String) -> io::Result<u16> {
        self.request.clear();
        write!(
            self.request,
            "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{payload}",
            payload.len()
        )?;
        self.writer.write_all(&self.request)?;
        self.line.clear();
        self.reader.read_line(&mut self.line)?;
        let status: u16 = self
            .line
            .split_whitespace()
            .nth(1)
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut length = None;
        loop {
            self.line.clear();
            if self.reader.read_line(&mut self.line)? == 0 {
                return Err(bad("connection closed inside the headers"));
            }
            let header = self.line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse::<usize>().ok();
                }
            }
        }
        let length = length.ok_or_else(|| bad("response without Content-Length"))?;
        let mut bytes = std::mem::take(body).into_bytes();
        bytes.resize(length, 0);
        self.reader.read_exact(&mut bytes)?;
        *body = String::from_utf8(bytes).map_err(|_| bad("response body is not UTF-8"))?;
        Ok(status)
    }
}

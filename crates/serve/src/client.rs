//! A minimal blocking client for the line protocol, used by the test
//! suite, the load-generator bench, and `hus` one-shot queries.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use serde::Value;

/// One connection to a serve daemon; requests are answered in order.
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    /// The outgoing request line and its `\n`, sent in one write.
    out: Vec<u8>,
}

impl Client {
    /// Connect to a daemon at `addr` (e.g. `127.0.0.1:7464`).
    pub fn connect(addr: &str) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { stream, reader, out: Vec::new() })
    }

    /// Send one raw request line and return the raw response line. A
    /// reply cut off by the daemon closing the connection is an
    /// `UnexpectedEof` error, never a (partial) answer.
    pub fn request_raw(&mut self, line: &str) -> std::io::Result<String> {
        // One write per request: with `TCP_NODELAY` each write is its
        // own segment, and a separate `\n` would wake the daemon twice.
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.stream.write_all(&self.out)?;
        let mut response = String::new();
        self.reader.read_line(&mut response)?;
        if !response.ends_with('\n') {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection before a complete reply",
            ));
        }
        response.truncate(response.trim_end().len());
        Ok(response)
    }

    /// Send one request line and parse the response as a JSON value.
    pub fn request(&mut self, line: &str) -> std::io::Result<Value> {
        let raw = self.request_raw(line)?;
        serde_json::parse_value_str(&raw)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }
}

/// Read an unsigned-integer field out of a response value.
pub fn field_u64(v: &Value, key: &str) -> Option<u64> {
    match v.get(key) {
        Some(Value::U64(n)) => Some(*n),
        _ => None,
    }
}

/// Whether a response value reports success.
pub fn is_ok(v: &Value) -> bool {
    matches!(v.get("ok"), Some(Value::Bool(true)))
}

/// The `code` field of a failure response.
pub fn error_code(v: &Value) -> Option<&str> {
    match v.get("code") {
        Some(Value::Str(s)) => Some(s.as_str()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn a_reply_cut_off_by_close_is_unexpected_eof() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let peer = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            BufReader::new(&s).read_line(&mut String::new()).unwrap();
            s.write_all(b"{\"ok\":tr").unwrap();
        });
        let mut c = Client::connect(&addr).unwrap();
        let err = c.request_raw(r#"{"op":"status"}"#).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err}");
        peer.join().unwrap();
    }
}

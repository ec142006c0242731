//! A minimal HTTP/3-like request/response layer.
//!
//! The scanner only needs three things from the application layer: to issue a
//! `GET` for the probed domain, to read the `server` header (Figure 3 groups
//! mirroring domains by web server software) and the `via` header (which is
//! how the paper spots the Google reverse proxy in front of wix.com), and to
//! know that a response arrived at all.  QPACK and the HTTP/3 binary framing
//! are replaced by a plain-text header block on stream 0; the substitution is
//! documented in DESIGN.md.
//!
//! Messages are written where they go and read where they lie: a
//! [`HttpRequest`] borrows its strings, a server's [`HttpResponse`] its
//! header values, and each appends itself to the STREAM frame under
//! construction; both parse as slices of the reassembled stream.  The one
//! thing copied out is what a client report keeps: the response's header
//! values, each into one shared `Arc<str>`, so that a report's copy — a
//! replayed run's, a stored record's — shares them instead of copying them.

use std::io::Write;
use std::sync::Arc;

/// An HTTP request sent over stream 0, its strings borrowed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HttpRequest<'a> {
    /// The `:authority` pseudo-header (the probed domain).
    pub authority: &'a str,
    /// The request path (always `/` for the scanner).
    pub path: &'a str,
    /// The user-agent string; the paper embeds the research project name in
    /// every request for the opt-out process described in its ethics section.
    pub user_agent: &'a str,
}

impl<'a> HttpRequest<'a> {
    /// A scanner request for `authority`.
    pub fn get(authority: &'a str) -> Self {
        HttpRequest {
            authority,
            path: "/",
            user_agent: "quic-ecn-measurements (research scan; see project page)",
        }
    }

    /// Append the request to `buf`: stream bytes, written where they go.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        let parts = [
            "GET ",
            self.path,
            " HTTP/3\r\nhost: ",
            self.authority,
            "\r\nuser-agent: ",
            self.user_agent,
            "\r\n\r\n",
        ];
        for part in parts {
            buf.extend_from_slice(part.as_bytes());
        }
    }

    /// Parse from stream bytes, in place; returns `None` for malformed
    /// requests.
    pub fn decode(bytes: &'a [u8]) -> Option<Self> {
        let text = std::str::from_utf8(bytes).ok()?;
        let mut lines = text.lines();
        let request_line = lines.next()?;
        let mut parts = request_line.split_whitespace();
        let method = parts.next()?;
        if method != "GET" {
            return None;
        }
        let mut request = HttpRequest {
            authority: "",
            path: parts.next()?,
            user_agent: "",
        };
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                let name = name.trim();
                if name.eq_ignore_ascii_case("host") {
                    request.authority = value.trim();
                } else if name.eq_ignore_ascii_case("user-agent") {
                    request.user_agent = value.trim();
                }
            }
        }
        Some(request)
    }
}

/// An HTTP response sent over stream 0: with shared `Arc<str>` header
/// values as a client report keeps it, or with `&str` ones as a server
/// writes it.  Cloning a report's response copies three pointers: every
/// copy of a report, the scanner's replay of a kept run and the store's
/// decode of a record included, shares the header values of the response
/// it was read from, never copies their text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse<S = Arc<str>> {
    /// Status code.
    pub status: u16,
    /// The `server` header, if the server sets one.
    pub server: Option<S>,
    /// The `via` header, if set (e.g. `1.1 google` for proxied wix.com sites).
    pub via: Option<S>,
    /// The `alt-svc` header, if set (ignored by the scanner per §4.1 but kept
    /// for completeness).
    pub alt_svc: Option<S>,
    /// Number of body bytes (the body itself is synthetic padding).
    pub body_len: usize,
}

impl<S> HttpResponse<S> {
    /// A plain 200 response without identifying headers.
    pub fn ok() -> Self {
        HttpResponse {
            status: 200,
            server: None,
            via: None,
            alt_svc: None,
            body_len: 1024,
        }
    }
}

impl<S: AsRef<str>> HttpResponse<S> {
    /// Append the response to `buf`: stream bytes, written where they go.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        // Writing to a `Vec` cannot fail.
        let _ = write!(buf, "HTTP/3 {}\r\n", self.status);
        let headers = [&self.server, &self.via, &self.alt_svc];
        for (name, value) in HEADERS.iter().zip(headers) {
            if let Some(value) = value {
                let _ = write!(buf, "{name}: {}\r\n", value.as_ref());
            }
        }
        let _ = write!(buf, "content-length: {}\r\n\r\n", self.body_len);
        buf.resize(buf.len() + self.body_len, b'x');
    }
}

/// The headers a response keeps, in the order it writes them.
const HEADERS: [&str; 3] = ["server", "via", "alt-svc"];

impl HttpResponse {
    /// Parse from stream bytes, read in place up to the blank line that
    /// ends the headers, with only the kept header values copied out, each
    /// into one `Arc<str>`.
    ///
    /// The lines are the whole buffer's lossy UTF-8 text split as
    /// [`str::lines`] splits it, decoded one at a time: each ends at a
    /// `\n` with one `\r` before it stripped, and since neither byte can
    /// sit inside a multi-byte sequence, a line's lossy text is the same
    /// whether it is decoded alone or with the rest.  A valid line is
    /// borrowed; the body is never read.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let mut lines = bytes.split_inclusive(|&b| b == b'\n').map(|line| {
            let line = match line.strip_suffix(b"\n") {
                Some(line) => line.strip_suffix(b"\r").unwrap_or(line),
                None => line,
            };
            String::from_utf8_lossy(line)
        });
        let status_line = lines.next()?;
        let status = status_line.split_whitespace().nth(1)?.parse().ok()?;
        let mut response = HttpResponse {
            status,
            body_len: 0,
            ..HttpResponse::ok()
        };
        for line in lines {
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                let (name, value) = (name.trim(), value.trim());
                let slots = [
                    &mut response.server,
                    &mut response.via,
                    &mut response.alt_svc,
                ];
                for (header, slot) in HEADERS.iter().zip(slots) {
                    if name.eq_ignore_ascii_case(header) {
                        *slot = Some(Arc::from(value));
                    }
                }
                if name.eq_ignore_ascii_case("content-length") {
                    response.body_len = value.parse().unwrap_or(0);
                }
            }
        }
        Some(response)
    }

    /// The server-software family, with version suffixes after `/` removed —
    /// the normalisation Figure 3 applies to the `server` header.
    pub fn server_family(&self) -> Option<&str> {
        self.server
            .as_deref()
            .map(|s| s.split('/').next().unwrap_or(s).trim())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encoded(write: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut buf = Vec::new();
        write(&mut buf);
        buf
    }

    #[test]
    fn request_round_trip() {
        let req = HttpRequest::get("www.example.com");
        let bytes = encoded(|buf| req.encode(buf));
        assert_eq!(HttpRequest::decode(&bytes), Some(req));
    }

    #[test]
    fn non_get_rejected() {
        assert!(HttpRequest::decode(b"POST / HTTP/3\r\n\r\n").is_none());
    }

    #[test]
    fn response_round_trip_with_headers() {
        let resp = HttpResponse {
            server: Some("LiteSpeed/6.1"),
            via: Some("1.1 google"),
            ..HttpResponse::ok()
        };
        let decoded = HttpResponse::decode(&encoded(|buf| resp.encode(buf))).unwrap();
        assert_eq!(decoded.status, 200);
        assert_eq!(decoded.server.as_deref(), Some("LiteSpeed/6.1"));
        assert_eq!(decoded.via.as_deref(), Some("1.1 google"));
        assert_eq!(decoded.body_len, 1024);
    }

    #[test]
    fn server_family_strips_version() {
        let resp = HttpResponse {
            server: Some(Arc::from("LiteSpeed/6.1.2")),
            ..HttpResponse::ok()
        };
        assert_eq!(resp.server_family(), Some("LiteSpeed"));
        assert_eq!(HttpResponse::ok().server_family(), None);
    }

    #[test]
    fn response_without_server_header() {
        let bytes = encoded(|buf| HttpResponse::<&str>::ok().encode(buf));
        let decoded = HttpResponse::decode(&bytes).unwrap();
        assert_eq!(decoded.server, None);
        assert_eq!(decoded.status, 200);
    }

    #[test]
    fn a_large_invalid_utf8_body_is_not_read() {
        let resp = HttpResponse {
            server: Some("nginx/1.25"),
            alt_svc: Some("h3=\":443\""),
            body_len: 1 << 20,
            ..HttpResponse::ok()
        };
        let mut bytes = encoded(|buf| resp.encode(buf));
        let body = bytes.len() - resp.body_len;
        for (i, byte) in bytes[body..].iter_mut().enumerate() {
            *byte = [0xff, b'\n', 0xc3, b'\r', b':'][i % 5];
        }
        let decoded = HttpResponse::decode(&bytes).unwrap();
        assert_eq!(decoded.server.as_deref(), Some("nginx/1.25"));
        assert_eq!(decoded.alt_svc.as_deref(), Some("h3=\":443\""));
        assert_eq!(decoded.via, None);
        assert_eq!((decoded.status, decoded.body_len), (200, 1 << 20));
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(HttpResponse::decode(&[0xff, 0xfe, 0x00]).is_none());
        assert!(HttpRequest::decode(&[0xff, 0xfe, 0x00]).is_none());
    }
}

//! A minimal HTTP/3-like request/response layer.
//!
//! The scanner only needs three things from the application layer: to issue a
//! `GET` for the probed domain, to read the `server` header (Figure 3 groups
//! mirroring domains by web server software) and the `via` header (which is
//! how the paper spots the Google reverse proxy in front of wix.com), and to
//! know that a response arrived at all.  QPACK and the HTTP/3 binary framing
//! are replaced by a plain-text header block on stream 0; the substitution is
//! documented in DESIGN.md.

/// An HTTP request sent over stream 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// The `:authority` pseudo-header (the probed domain).
    pub authority: String,
    /// The request path (always `/` for the scanner).
    pub path: String,
    /// The user-agent string; the paper embeds the research project name in
    /// every request for the opt-out process described in its ethics section.
    pub user_agent: String,
}

impl HttpRequest {
    /// A scanner request for `authority`.
    pub fn get(authority: &str) -> Self {
        HttpRequest {
            authority: authority.to_string(),
            path: "/".to_string(),
            user_agent: "quic-ecn-measurements (research scan; see project page)".to_string(),
        }
    }

    /// Serialise to stream bytes.
    pub fn encode(&self) -> Vec<u8> {
        format!(
            "GET {} HTTP/3\r\nhost: {}\r\nuser-agent: {}\r\n\r\n",
            self.path, self.authority, self.user_agent
        )
        .into_bytes()
    }

    /// Parse from stream bytes; returns `None` for malformed requests.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let text = std::str::from_utf8(bytes).ok()?;
        let mut lines = text.lines();
        let request_line = lines.next()?;
        let mut parts = request_line.split_whitespace();
        let method = parts.next()?;
        if method != "GET" {
            return None;
        }
        let path = parts.next()?.to_string();
        let mut authority = String::new();
        let mut user_agent = String::new();
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                match name.trim().to_ascii_lowercase().as_str() {
                    "host" => authority = value.trim().to_string(),
                    "user-agent" => user_agent = value.trim().to_string(),
                    _ => {}
                }
            }
        }
        Some(HttpRequest {
            authority,
            path,
            user_agent,
        })
    }
}

/// An HTTP response sent over stream 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// The `server` header, if the server sets one.
    pub server: Option<String>,
    /// The `via` header, if set (e.g. `1.1 google` for proxied wix.com sites).
    pub via: Option<String>,
    /// The `alt-svc` header, if set (ignored by the scanner per §4.1 but kept
    /// for completeness).
    pub alt_svc: Option<String>,
    /// Number of body bytes (the body itself is synthetic padding).
    pub body_len: usize,
}

impl HttpResponse {
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

    /// Set the `server` header.
    pub fn with_server(mut self, server: &str) -> Self {
        self.server = Some(server.to_string());
        self
    }

    /// Set the `via` header.
    pub fn with_via(mut self, via: &str) -> Self {
        self.via = Some(via.to_string());
        self
    }

    /// Serialise to stream bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut text = format!("HTTP/3 {}\r\n", self.status);
        if let Some(server) = &self.server {
            text.push_str(&format!("server: {server}\r\n"));
        }
        if let Some(via) = &self.via {
            text.push_str(&format!("via: {via}\r\n"));
        }
        if let Some(alt_svc) = &self.alt_svc {
            text.push_str(&format!("alt-svc: {alt_svc}\r\n"));
        }
        text.push_str(&format!("content-length: {}\r\n\r\n", self.body_len));
        let mut bytes = text.into_bytes();
        bytes.extend(std::iter::repeat(b'x').take(self.body_len));
        bytes
    }

    /// Parse from stream bytes.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let text = String::from_utf8_lossy(bytes);
        let mut lines = text.lines();
        let status_line = lines.next()?;
        let status = status_line.split_whitespace().nth(1)?.parse().ok()?;
        let mut response = HttpResponse {
            status,
            server: None,
            via: None,
            alt_svc: None,
            body_len: 0,
        };
        for line in lines {
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                let value = value.trim().to_string();
                match name.trim().to_ascii_lowercase().as_str() {
                    "server" => response.server = Some(value),
                    "via" => response.via = Some(value),
                    "alt-svc" => response.alt_svc = Some(value),
                    "content-length" => response.body_len = value.parse().unwrap_or(0),
                    _ => {}
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

    #[test]
    fn request_round_trip() {
        let req = HttpRequest::get("www.example.com");
        let decoded = HttpRequest::decode(&req.encode()).unwrap();
        assert_eq!(decoded, req);
    }

    #[test]
    fn non_get_rejected() {
        assert!(HttpRequest::decode(b"POST / HTTP/3\r\n\r\n").is_none());
    }

    #[test]
    fn response_round_trip_with_headers() {
        let resp = HttpResponse::ok()
            .with_server("LiteSpeed/6.1")
            .with_via("1.1 google");
        let decoded = HttpResponse::decode(&resp.encode()).unwrap();
        assert_eq!(decoded.status, 200);
        assert_eq!(decoded.server.as_deref(), Some("LiteSpeed/6.1"));
        assert_eq!(decoded.via.as_deref(), Some("1.1 google"));
        assert_eq!(decoded.body_len, 1024);
    }

    #[test]
    fn server_family_strips_version() {
        let resp = HttpResponse::ok().with_server("LiteSpeed/6.1.2");
        assert_eq!(resp.server_family(), Some("LiteSpeed"));
        let resp = HttpResponse::ok();
        assert_eq!(resp.server_family(), None);
    }

    #[test]
    fn response_without_server_header() {
        let resp = HttpResponse::ok();
        let decoded = HttpResponse::decode(&resp.encode()).unwrap();
        assert_eq!(decoded.server, None);
        assert_eq!(decoded.status, 200);
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(HttpResponse::decode(&[0xff, 0xfe, 0x00]).is_none());
        assert!(HttpRequest::decode(&[0xff, 0xfe, 0x00]).is_none());
    }
}

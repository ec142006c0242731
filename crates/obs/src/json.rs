//! A tiny deterministic JSON writer.
//!
//! Telemetry exports are the workspace's only JSON, and no serialisation
//! crate is vendored, so they are written by hand.  The writer produces a
//! fixed layout (two-space indentation, keys in the caller's iteration
//! order, `", "` separators in inline arrays) so equal inputs serialize to
//! byte-identical documents, which is what the CI determinism gate diffs.

/// Append `s` as a JSON string literal (quotes included).
pub(crate) fn push_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append `indent` levels of two-space indentation.
pub(crate) fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// Open a `{`; empty objects render as `{}` with no newline.
pub(crate) fn open_object(out: &mut String, empty: bool) {
    out.push('{');
    if !empty {
        out.push('\n');
    }
}

/// Close a `}` at `indent` levels.
pub(crate) fn close_object(out: &mut String, indent: usize, empty: bool) {
    if !empty {
        out.push('\n');
        push_indent(out, indent);
    }
    out.push('}');
}

/// Write the separator-plus-key prefix for an object member at `indent`
/// levels: `[,\n]<indent>"key": `.
pub(crate) fn key(out: &mut String, indent: usize, name: &str, first: bool) {
    if !first {
        out.push_str(",\n");
    }
    push_indent(out, indent);
    push_string(out, name);
    out.push_str(": ");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape_quotes_backslashes_and_controls() {
        let mut out = String::new();
        push_string(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn object_layout_is_fixed() {
        let mut out = String::new();
        open_object(&mut out, false);
        key(&mut out, 1, "k", true);
        out.push('1');
        key(&mut out, 1, "l", false);
        out.push('2');
        close_object(&mut out, 0, false);
        assert_eq!(out, "{\n  \"k\": 1,\n  \"l\": 2\n}");
    }
}

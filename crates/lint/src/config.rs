//! `lint.toml` — the committed rule catalogue.
//!
//! The parser covers the TOML subset the config actually uses — `[section]`
//! headers, `key = "string"`, `key = ["array", "of", "strings"]` (single or
//! multi line) and `#` comments — and rejects everything else loudly.  A
//! hand-rolled parser keeps the linter dependency-free, which matters
//! because qem-lint is the tool that *audits* the dependency policy.
//!
//! Schema:
//!
//! ```toml
//! [lint]
//! skip = ["crates/lint/tests/fixtures"]   # never linted, any rule
//!
//! [rule.<id>]
//! description = "one-line rule catalogue entry"
//! zones = ["crates/netsim/src", "crates/core/src/reports"]
//! deny  = ["Instant", "std :: fs", ". unwrap", "panic !"]
//! allow = ["crates/netsim/src/demo.rs"]   # extra allow zones, glob or prefix
//! message = "what to do instead"
//! ```
//!
//! `deny` patterns are whitespace-separated token sequences: a word of
//! identifier characters matches one identifier exactly; anything else
//! matches its characters as consecutive punctuation.  Rules with an empty
//! `deny` list are *structural* — their logic lives in the binary (today:
//! `unsafe-hygiene` and `unused-pub`) — but their zones and allow lists
//! still come from here.

use std::collections::BTreeMap;
use std::fmt;

/// One configured rule.
#[derive(Debug, Clone, Default)]
pub struct RuleConfig {
    pub id: String,
    pub description: String,
    /// Paths (prefix or glob, repo-relative) the rule applies to.
    pub zones: Vec<String>,
    /// Token-sequence patterns to deny inside the zones.
    pub deny: Vec<String>,
    /// Extra allow zones on top of the built-ins.
    pub allow: Vec<String>,
    /// Appended to every diagnostic of this rule.
    pub message: String,
}

/// The whole parsed configuration.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Paths never linted by any rule.
    pub skip: Vec<String>,
    /// Rules, in file order (BTreeMap keyed by id for stable output).
    pub rules: BTreeMap<String, RuleConfig>,
}

/// A config-file syntax error with its line number.
#[derive(Debug)]
pub struct ConfigError {
    pub line: usize,
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lint.toml:{}: {}", self.line, self.message)
    }
}

enum Section {
    None,
    Lint,
    Rule(String),
}

/// Parse the configuration text.
pub fn parse(text: &str) -> Result<Config, ConfigError> {
    let mut config = Config::default();
    let mut section = Section::None;

    let mut lines = text.lines().enumerate().peekable();
    while let Some((idx, raw)) = lines.next() {
        let lineno = idx + 1;
        let line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix('[') {
            let header = header.strip_suffix(']').ok_or_else(|| ConfigError {
                line: lineno,
                message: "unterminated section header".to_string(),
            })?;
            section = match header {
                "lint" => Section::Lint,
                _ => match header.strip_prefix("rule.") {
                    Some(id) if !id.is_empty() => {
                        let id = id.to_string();
                        config
                            .rules
                            .entry(id.clone())
                            .or_insert_with(|| RuleConfig {
                                id: id.clone(),
                                ..RuleConfig::default()
                            });
                        Section::Rule(id)
                    }
                    _ => {
                        return Err(ConfigError {
                            line: lineno,
                            message: format!("unknown section [{header}]"),
                        })
                    }
                },
            };
            continue;
        }

        let (key, value) = line.split_once('=').ok_or_else(|| ConfigError {
            line: lineno,
            message: format!("expected `key = value`, got `{line}`"),
        })?;
        let key = key.trim();
        let mut value = value.trim().to_string();
        // Multi-line arrays: keep consuming lines until brackets balance.
        while value.starts_with('[') && !brackets_balance(&value) {
            let (_, next) = lines.next().ok_or_else(|| ConfigError {
                line: lineno,
                message: "unterminated array".to_string(),
            })?;
            value.push(' ');
            value.push_str(strip_comment(next).trim());
        }

        match &section {
            Section::None => {
                return Err(ConfigError {
                    line: lineno,
                    message: "key outside any section".to_string(),
                })
            }
            Section::Lint => match key {
                "skip" => config.skip = parse_string_array(&value, lineno)?,
                _ => {
                    return Err(ConfigError {
                        line: lineno,
                        message: format!("unknown [lint] key `{key}`"),
                    })
                }
            },
            Section::Rule(id) => {
                let rule = config.rules.get_mut(id).expect("section registered");
                match key {
                    "description" => rule.description = parse_string(&value, lineno)?,
                    "zones" => rule.zones = parse_string_array(&value, lineno)?,
                    "deny" => rule.deny = parse_string_array(&value, lineno)?,
                    "allow" => rule.allow = parse_string_array(&value, lineno)?,
                    "message" => rule.message = parse_string(&value, lineno)?,
                    _ => {
                        return Err(ConfigError {
                            line: lineno,
                            message: format!("unknown rule key `{key}`"),
                        })
                    }
                }
            }
        }
    }
    Ok(config)
}

/// Strip a `#` comment, respecting `#` inside double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_string => escaped = true,
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

fn brackets_balance(value: &str) -> bool {
    let mut depth = 0i32;
    let mut in_string = false;
    let mut escaped = false;
    for c in value.chars() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_string => escaped = true,
            '"' => in_string = !in_string,
            '[' if !in_string => depth += 1,
            ']' if !in_string => depth -= 1,
            _ => {}
        }
    }
    depth == 0
}

fn parse_string(value: &str, lineno: usize) -> Result<String, ConfigError> {
    let value = value.trim();
    let inner = value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .ok_or_else(|| ConfigError {
            line: lineno,
            message: format!("expected a quoted string, got `{value}`"),
        })?;
    Ok(inner.replace("\\\"", "\""))
}

fn parse_string_array(value: &str, lineno: usize) -> Result<Vec<String>, ConfigError> {
    let value = value.trim();
    let inner = value
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or_else(|| ConfigError {
            line: lineno,
            message: format!("expected an array, got `{value}`"),
        })?;
    let mut out = Vec::new();
    let mut rest = inner.trim();
    while !rest.is_empty() {
        if rest.starts_with(',') {
            rest = rest[1..].trim_start();
            continue;
        }
        let stripped = rest.strip_prefix('"').ok_or_else(|| ConfigError {
            line: lineno,
            message: format!("expected a quoted string in array, near `{rest}`"),
        })?;
        let end = find_string_end(stripped).ok_or_else(|| ConfigError {
            line: lineno,
            message: "unterminated string in array".to_string(),
        })?;
        out.push(stripped[..end].replace("\\\"", "\""));
        rest = stripped[end + 1..].trim_start();
    }
    Ok(out)
}

/// Byte index of the closing quote in a string whose opening quote has been
/// stripped, honouring `\"` escapes.
fn find_string_end(s: &str) -> Option<usize> {
    let mut escaped = false;
    for (i, c) in s.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' => escaped = true,
            '"' => return Some(i),
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_schema() {
        let text = r#"
# catalogue
[lint]
skip = ["crates/lint/tests/fixtures"]

[rule.no-wall-clock]
description = "deny ambient clocks"
zones = [
    "crates/netsim/src",   # the engine
    "crates/quic/src",
]
deny = ["Instant", "SystemTime"]
allow = []
message = "use SimInstant"
"#;
        let config = parse(text).expect("parses");
        assert_eq!(config.skip, ["crates/lint/tests/fixtures"]);
        let rule = &config.rules["no-wall-clock"];
        assert_eq!(rule.zones.len(), 2);
        assert_eq!(rule.deny, ["Instant", "SystemTime"]);
        assert_eq!(rule.message, "use SimInstant");
    }

    #[test]
    fn rejects_unknown_keys_with_line_numbers() {
        let err = parse("[rule.x]\nbogus = \"y\"\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("bogus"));
    }

    #[test]
    fn hash_inside_strings_is_not_a_comment() {
        let config = parse("[lint]\nskip = [\"a#b\"]\n").expect("parses");
        assert_eq!(config.skip, ["a#b"]);
    }
}

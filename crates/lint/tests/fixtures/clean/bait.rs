//! Fixture: false-positive bait.  Every denied name below appears only in
//! comments, strings, raw strings, byte strings or lookalike identifiers —
//! `qem-lint check` must report nothing for this file.

// Comments may mention HashMap, Instant, thread_rng and std::fs freely.

/* Block comments too: TcpStream::connect, SystemTime::now(), panic!(). */

pub const PLAIN: &str = "HashMap and HashSet live in std::collections";
pub const ESCAPED: &str = "say \"Instant\" and SystemTime and UNIX_EPOCH";
pub const RAW: &str = r#"thread_rng() and OsRng and "quoted" getrandom"#;
pub const NESTED_RAW: &str = r##"raw with "# inside: from_entropy()"##;
pub const BYTES: &[u8] = b"std::fs::read and TcpStream and UdpSocket";
pub const CHARS: (char, char) = ('a', '"');
pub const AMBIENT: &'static str = "thread_local! static mut OnceLock OnceCell LazyLock lazy_static";
pub const SHARED: &str = "AtomicU64 AtomicUsize AtomicU32 .fetch_add(1) .fetch_max(2)"; // fetch_add
pub const ABORTS: &str = "x.unwrap() y.expect(\"why\") panic!() unreachable!() todo!() unimplemented!()"; // .unwrap()
pub const DRAWS: &str = "rng.gen_bool(p)"; // gen_bool
pub const TRUTH: &str = "host.stack, transit_v4, TransitProfile, tcp_behavior()"; // StackProfile

/// Doc comments mentioning sleep, stdin and UdpSocket are also fine.
pub struct SimInstant(pub u64);

pub fn lookalikes(v: Option<u64>) -> u64 {
    v.unwrap_or(0)
}

pub fn truth_lookalikes(gen_bool_calls: u64, stack_depth: u64, uses_ecn: bool) -> u64 {
    gen_bool_calls + stack_depth + u64::from(uses_ecn)
}

/// A parser of hostile bytes degrades without `.unwrap()` or `panic!`: the
/// total lookalikes stay legal in a panic-policy zone.
pub fn total_lookalikes(bytes: &[u8], parsed: Result<u8, u8>) -> u8 {
    let expected = bytes.first().copied().unwrap_or_default();
    parsed.unwrap_or_else(|unexpected| unexpected) ^ expected
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_modules_may_abort() {
        assert_eq!(super::lookalikes(Some(1)), Some(1).unwrap());
        if super::lookalikes(None) != 0 {
            panic!("tests may");
        }
    }
}

pub struct HashMapLike;

// lint: allow(no-unordered-collections) annotation demo: next line is exempt
pub type Index = std::collections::HashMap<u32, u32>;

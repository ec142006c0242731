//! Fixture: true positives for `no-ambient-state`.

thread_local! {
    static WHEEL: std::cell::RefCell<Vec<u32>> = std::cell::RefCell::new(Vec::new());
}

static mut PROBES: u64 = 0;
static HOSTS: std::sync::Mutex<u64> = std::sync::Mutex::new(0);
static TABLE: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();

pub fn label() -> &'static str {
    let cell: std::cell::OnceCell<u8> = std::cell::OnceCell::new();
    let lazy = std::sync::LazyLock::new(|| 1u8);
    lazy_static::lazy_static! {}
    "the `'static` lifetime above and below is not a `static` item"
}

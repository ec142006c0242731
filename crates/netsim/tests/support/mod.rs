//! Test-only code shared by the integration tests of this crate.

pub mod oracle;

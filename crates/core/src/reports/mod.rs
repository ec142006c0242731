//! Report builders: one per table and figure of the paper.
//!
//! Every builder consumes only the measurement results (plus the DNS and
//! as2org data a real scanner would also have) and produces a printable
//! structure whose rows mirror the corresponding table or figure.  All of
//! them start from the per-host join of [`crate::source`]: a source is
//! streamed once to build it — once per report set when the caller keeps it
//! in a [`JoinedSnapshot`](crate::source::JoinedSnapshot) — and each builder
//! is a loop over hosts weighted by the domains they serve.  The absolute
//! counts depend on the universe scale; the *shape* — who wins, by roughly
//! which factor, where the crossovers are — is what the integration tests
//! under `tests/` compare against the paper.

mod figures;
mod tables;

pub use figures::{
    figure3, figure4, figure5, figure6, figure7, DomainState, Figure3, Figure3Point, Figure4,
    Figure5, Figure6, Figure7, Figure7Row, MirrorUseQuadrant, QuicCeCategory, TcpCategory,
};
pub use tables::{
    table1, table2, table3, table4, table5, table6, table7, ClassCount, ProviderRow, ProviderTable,
    Table1, Table1Row, Table4, Table4Row, Table5, Table6, Table7, Table7Row,
};

/// Format a count with thousands separators (tables in the paper use `k`/`M`
/// suffixes; we keep exact counts but group digits for readability).
pub(crate) fn fmt_count(value: u64) -> String {
    let digits: Vec<char> = value.to_string().chars().rev().collect();
    let mut out = String::new();
    for (i, c) in digits.iter().enumerate() {
        if i > 0 && i % 3 == 0 {
            out.push(',');
        }
        out.push(*c);
    }
    out.chars().rev().collect()
}

/// Format a percentage with one decimal.
pub(crate) fn fmt_pct(value: f64) -> String {
    format!("{:.1} %", value * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_formatting_groups_digits() {
        assert_eq!(fmt_count(0), "0");
        assert_eq!(fmt_count(999), "999");
        assert_eq!(fmt_count(1_000), "1,000");
        assert_eq!(fmt_count(17_300_000), "17,300,000");
    }

    #[test]
    fn percentage_formatting() {
        assert_eq!(fmt_pct(0.056), "5.6 %");
        assert_eq!(fmt_pct(0.0), "0.0 %");
    }
}

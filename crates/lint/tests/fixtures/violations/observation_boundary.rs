//! Fixture: true positives for `observation-boundary`.

pub fn quic_capable(host: &Host) -> bool {
    host.stack.is_some()
}

pub fn cleared(host: &Host) -> bool {
    matches!(host.transit_v4, TransitProfile::Clearing { .. })
}

pub fn mirrors(mirror: &MirrorUse) -> bool {
    mirror.uses_ecn
}

#[cfg(test)]
mod tests {
    #[test]
    fn a_test_may_read_the_truth() {
        let host = super::truth();
        assert!(host.stack.is_some());
    }
}

//! Routers: the per-hop actors of the path simulator.

use crate::policy::{DscpPolicy, EcnPolicy};
use crate::topology::Asn;
use std::fmt;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

/// Identifier of a router inside a topology.
///
/// Also the key under which the discrete-event engine registers shared
/// egress queues ([`crate::engine::SharedQueues`]): all flows whose paths
/// cross a router with the same id compete for the same queue.
///
/// A physical router has a separate egress queue per direction, and the two
/// directions of a [`DuplexPath`](crate::path::DuplexPath) are built by
/// independent `PathBuilder`s that both number routers from 1 — so reverse
/// paths mark their ids with [`RouterId::REVERSE_DIRECTION_BIT`] to keep a
/// queue registered at a forward hop from accidentally capturing
/// numerically-colliding reverse hops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct RouterId(pub u32);

impl RouterId {
    /// Bit distinguishing the reverse-direction egress of a duplex path from
    /// the forward-direction egress with the same hop number.
    pub const REVERSE_DIRECTION_BIT: u32 = 1 << 31;

    /// The id used for this hop number on the reverse direction of a duplex
    /// path.
    pub fn reverse_direction(self) -> RouterId {
        RouterId(self.0 | Self::REVERSE_DIRECTION_BIT)
    }
}

impl fmt::Display for RouterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// How a router answers packets whose TTL expired.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IcmpBehavior {
    /// Probability in `[0, 1]` that a time-exceeded message is actually sent.
    /// Models ICMP rate limiting and administrative silence; the paper's
    /// tracer tolerates up to five consecutive silent hops.
    pub response_probability: f64,
    /// How many bytes of the offending datagram are quoted.  RFC 792 requires
    /// at least the IP header plus 8 bytes; modern routers often quote the
    /// full packet.  The tracer must cope with both.
    pub quote_bytes: usize,
}

impl IcmpBehavior {
    /// A router that always answers and quotes 128 bytes.
    pub fn responsive() -> Self {
        IcmpBehavior {
            response_probability: 1.0,
            quote_bytes: 128,
        }
    }

    /// A router that never answers (blackholes expired packets).
    pub fn silent() -> Self {
        IcmpBehavior {
            response_probability: 0.0,
            quote_bytes: 0,
        }
    }

    /// A router that answers with the given probability (rate limiting).
    pub fn rate_limited(probability: f64) -> Self {
        IcmpBehavior {
            response_probability: probability.clamp(0.0, 1.0),
            quote_bytes: 128,
        }
    }

    /// A responsive router that quotes only the minimum 28 bytes
    /// (IPv4 header + 8 bytes), hiding most of the QUIC payload.
    pub fn minimal_quote() -> Self {
        IcmpBehavior {
            response_probability: 1.0,
            quote_bytes: 28,
        }
    }
}

impl Default for IcmpBehavior {
    fn default() -> Self {
        IcmpBehavior::responsive()
    }
}

/// A router on a forwarding path.
#[derive(Debug, Clone, PartialEq)]
pub struct Router {
    /// Identifier inside the topology.
    pub id: RouterId,
    /// The AS the router belongs to (used for impairment attribution).
    pub asn: Asn,
    /// The address the router uses when sourcing ICMP messages.
    pub address: IpAddr,
    /// ECN rewrite policy.
    pub ecn_policy: EcnPolicy,
    /// DSCP rewrite policy.
    pub dscp_policy: DscpPolicy,
    /// Behaviour towards TTL-expired packets.
    pub icmp: IcmpBehavior,
}

impl Router {
    /// A transparent router belonging to `asn` with the given id.
    ///
    /// The ICMP source address is derived deterministically from the id so
    /// traces are stable across runs.
    pub fn transparent(id: u32, asn: Asn) -> Self {
        Router {
            id: RouterId(id),
            asn,
            address: Router::derive_v4_address(id, asn),
            ecn_policy: EcnPolicy::Pass,
            dscp_policy: DscpPolicy::Pass,
            icmp: IcmpBehavior::responsive(),
        }
    }

    /// A transparent router with an IPv6 ICMP source address.
    pub fn transparent_v6(id: u32, asn: Asn) -> Self {
        let mut r = Router::transparent(id, asn);
        r.address = Router::derive_v6_address(id, asn);
        r
    }

    /// Set the ECN policy.
    pub fn with_ecn_policy(mut self, policy: EcnPolicy) -> Self {
        self.ecn_policy = policy;
        self
    }

    /// Set the DSCP policy.
    pub fn with_dscp_policy(mut self, policy: DscpPolicy) -> Self {
        self.dscp_policy = policy;
        self
    }

    /// Set the ICMP behaviour.
    pub fn with_icmp(mut self, icmp: IcmpBehavior) -> Self {
        self.icmp = icmp;
        self
    }

    /// Deterministic IPv4 address for a router id within an AS
    /// (from the 10.0.0.0/8 space so it never collides with simulated servers).
    pub fn derive_v4_address(id: u32, asn: Asn) -> IpAddr {
        let a = (asn.0 % 200) as u8;
        IpAddr::V4(Ipv4Addr::new(
            10,
            a,
            ((id >> 8) & 0xff) as u8,
            (id & 0xff) as u8,
        ))
    }

    /// Deterministic IPv6 address for a router id within an AS.
    pub fn derive_v6_address(id: u32, asn: Asn) -> IpAddr {
        IpAddr::V6(Ipv6Addr::new(
            0xfd00,
            (asn.0 >> 16) as u16,
            (asn.0 & 0xffff) as u16,
            0,
            0,
            0,
            (id >> 16) as u16,
            (id & 0xffff) as u16,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_fields() {
        let r = Router::transparent(7, Asn(1299))
            .with_ecn_policy(EcnPolicy::ClearEcn)
            .with_icmp(IcmpBehavior::silent());
        assert_eq!(r.id, RouterId(7));
        assert_eq!(r.asn, Asn(1299));
        assert_eq!(r.ecn_policy, EcnPolicy::ClearEcn);
        assert_eq!(r.icmp.response_probability, 0.0);
    }

    #[test]
    fn addresses_are_deterministic_and_distinct() {
        let a = Router::derive_v4_address(1, Asn(1299));
        let b = Router::derive_v4_address(2, Asn(1299));
        let c = Router::derive_v4_address(1, Asn(1299));
        assert_ne!(a, b);
        assert_eq!(a, c);
        assert!(matches!(a, IpAddr::V4(_)));
        assert!(matches!(
            Router::derive_v6_address(1, Asn(174)),
            IpAddr::V6(_)
        ));
    }

    #[test]
    fn icmp_behaviour_presets() {
        assert_eq!(IcmpBehavior::responsive().response_probability, 1.0);
        assert_eq!(IcmpBehavior::silent().response_probability, 0.0);
        assert_eq!(IcmpBehavior::rate_limited(7.0).response_probability, 1.0);
        assert_eq!(IcmpBehavior::minimal_quote().quote_bytes, 28);
    }
}

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
    /// Its ICMP source address is the id inside the AS's IPv4 router prefix
    /// ([`Router::prefix`]), so traces are stable across runs.
    pub fn transparent(id: u32, asn: Asn) -> Self {
        Router::numbered(id, asn, false)
    }

    /// A transparent router with an IPv6 ICMP source address.
    pub fn transparent_v6(id: u32, asn: Asn) -> Self {
        Router::numbered(id, asn, true)
    }

    fn numbered(id: u32, asn: Asn, v6: bool) -> Self {
        let address = match Router::prefix(asn, v6).0 {
            IpAddr::V4(net) => IpAddr::V4(Ipv4Addr::from(u32::from(net) | (id & 0xff))),
            IpAddr::V6(net) => IpAddr::V6(Ipv6Addr::from(u128::from(net) | u128::from(id))),
        };
        Router {
            id: RouterId(id),
            asn,
            address,
            ecn_policy: EcnPolicy::Pass,
            dscp_policy: DscpPolicy::Pass,
            icmp: IcmpBehavior::responsive(),
        }
    }

    /// The prefix, and its length, that `asn` numbers its routers from:
    /// `10.<asn bits 8–15>.<asn bits 0–7>.0/24` for IPv4 and
    /// `fd00:<asn high 16 bits>:<asn low 16 bits>::/48` for IPv6.  A router's
    /// ICMP source is its id in the host bits — for IPv4 the last octet,
    /// which holds every id a [`PathBuilder`](crate::PathBuilder) hands out.
    /// Whoever attributes router addresses announces these prefixes.
    pub fn prefix(asn: Asn, v6: bool) -> (IpAddr, u8) {
        let [_, _, hi, lo] = asn.0.to_be_bytes();
        if v6 {
            let net = Ipv6Addr::new(0xfd00, (asn.0 >> 16) as u16, asn.0 as u16, 0, 0, 0, 0, 0);
            (IpAddr::V6(net), 48)
        } else {
            (IpAddr::V4(Ipv4Addr::new(10, hi, lo, 0)), 24)
        }
    }

    /// Set the ECN policy.
    pub fn with_ecn_policy(mut self, policy: EcnPolicy) -> Self {
        self.ecn_policy = policy;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_fields() {
        let r = Router::transparent(7, Asn(1299)).with_ecn_policy(EcnPolicy::ClearEcn);
        assert_eq!(r.id, RouterId(7));
        assert_eq!(r.asn, Asn(1299));
        assert_eq!(r.ecn_policy, EcnPolicy::ClearEcn);
    }

    #[test]
    fn addresses_are_deterministic_and_distinct() {
        let a = Router::transparent(1, Asn(1299)).address;
        let b = Router::transparent(2, Asn(1299)).address;
        let c = Router::transparent(1, Asn(1299)).address;
        assert_ne!(a, b);
        assert_eq!(a, c);
        assert!(matches!(a, IpAddr::V4(_)));
        assert!(matches!(
            Router::transparent_v6(1, Asn(174)).address,
            IpAddr::V6(_)
        ));
    }

    #[test]
    fn a_router_is_its_id_inside_its_as_prefix() {
        assert_eq!(
            Router::prefix(Asn(203_118), false),
            ("10.25.110.0".parse().unwrap(), 24)
        );
        assert_eq!(
            Router::transparent(7, Asn(203_118)).address,
            "10.25.110.7".parse::<IpAddr>().unwrap()
        );
        assert_eq!(
            Router::prefix(Asn(203_118), true),
            ("fd00:3:196e::".parse().unwrap(), 48)
        );
        assert_eq!(
            Router::transparent_v6(7, Asn(203_118)).address,
            "fd00:3:196e::7".parse::<IpAddr>().unwrap()
        );
        // ASNs that agree modulo 200 still get prefixes of their own.
        assert_ne!(
            Router::prefix(Asn(19_318), false),
            Router::prefix(Asn(203_118), false)
        );
    }

    #[test]
    fn icmp_behaviour_presets() {
        assert_eq!(IcmpBehavior::responsive().response_probability, 1.0);
    }
}

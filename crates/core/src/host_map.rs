//! The host measurements of one snapshot, in host-id order.
//!
//! Every table and figure reads a census host by host in ascending host id,
//! and the scanner hands its measurements back in exactly that order.  A
//! [`HostMap`] therefore is one `Vec` kept strictly ascending by
//! `host_id`: wrapping the scanner's output costs one comparison pass, a
//! lookup is a binary search, and iteration is a slice walk.  It answers
//! like the `BTreeMap` keyed by host id that it replaces — same order,
//! same lookups, same `Debug` text — without a tree node per host.

use crate::observation::HostMeasurement;
use std::fmt;
use std::ops::Index;

/// Host measurements keyed by their own `host_id`, strictly ascending.
///
/// Every constructor keeps the order: one built from an unsorted `Vec` or
/// from `(id, measurement)` pairs is sorted stably, and of measurements
/// sharing an id the last one stays — what inserting them one by one into a
/// map does.
#[derive(Clone, Default, PartialEq)]
pub struct HostMap {
    hosts: Vec<HostMeasurement>,
}

impl HostMap {
    /// Number of hosts.
    pub fn len(&self) -> usize {
        self.hosts.len()
    }

    /// Whether no host was measured.
    pub fn is_empty(&self) -> bool {
        self.hosts.is_empty()
    }

    /// The measurement of `host_id`, if present: a binary search.
    pub fn get(&self, host_id: usize) -> Option<&HostMeasurement> {
        let at = self.position(host_id).ok()?;
        Some(&self.hosts[at])
    }

    /// Store `m` under its `host_id`, returning the measurement it replaces.
    /// Appending in ascending order costs no shift.
    pub fn insert(&mut self, m: HostMeasurement) -> Option<HostMeasurement> {
        match self.position(m.host_id) {
            Ok(at) => Some(std::mem::replace(&mut self.hosts[at], m)),
            Err(at) => {
                self.hosts.insert(at, m);
                None
            }
        }
    }

    /// The measurements in ascending host-id order.
    pub fn values(&self) -> std::slice::Iter<'_, HostMeasurement> {
        self.hosts.iter()
    }

    /// The measurements in ascending host-id order, by value.
    pub fn into_values(self) -> std::vec::IntoIter<HostMeasurement> {
        self.hosts.into_iter()
    }

    fn position(&self, host_id: usize) -> Result<usize, usize> {
        self.hosts.binary_search_by_key(&host_id, |m| m.host_id)
    }
}

/// Wraps `hosts` in place: already strictly ascending (what the scanner and
/// the store deliver) it is one comparison pass; otherwise a stable sort by
/// host id, keeping the last of each run of equal ids.
impl From<Vec<HostMeasurement>> for HostMap {
    fn from(mut hosts: Vec<HostMeasurement>) -> Self {
        if !hosts.windows(2).all(|w| w[0].host_id < w[1].host_id) {
            hosts.sort_by_key(|m| m.host_id);
            hosts.dedup_by(|later, kept| {
                let same = later.host_id == kept.host_id;
                if same {
                    std::mem::swap(later, kept);
                }
                same
            });
        }
        HostMap { hosts }
    }
}

/// Each pair's id must be its measurement's own `host_id`: the map is keyed
/// by the measurement, and a pair naming another host is a caller's bug.
impl FromIterator<(usize, HostMeasurement)> for HostMap {
    fn from_iter<I: IntoIterator<Item = (usize, HostMeasurement)>>(pairs: I) -> Self {
        let hosts: Vec<HostMeasurement> = pairs
            .into_iter()
            .map(|(id, m)| {
                assert_eq!(id, m.host_id, "a host map is keyed by the measured host");
                m
            })
            .collect();
        HostMap::from(hosts)
    }
}

/// Panics if `host_id` is absent, as a map's index does.
impl Index<&usize> for HostMap {
    type Output = HostMeasurement;

    fn index(&self, host_id: &usize) -> &HostMeasurement {
        self.get(*host_id).expect("no measurement for host id")
    }
}

/// Prints what the `BTreeMap` keyed by host id that it replaces printed,
/// so digests over a snapshot's `Debug` text do not move.
impl fmt::Debug for HostMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.hosts.iter().map(|m| (&m.host_id, m)))
            .finish()
    }
}

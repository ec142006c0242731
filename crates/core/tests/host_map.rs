//! `HostMap` against the `BTreeMap` it replaced, as an oracle: over
//! arbitrary unsorted `(id, measurement)` sequences with repeated ids, every
//! read, `insert`, `==` and the `Debug` text agree.

use proptest::prelude::*;
use qem_core::observation::HostMeasurement;
use qem_core::HostMap;
use qem_tcp::TcpReport;
use std::collections::BTreeMap;

/// Host `host_id`'s measurement, told apart from other measurements of the
/// same host by `version`.
fn measurement(host_id: usize, version: u32) -> HostMeasurement {
    HostMeasurement {
        host_id,
        quic_reachable: version % 2 == 0,
        quic: None,
        tcp: Some(TcpReport {
            forward_losses: version,
            ..TcpReport::default()
        }),
        trace: None,
    }
}

/// `(id, m)` pairs in the order of `ids`, each measurement a new version.
fn pairs(ids: &[usize]) -> Vec<(usize, HostMeasurement)> {
    ids.iter()
        .enumerate()
        .map(|(version, &id)| (id, measurement(id, version as u32)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Whatever order and repetition the input has, a `HostMap` reads
    /// exactly as the `BTreeMap` it replaces.  Ids come from small ranges
    /// so that they repeat.
    #[test]
    fn a_host_map_answers_as_the_btree_map_does(
        ids in proptest::collection::vec(0usize..24, 0..48),
        inserted in proptest::collection::vec(0usize..32, 0..16),
        probes in proptest::collection::vec(0usize..40, 0..16),
    ) {
        let mut oracle: BTreeMap<usize, HostMeasurement> = pairs(&ids).into_iter().collect();
        let mut map: HostMap = pairs(&ids).into_iter().collect();
        prop_assert_eq!(format!("{map:?}"), format!("{oracle:?}"));
        prop_assert_eq!(format!("{map:#?}"), format!("{oracle:#?}"));

        for (version, &id) in inserted.iter().enumerate() {
            let m = measurement(id, 1000 + version as u32);
            prop_assert_eq!(map.insert(m.clone()), oracle.insert(id, m));
        }
        prop_assert_eq!(map.len(), oracle.len());
        prop_assert_eq!(map.is_empty(), oracle.is_empty());
        for id in probes.iter().chain(&ids).chain(&inserted) {
            prop_assert_eq!(map.get(*id), oracle.get(id));
            if oracle.contains_key(id) {
                prop_assert_eq!(&map[id], &oracle[id]);
            }
        }
        prop_assert!(map.values().eq(oracle.values()));
        prop_assert_eq!(format!("{map:?}"), format!("{oracle:?}"));

        let again: HostMap = oracle.clone().into_iter().collect();
        prop_assert!(again == map);
        let measurements = pairs(&ids).into_iter().map(|(_, m)| m).collect::<Vec<_>>();
        let from_vec = HostMap::from(measurements);
        let rebuilt: BTreeMap<usize, HostMeasurement> = pairs(&ids).into_iter().collect();
        prop_assert!(from_vec.values().eq(rebuilt.values()));
        prop_assert_eq!(from_vec == map, rebuilt == oracle);
        prop_assert!(map.into_values().eq(oracle.into_values()));
    }
}

#[test]
fn a_sorted_vec_is_kept_as_it_is() {
    let hosts: Vec<HostMeasurement> = [2, 3, 7].map(|id| measurement(id, 0)).to_vec();
    let ptr = hosts.as_ptr();
    let map = HostMap::from(hosts);
    assert_eq!(map.values().as_slice().as_ptr(), ptr);
}

#[test]
fn pairs_collect_without_a_copy() {
    let hosts: Vec<HostMeasurement> = (0..8).map(|id| measurement(id, 0)).collect();
    let ptr = hosts.as_ptr();
    let map: HostMap = hosts.into_iter().map(|m| (m.host_id, m)).collect();
    assert_eq!(map.values().as_slice().as_ptr(), ptr);
}

#[test]
#[should_panic(expected = "keyed by the measured host")]
fn a_pair_naming_another_host_is_refused() {
    let _: HostMap = [(1, measurement(2, 0))].into_iter().collect();
}

#[test]
#[should_panic(expected = "no measurement for host id")]
fn indexing_a_missing_host_panics() {
    let map: HostMap = pairs(&[1, 3]).into_iter().collect();
    let _ = &map[&2];
}

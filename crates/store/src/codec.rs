//! The measurement codec: a compact, dependency-free binary encoding of
//! [`HostMeasurement`] and everything it nests.
//!
//! Layout principles:
//!
//! * **Varints everywhere** — host ids, counters and lengths are small in
//!   practice, and the ECN counters of a typical probe fit in one byte each.
//! * **Flag bytes** — every `bool` and `Option` presence bit of a record is
//!   packed into one leading byte per section instead of one byte each.
//! * **Dictionaries** — server-header strings (`"LiteSpeed"`, `"cloudflare"`,
//!   …) and AS numbers repeat across almost every record of a segment, so
//!   records store small dictionary indices and the segment stores each
//!   distinct string/ASN once.  The dictionaries are per-segment, which keeps
//!   segments self-contained (any segment can be decoded alone — the property
//!   resume depends on).
//!
//! The codec is intentionally explicit — one function per type, field order
//! fixed by this file — because the format on disk is a compatibility
//! surface: `FORMAT_VERSION` must be bumped whenever any of it changes.
//!
//! Both directions size their buffers from what they know.  Encoding
//! writes the records first, so the block's exact length is known before
//! the one buffer that holds it — and, in a segment, its framing — is
//! allocated.  Decoding ([`decode_block_into`]) pushes each record's
//! skeleton onto the caller's `Vec` and decodes its sections into that
//! slot, so a 400-byte measurement is never built elsewhere and moved, and
//! truncates the `Vec` back if any record fails.

use crate::wire::{varint_len, write_str, write_varint, ByteReader};
use crate::StoreError;
use qem_core::observation::HostMeasurement;
use qem_netsim::Asn;
use qem_packet::ecn::{EcnCodepoint, EcnCounts};
use qem_packet::quic::QuicVersion;
use qem_quic::http::HttpResponse;
use qem_quic::{ClientReport, EcnValidationFailure, EcnValidationState, TransportParameters};
use qem_tcp::TcpReport;
use qem_tracebox::{EcnChange, PathVerdict, TraceAnalysis};
use std::cell::Cell;
// lint: allow(no-unordered-collections) intern indexes below are lookup-only
use std::collections::HashMap;
use std::net::IpAddr;

/// Version byte embedded in every store file.
pub const FORMAT_VERSION: u8 = 1;

// ---------------------------------------------------------------------------
// Dictionaries
// ---------------------------------------------------------------------------

/// Per-segment dictionaries, built while encoding records.
/// The `Vec`s carry the dictionary in insertion order — all serialisation
/// iterates those — while the `HashMap`s are pure O(1) membership indexes on
/// the hot encode path: their iteration order is never observed, so hashing
/// cannot leak into the output bytes.
#[derive(Default)]
pub struct DictBuilder {
    strings: Vec<String>,
    // lint: allow(no-unordered-collections) lookup-only index, order carried by `strings`
    string_index: HashMap<String, u32>,
    asns: Vec<u32>,
    // lint: allow(no-unordered-collections) lookup-only index, order carried by `asns`
    asn_index: HashMap<u32, u32>,
}

impl DictBuilder {
    /// Intern a string, returning its dictionary index.
    fn intern_str(&mut self, s: &str) -> u32 {
        if let Some(&idx) = self.string_index.get(s) {
            return idx;
        }
        let idx = self.strings.len() as u32;
        self.strings.push(s.to_string());
        self.string_index.insert(s.to_string(), idx);
        idx
    }

    /// Intern an AS number, returning its dictionary index.
    fn intern_asn(&mut self, asn: Asn) -> u32 {
        if let Some(&idx) = self.asn_index.get(&asn.0) {
            return idx;
        }
        let idx = self.asns.len() as u32;
        self.asns.push(asn.0);
        self.asn_index.insert(asn.0, idx);
        idx
    }

    /// The length of what [`DictBuilder::encode`] writes.
    fn encoded_len(&self) -> usize {
        let strings: usize = self
            .strings
            .iter()
            .map(|s| varint_len(s.len() as u64) + s.len())
            .sum();
        let asns: usize = self
            .asns
            .iter()
            .map(|&asn| varint_len(u64::from(asn)))
            .sum();
        varint_len(self.strings.len() as u64) + strings + varint_len(self.asns.len() as u64) + asns
    }

    /// Serialise both dictionaries (strings, then ASNs).
    pub fn encode(&self, buf: &mut Vec<u8>) {
        write_varint(buf, self.strings.len() as u64);
        for s in &self.strings {
            write_str(buf, s);
        }
        write_varint(buf, self.asns.len() as u64);
        for &asn in &self.asns {
            write_varint(buf, u64::from(asn));
        }
    }
}

/// Decoded per-segment dictionaries.
///
/// The writer adds an entry when a record first uses it, so the entries of
/// a block it wrote are distinct, first referenced in order, and all
/// referenced.  The reader holds a block to the same, so the one value a
/// block decodes to encodes back to that block.
pub struct Dicts {
    strings: Vec<String>,
    asns: Vec<u32>,
    /// How many entries of each dictionary the records have referenced.
    used: [Cell<usize>; 2],
}

impl Dicts {
    /// Deserialise the dictionaries written by [`DictBuilder::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Dicts, StoreError> {
        let string_count = r.varint()? as usize;
        let mut strings = Vec::with_capacity(string_count.min(4096));
        for _ in 0..string_count {
            strings.push(r.string()?);
        }
        let asn_count = r.varint()? as usize;
        let mut asns = Vec::with_capacity(asn_count.min(4096));
        for _ in 0..asn_count {
            let asn = r.varint()?;
            asns.push(
                u32::try_from(asn)
                    .map_err(|_| StoreError::Corrupt(format!("ASN {asn} overflows u32")))?,
            );
        }
        if !distinct(&strings) || !distinct(&asns) {
            return Err(StoreError::Corrupt(
                "a dictionary holds an entry twice".to_string(),
            ));
        }
        Ok(Dicts {
            strings,
            asns,
            used: Default::default(),
        })
    }

    fn string(&self, idx: u64) -> Result<&str, StoreError> {
        let idx = referenced(idx, self.strings.len(), &self.used[0], "string")?;
        Ok(&self.strings[idx])
    }

    fn asn(&self, idx: u64) -> Result<Asn, StoreError> {
        let idx = referenced(idx, self.asns.len(), &self.used[1], "ASN")?;
        Ok(Asn(self.asns[idx]))
    }

    /// Fail unless the records referenced every entry.
    fn expect_all_used(&self) -> Result<(), StoreError> {
        let lens = [self.strings.len(), self.asns.len()];
        if lens
            .iter()
            .zip(&self.used)
            .all(|(&len, used)| used.get() == len)
        {
            Ok(())
        } else {
            Err(StoreError::Corrupt(
                "a dictionary entry no record references".to_string(),
            ))
        }
    }
}

/// Entry `idx` of a dictionary of `len` entries, of which the records have
/// referenced the first `used`: one of those, or the next.
fn referenced(idx: u64, len: usize, used: &Cell<usize>, what: &str) -> Result<usize, StoreError> {
    let Some(idx) = usize::try_from(idx).ok().filter(|&idx| idx < len) else {
        return Err(StoreError::Corrupt(format!(
            "{what} dictionary index {idx} out of range"
        )));
    };
    if idx > used.get() {
        return Err(StoreError::Corrupt(format!(
            "{what} dictionary entry {idx} referenced before entry {}",
            used.get()
        )));
    }
    used.set(used.get().max(idx + 1));
    Ok(idx)
}

/// Whether no value appears twice in `entries`: pairwise for a dictionary
/// of the size a segment writes, sorted for a larger one, so that a crafted
/// block costs O(n log n).
fn distinct<T: Ord>(entries: &[T]) -> bool {
    if entries.len() <= 64 {
        return entries
            .iter()
            .enumerate()
            .all(|(i, entry)| !entries[..i].contains(entry));
    }
    let mut sorted: Vec<&T> = entries.iter().collect();
    sorted.sort_unstable();
    sorted.windows(2).all(|pair| pair[0] != pair[1])
}

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

/// `Option<&str>` as a dictionary reference: 0 = `None`, else index + 1.
fn write_opt_str(buf: &mut Vec<u8>, dict: &mut DictBuilder, value: Option<&str>) {
    match value {
        None => write_varint(buf, 0),
        Some(s) => write_varint(buf, u64::from(dict.intern_str(s)) + 1),
    }
}

fn read_opt_str(r: &mut ByteReader<'_>, dicts: &Dicts) -> Result<Option<String>, StoreError> {
    let tag = r.varint()?;
    if tag == 0 {
        Ok(None)
    } else {
        Ok(Some(dicts.string(tag - 1)?.to_string()))
    }
}

/// `Option<Asn>` as a dictionary reference: 0 = `None`, else index + 1.
fn write_opt_asn(buf: &mut Vec<u8>, dict: &mut DictBuilder, value: Option<Asn>) {
    match value {
        None => write_varint(buf, 0),
        Some(asn) => write_varint(buf, u64::from(dict.intern_asn(asn)) + 1),
    }
}

fn read_opt_asn(r: &mut ByteReader<'_>, dicts: &Dicts) -> Result<Option<Asn>, StoreError> {
    let tag = r.varint()?;
    if tag == 0 {
        Ok(None)
    } else {
        Ok(Some(dicts.asn(tag - 1)?))
    }
}

/// `Option<IpAddr>` tagged by family: 0 = `None`, 4 = IPv4, 6 = IPv6.
fn write_opt_ip(buf: &mut Vec<u8>, value: Option<IpAddr>) {
    match value {
        None => buf.push(0),
        Some(IpAddr::V4(addr)) => {
            buf.push(4);
            buf.extend_from_slice(&addr.octets());
        }
        Some(IpAddr::V6(addr)) => {
            buf.push(6);
            buf.extend_from_slice(&addr.octets());
        }
    }
}

fn read_opt_ip(r: &mut ByteReader<'_>) -> Result<Option<IpAddr>, StoreError> {
    match r.u8()? {
        0 => Ok(None),
        4 => {
            let mut octets = [0u8; 4];
            octets.copy_from_slice(r.bytes(4)?);
            Ok(Some(IpAddr::from(octets)))
        }
        6 => {
            let mut octets = [0u8; 16];
            octets.copy_from_slice(r.bytes(16)?);
            Ok(Some(IpAddr::from(octets)))
        }
        tag => Err(StoreError::Corrupt(format!("invalid IP address tag {tag}"))),
    }
}

fn write_counts(buf: &mut Vec<u8>, counts: EcnCounts) {
    write_varint(buf, counts.ect0);
    write_varint(buf, counts.ect1);
    write_varint(buf, counts.ce);
}

fn read_counts(r: &mut ByteReader<'_>) -> Result<EcnCounts, StoreError> {
    Ok(EcnCounts {
        ect0: r.varint()?,
        ect1: r.varint()?,
        ce: r.varint()?,
    })
}

fn codepoint_bits(cp: EcnCodepoint) -> u8 {
    cp as u8
}

fn codepoint_from_bits(bits: u8) -> Result<EcnCodepoint, StoreError> {
    match bits {
        0b00 => Ok(EcnCodepoint::NotEct),
        0b01 => Ok(EcnCodepoint::Ect1),
        0b10 => Ok(EcnCodepoint::Ect0),
        0b11 => Ok(EcnCodepoint::Ce),
        _ => Err(StoreError::Corrupt(format!(
            "invalid ECN codepoint bits {bits:#04b}"
        ))),
    }
}

fn validation_state_tag(state: EcnValidationState) -> u8 {
    match state {
        EcnValidationState::Testing => 0,
        EcnValidationState::Unknown => 1,
        EcnValidationState::Capable => 2,
        EcnValidationState::Failed(failure) => {
            3 + match failure {
                EcnValidationFailure::NoMirroring => 0,
                EcnValidationFailure::NonMonotonic => 1,
                EcnValidationFailure::Undercount => 2,
                EcnValidationFailure::WrongCodepoint => 3,
                EcnValidationFailure::AllCe => 4,
                EcnValidationFailure::AllLost => 5,
            }
        }
    }
}

fn validation_state_from_tag(tag: u8) -> Result<EcnValidationState, StoreError> {
    Ok(match tag {
        0 => EcnValidationState::Testing,
        1 => EcnValidationState::Unknown,
        2 => EcnValidationState::Capable,
        3 => EcnValidationState::Failed(EcnValidationFailure::NoMirroring),
        4 => EcnValidationState::Failed(EcnValidationFailure::NonMonotonic),
        5 => EcnValidationState::Failed(EcnValidationFailure::Undercount),
        6 => EcnValidationState::Failed(EcnValidationFailure::WrongCodepoint),
        7 => EcnValidationState::Failed(EcnValidationFailure::AllCe),
        8 => EcnValidationState::Failed(EcnValidationFailure::AllLost),
        other => {
            return Err(StoreError::Corrupt(format!(
                "invalid ECN validation tag {other}"
            )))
        }
    })
}

fn verdict_tag(verdict: PathVerdict) -> u8 {
    match verdict {
        PathVerdict::NoChange => 0,
        PathVerdict::Cleared => 1,
        PathVerdict::RemarkedToEct1 => 2,
        PathVerdict::RemarkedToEct0 => 3,
        PathVerdict::CeMarked => 4,
        PathVerdict::Untested => 5,
    }
}

fn verdict_from_tag(tag: u8) -> Result<PathVerdict, StoreError> {
    Ok(match tag {
        0 => PathVerdict::NoChange,
        1 => PathVerdict::Cleared,
        2 => PathVerdict::RemarkedToEct1,
        3 => PathVerdict::RemarkedToEct0,
        4 => PathVerdict::CeMarked,
        5 => PathVerdict::Untested,
        other => {
            return Err(StoreError::Corrupt(format!(
                "invalid path verdict tag {other}"
            )))
        }
    })
}

// ---------------------------------------------------------------------------
// Section codecs
// ---------------------------------------------------------------------------

fn encode_response(buf: &mut Vec<u8>, dict: &mut DictBuilder, response: &HttpResponse) {
    write_varint(buf, u64::from(response.status));
    write_opt_str(buf, dict, response.server.as_deref());
    write_opt_str(buf, dict, response.via.as_deref());
    write_opt_str(buf, dict, response.alt_svc.as_deref());
    write_varint(buf, response.body_len as u64);
}

fn decode_response(r: &mut ByteReader<'_>, dicts: &Dicts) -> Result<HttpResponse, StoreError> {
    let status = r.varint()?;
    Ok(HttpResponse {
        status: u16::try_from(status)
            .map_err(|_| StoreError::Corrupt(format!("HTTP status {status} overflows u16")))?,
        server: read_opt_str(r, dicts)?,
        via: read_opt_str(r, dicts)?,
        alt_svc: read_opt_str(r, dicts)?,
        body_len: r.varint()? as usize,
    })
}

fn encode_version(buf: &mut Vec<u8>, version: QuicVersion) {
    match version {
        QuicVersion::V1 => buf.push(0),
        QuicVersion::Draft(n) => {
            buf.push(1);
            buf.push(n);
        }
        QuicVersion::Other(value) => {
            buf.push(2);
            write_varint(buf, u64::from(value));
        }
    }
}

fn decode_version(r: &mut ByteReader<'_>) -> Result<QuicVersion, StoreError> {
    match r.u8()? {
        0 => Ok(QuicVersion::V1),
        1 => Ok(QuicVersion::Draft(r.u8()?)),
        2 => {
            let value = r.varint()?;
            Ok(QuicVersion::Other(u32::try_from(value).map_err(|_| {
                StoreError::Corrupt(format!("QUIC version {value} overflows u32"))
            })?))
        }
        tag => Err(StoreError::Corrupt(format!(
            "invalid QUIC version tag {tag}"
        ))),
    }
}

fn encode_transport_params(buf: &mut Vec<u8>, params: &TransportParameters) {
    write_varint(buf, params.max_idle_timeout_ms);
    write_varint(buf, params.max_udp_payload_size);
    write_varint(buf, params.initial_max_data);
    write_varint(buf, params.initial_max_stream_data);
    write_varint(buf, params.initial_max_streams_bidi);
    write_varint(buf, params.ack_delay_exponent);
    write_varint(buf, params.max_ack_delay_ms);
    write_varint(buf, params.active_connection_id_limit);
}

fn decode_transport_params(r: &mut ByteReader<'_>) -> Result<TransportParameters, StoreError> {
    Ok(TransportParameters {
        max_idle_timeout_ms: r.varint()?,
        max_udp_payload_size: r.varint()?,
        initial_max_data: r.varint()?,
        initial_max_stream_data: r.varint()?,
        initial_max_streams_bidi: r.varint()?,
        ack_delay_exponent: r.varint()?,
        max_ack_delay_ms: r.varint()?,
        active_connection_id_limit: r.varint()?,
    })
}

fn encode_quic_report(buf: &mut Vec<u8>, dict: &mut DictBuilder, report: &ClientReport) {
    let mut flags = 0u8;
    flags |= u8::from(report.connected);
    flags |= u8::from(report.response.is_some()) << 1;
    flags |= u8::from(report.server_transport_params.is_some()) << 2;
    flags |= u8::from(report.transport_fingerprint.is_some()) << 3;
    flags |= u8::from(report.peer_mirrored) << 4;
    flags |= u8::from(report.server_used_ecn) << 5;
    flags |= u8::from(report.error.is_some()) << 6;
    buf.push(flags);
    if let Some(response) = &report.response {
        encode_response(buf, dict, response);
    }
    encode_version(buf, report.version);
    if let Some(params) = &report.server_transport_params {
        encode_transport_params(buf, params);
    }
    if let Some(fp) = report.transport_fingerprint {
        write_varint(buf, fp);
    }
    buf.push(validation_state_tag(report.ecn_state));
    write_counts(buf, report.mirrored_counts);
    write_counts(buf, report.sent_counts);
    write_counts(buf, report.received_ecn);
    if let Some(error) = &report.error {
        // Presence is already in flag bit 6: write the bare dictionary
        // index, not an Option tag — one representation per value.
        write_varint(buf, u64::from(dict.intern_str(error)));
    }
}

fn decode_quic_report(r: &mut ByteReader<'_>, dicts: &Dicts) -> Result<ClientReport, StoreError> {
    let flags = r.u8()?;
    if flags & 0x80 != 0 {
        return Err(StoreError::Corrupt(format!(
            "unknown QUIC report flags {flags:#04x}"
        )));
    }
    let response = if flags & (1 << 1) != 0 {
        Some(decode_response(r, dicts)?)
    } else {
        None
    };
    let version = decode_version(r)?;
    let server_transport_params = if flags & (1 << 2) != 0 {
        Some(decode_transport_params(r)?)
    } else {
        None
    };
    let transport_fingerprint = if flags & (1 << 3) != 0 {
        Some(r.varint()?)
    } else {
        None
    };
    let ecn_state = validation_state_from_tag(r.u8()?)?;
    let mirrored_counts = read_counts(r)?;
    let sent_counts = read_counts(r)?;
    let received_ecn = read_counts(r)?;
    let error = if flags & (1 << 6) != 0 {
        Some(dicts.string(r.varint()?)?.to_string())
    } else {
        None
    };
    Ok(ClientReport {
        connected: flags & 1 != 0,
        response,
        version,
        server_transport_params,
        transport_fingerprint,
        ecn_state,
        peer_mirrored: flags & (1 << 4) != 0,
        mirrored_counts,
        sent_counts,
        received_ecn,
        server_used_ecn: flags & (1 << 5) != 0,
        error,
    })
}

fn encode_tcp_report(buf: &mut Vec<u8>, report: &TcpReport) {
    let mut flags = 0u8;
    flags |= u8::from(report.connected);
    flags |= u8::from(report.negotiated) << 1;
    flags |= u8::from(report.ce_mirrored) << 2;
    flags |= u8::from(report.cwr_acknowledged) << 3;
    flags |= u8::from(report.server_used_ecn) << 4;
    flags |= u8::from(report.response_received) << 5;
    buf.push(flags);
    write_counts(buf, report.received_ecn);
    write_counts(buf, report.server_observed_ecn);
    write_varint(buf, u64::from(report.forward_losses));
}

fn decode_tcp_report(r: &mut ByteReader<'_>) -> Result<TcpReport, StoreError> {
    let flags = r.u8()?;
    if flags & 0xc0 != 0 {
        return Err(StoreError::Corrupt(format!(
            "unknown TCP report flags {flags:#04x}"
        )));
    }
    let received_ecn = read_counts(r)?;
    let server_observed_ecn = read_counts(r)?;
    let forward_losses = r.varint()?;
    Ok(TcpReport {
        connected: flags & 1 != 0,
        negotiated: flags & (1 << 1) != 0,
        ce_mirrored: flags & (1 << 2) != 0,
        cwr_acknowledged: flags & (1 << 3) != 0,
        received_ecn,
        server_observed_ecn,
        server_used_ecn: flags & (1 << 4) != 0,
        response_received: flags & (1 << 5) != 0,
        forward_losses: u32::try_from(forward_losses).map_err(|_| {
            StoreError::Corrupt(format!("forward loss count {forward_losses} overflows u32"))
        })?,
    })
}

fn encode_trace(buf: &mut Vec<u8>, dict: &mut DictBuilder, trace: &TraceAnalysis) {
    write_varint(buf, trace.changes.len() as u64);
    for change in &trace.changes {
        buf.push(codepoint_bits(change.from) << 2 | codepoint_bits(change.to));
        buf.push(change.visible_at_ttl);
        write_opt_ip(buf, change.last_unchanged_router);
        write_opt_asn(buf, dict, change.asn_before);
        write_opt_ip(buf, change.first_changed_router);
        write_opt_asn(buf, dict, change.asn_at_change);
    }
    buf.push(verdict_tag(trace.verdict));
    match trace.final_observed {
        None => buf.push(0xff),
        Some(cp) => buf.push(codepoint_bits(cp)),
    }
    buf.push(u8::from(trace.dscp_rewritten_only));
}

fn decode_trace(r: &mut ByteReader<'_>, dicts: &Dicts) -> Result<TraceAnalysis, StoreError> {
    let change_count = r.varint()? as usize;
    let mut changes = Vec::with_capacity(change_count.min(256));
    for _ in 0..change_count {
        let codepoints = r.u8()?;
        changes.push(EcnChange {
            from: codepoint_from_bits(codepoints >> 2)?,
            to: codepoint_from_bits(codepoints & 0b11)?,
            visible_at_ttl: r.u8()?,
            last_unchanged_router: read_opt_ip(r)?,
            asn_before: read_opt_asn(r, dicts)?,
            first_changed_router: read_opt_ip(r)?,
            asn_at_change: read_opt_asn(r, dicts)?,
        });
    }
    let verdict = verdict_from_tag(r.u8()?)?;
    let final_observed = match r.u8()? {
        0xff => None,
        bits => Some(codepoint_from_bits(bits)?),
    };
    let dscp_rewritten_only = match r.u8()? {
        0 => false,
        1 => true,
        byte => {
            return Err(StoreError::Corrupt(format!(
                "invalid DSCP-rewrite flag {byte:#04x}"
            )))
        }
    };
    Ok(TraceAnalysis {
        changes,
        verdict,
        final_observed,
        dscp_rewritten_only,
    })
}

// ---------------------------------------------------------------------------
// Record codec
// ---------------------------------------------------------------------------

/// Encode one measurement record, interning strings/ASNs into `dict`.
pub fn encode_measurement(buf: &mut Vec<u8>, dict: &mut DictBuilder, m: &HostMeasurement) {
    write_varint(buf, m.host_id as u64);
    let mut flags = 0u8;
    flags |= u8::from(m.quic_reachable);
    flags |= u8::from(m.quic.is_some()) << 1;
    flags |= u8::from(m.tcp.is_some()) << 2;
    flags |= u8::from(m.trace.is_some()) << 3;
    buf.push(flags);
    if let Some(quic) = &m.quic {
        encode_quic_report(buf, dict, quic);
    }
    if let Some(tcp) = &m.tcp {
        encode_tcp_report(buf, tcp);
    }
    if let Some(trace) = &m.trace {
        encode_trace(buf, dict, trace);
    }
}

/// Decode one measurement record against the segment's dictionaries into
/// a new slot at the end of `out`: the record's skeleton — host id,
/// reachability, no sections — is pushed first and each section it holds is
/// then decoded into that slot, so the 400-byte value is never built
/// elsewhere and moved.  The host id must lie above `after`.
///
/// On `Err` the slot may hold a partial record; [`decode_block_into`]
/// truncates it away.
fn decode_measurement_into(
    r: &mut ByteReader<'_>,
    dicts: &Dicts,
    after: Option<usize>,
    out: &mut Vec<HostMeasurement>,
) -> Result<(), StoreError> {
    let host_id = r.varint()? as usize;
    let flags = r.u8()?;
    if flags & 0xf0 != 0 {
        return Err(StoreError::Corrupt(format!(
            "unknown measurement flags {flags:#04x} for host {host_id}"
        )));
    }
    if let Some(last) = after.filter(|&last| host_id <= last) {
        return Err(StoreError::Corrupt(format!(
            "host id {host_id} follows host id {last}"
        )));
    }
    out.push(HostMeasurement {
        host_id,
        quic_reachable: flags & 1 != 0,
        quic: None,
        tcp: None,
        trace: None,
    });
    if let Some(m) = out.last_mut() {
        if flags & (1 << 1) != 0 {
            m.quic = Some(decode_quic_report(r, dicts)?);
        }
        if flags & (1 << 2) != 0 {
            m.tcp = Some(decode_tcp_report(r)?);
        }
        if flags & (1 << 3) != 0 {
            m.trace = Some(decode_trace(r, dicts)?);
        }
    }
    Ok(())
}

/// A batch of measurements encoded as a self-contained block — dictionaries
/// first, then the record count, then the records — before it is laid out:
/// the records are encoded (filling the dictionaries) ahead of the bytes
/// that precede them, so [`EncodedBlock::len`] knows the block's exact size
/// and a caller allocates the buffer that holds it once.
pub(crate) struct EncodedBlock {
    dict: DictBuilder,
    count: usize,
    records: Vec<u8>,
}

impl EncodedBlock {
    /// Encode `measurements`, interning their strings and ASNs.
    pub(crate) fn new(measurements: &[HostMeasurement]) -> EncodedBlock {
        let mut dict = DictBuilder::default();
        let mut records = Vec::new();
        for m in measurements {
            encode_measurement(&mut records, &mut dict, m);
        }
        EncodedBlock {
            dict,
            count: measurements.len(),
            records,
        }
    }

    /// The block's length in bytes: what [`EncodedBlock::write_to`] appends.
    pub(crate) fn len(&self) -> usize {
        self.dict.encoded_len() + varint_len(self.count as u64) + self.records.len()
    }

    /// Append the block to `buf`.
    pub(crate) fn write_to(&self, buf: &mut Vec<u8>) {
        self.dict.encode(buf);
        write_varint(buf, self.count as u64);
        buf.extend_from_slice(&self.records);
    }
}

/// Encode a batch of measurements as a self-contained block — dictionaries
/// first, then the record count, then the records — in a buffer allocated
/// once at its exact size.  This is the payload of a segment file
/// ([`crate::segment`] adds framing and the checksum).
// lint: allow(unused-pub) benchmark: its store probe times the block codec
pub fn encode_block(measurements: &[HostMeasurement]) -> Vec<u8> {
    let block = EncodedBlock::new(measurements);
    let mut bytes = Vec::with_capacity(block.len());
    block.write_to(&mut bytes);
    bytes
}

/// The record count a block declares after its dictionaries.  Every record
/// takes at least two bytes — its host-id varint and its flag byte — so a
/// count above half of what is left is corrupt, and no count read from disk
/// sizes an allocation the bytes could not fill.
fn record_count(r: &mut ByteReader<'_>) -> Result<usize, StoreError> {
    let count = r.varint()?;
    match usize::try_from(count) {
        Ok(count) if count <= r.remaining() / 2 => Ok(count),
        _ => Err(StoreError::Corrupt(format!(
            "a block of {} record bytes cannot hold {count} records",
            r.remaining()
        ))),
    }
}

/// The record count of a block produced by [`encode_block`], read without
/// decoding a record or allocating: the dictionaries are stepped over
/// (string bytes and ASN varints skipped), then the count varint is read.
pub(crate) fn block_record_count(data: &[u8]) -> Result<u64, StoreError> {
    let mut r = ByteReader::new(data);
    for _ in 0..r.varint()? {
        let len = r.varint()? as usize;
        r.bytes(len)?;
    }
    for _ in 0..r.varint()? {
        r.varint()?;
    }
    Ok(record_count(&mut r)? as u64)
}

/// Decode a block produced by [`encode_block`] onto the end of `out` — the
/// store's one block decoder.
///
/// Host ids must rise strictly from record to record, starting above
/// `after` (the last host id the caller already holds, if the block
/// continues a sequence): the writer never produces anything else, so a
/// block that does is corrupt, not something to re-sort.
///
/// All or nothing: on `Err`, `out` is truncated back to its length on entry
/// and keeps its capacity, so a caller may lend one buffer to many blocks.
pub fn decode_block_into(
    data: &[u8],
    after: Option<usize>,
    out: &mut Vec<HostMeasurement>,
) -> Result<(), StoreError> {
    let start = out.len();
    let decoded = decode_records(data, after, out);
    if decoded.is_err() {
        out.truncate(start);
    }
    decoded
}

fn decode_records(
    data: &[u8],
    after: Option<usize>,
    out: &mut Vec<HostMeasurement>,
) -> Result<(), StoreError> {
    let mut r = ByteReader::new(data);
    let dicts = Dicts::decode(&mut r)?;
    let count = record_count(&mut r)?;
    out.reserve(count);
    let mut last = after;
    for _ in 0..count {
        decode_measurement_into(&mut r, &dicts, last, out)?;
        last = out.last().map(|m| m.host_id);
    }
    dicts.expect_all_used()?;
    if !r.is_empty() {
        return Err(StoreError::Corrupt(format!(
            "{} trailing bytes after the last record",
            data.len() - r.position()
        )));
    }
    Ok(())
}

/// Decode a block produced by [`encode_block`] into a new `Vec`.
// lint: allow(unused-pub) benchmark: its store probe times the block codec
pub fn decode_block(data: &[u8]) -> Result<Vec<HostMeasurement>, StoreError> {
    let mut out = Vec::new();
    decode_block_into(data, None, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> ClientReport {
        ClientReport {
            connected: true,
            response: Some(HttpResponse {
                status: 200,
                server: Some("LiteSpeed/6.0".to_string()),
                via: None,
                alt_svc: Some("h3=\":443\"".to_string()),
                body_len: 2048,
            }),
            version: QuicVersion::Draft(29),
            server_transport_params: Some(TransportParameters::client_default()),
            transport_fingerprint: Some(0xdead_beef_cafe),
            ecn_state: EcnValidationState::Failed(EcnValidationFailure::Undercount),
            peer_mirrored: true,
            mirrored_counts: EcnCounts {
                ect0: 10,
                ect1: 0,
                ce: 1,
            },
            sent_counts: EcnCounts {
                ect0: 12,
                ect1: 0,
                ce: 0,
            },
            received_ecn: EcnCounts {
                ect0: 0,
                ect1: 0,
                ce: 0,
            },
            server_used_ecn: false,
            error: None,
        }
    }

    fn sample_measurement(host_id: usize) -> HostMeasurement {
        HostMeasurement {
            host_id,
            quic_reachable: true,
            quic: Some(sample_report()),
            tcp: Some(TcpReport {
                connected: true,
                negotiated: true,
                ce_mirrored: false,
                cwr_acknowledged: false,
                received_ecn: EcnCounts::ZERO,
                server_observed_ecn: EcnCounts {
                    ect0: 9,
                    ect1: 0,
                    ce: 0,
                },
                server_used_ecn: false,
                response_received: true,
                forward_losses: 1,
            }),
            trace: Some(TraceAnalysis {
                changes: vec![EcnChange {
                    from: EcnCodepoint::Ect0,
                    to: EcnCodepoint::Ect1,
                    visible_at_ttl: 7,
                    last_unchanged_router: Some("10.1.2.3".parse().unwrap()),
                    asn_before: Some(Asn(1299)),
                    first_changed_router: Some("2001:db8::7".parse().unwrap()),
                    asn_at_change: Some(Asn(174)),
                }],
                verdict: PathVerdict::RemarkedToEct1,
                final_observed: Some(EcnCodepoint::Ect1),
                dscp_rewritten_only: false,
            }),
        }
    }

    #[test]
    fn a_full_record_round_trips() {
        let m = sample_measurement(42);
        let decoded = decode_block(&encode_block(std::slice::from_ref(&m))).unwrap();
        assert_eq!(decoded, vec![m]);
    }

    #[test]
    fn a_minimal_record_round_trips() {
        let m = HostMeasurement {
            host_id: 0,
            quic_reachable: false,
            quic: None,
            tcp: None,
            trace: None,
        };
        let decoded = decode_block(&encode_block(std::slice::from_ref(&m))).unwrap();
        assert_eq!(decoded, vec![m]);
    }

    #[test]
    fn dictionaries_deduplicate_repeated_strings() {
        let hosts: Vec<HostMeasurement> = (0..100).map(sample_measurement).collect();
        let block = encode_block(&hosts);
        let one = encode_block(&hosts[..1]);
        // 100 identical-shape records must cost measurably less than 100
        // single-record blocks: every string and ASN is stored once per
        // segment instead of once per record.
        assert!(
            block.len() < one.len() * hosts.len() * 4 / 5,
            "block {} vs naive {}",
            block.len(),
            one.len() * hosts.len()
        );
        assert_eq!(decode_block(&block).unwrap(), hosts);
    }

    /// A one-record block of `m`, its strings interned into `dict` — which
    /// may hold entries already — and `dict` then changed by `tweak`.
    fn block_over(
        mut dict: DictBuilder,
        m: &HostMeasurement,
        tweak: impl FnOnce(&mut DictBuilder),
    ) -> Vec<u8> {
        let mut records = Vec::new();
        encode_measurement(&mut records, &mut dict, m);
        tweak(&mut dict);
        let mut block = Vec::new();
        dict.encode(&mut block);
        write_varint(&mut block, 1);
        block.extend_from_slice(&records);
        block
    }

    #[test]
    fn a_block_has_one_encoding() {
        let m = sample_measurement(3);
        let block = block_over(DictBuilder::default(), &m, |_| {});
        assert_eq!(block, encode_block(std::slice::from_ref(&m)));
        assert_eq!(decode_block(&block).unwrap(), vec![m.clone()]);

        // An entry no record references.
        let unused = block_over(DictBuilder::default(), &m, |dict| {
            dict.intern_str("never referenced");
        });
        assert!(decode_block(&unused).is_err());
        // An entry referenced before the one ahead of it: `alt-svc` interned
        // first, so the record's first reference is to entry 1.
        let mut seeded = DictBuilder::default();
        seeded.intern_str("h3=\":443\"");
        assert!(decode_block(&block_over(seeded, &m, |_| {})).is_err());
        // One value twice, each copy referenced.
        let twice = block_over(DictBuilder::default(), &m, |dict| {
            dict.strings[1] = dict.strings[0].clone();
        });
        assert!(decode_block(&twice).is_err());

        // A DSCP-rewrite flag other than 0 or 1: the record's last byte.
        let mut flag = encode_block(std::slice::from_ref(&m));
        *flag.last_mut().unwrap() = 2;
        assert!(decode_block(&flag).is_err());
    }

    #[test]
    fn a_failed_decode_leaves_the_callers_vec_as_it_was() {
        let held: Vec<HostMeasurement> = (0..3).map(sample_measurement).collect();
        let hosts: Vec<HostMeasurement> = (10..14).map(sample_measurement).collect();
        let block = encode_block(&hosts);
        let mut cut = block.clone();
        cut.pop();
        // The last record's last byte, the DSCP-rewrite flag, out of range.
        let mut damaged = block.clone();
        *damaged.last_mut().unwrap() = 2;
        // A middle record's validation tag out of range, found after its
        // response strings decoded: the one byte by which the block differs
        // from one whose record is still `Testing`.
        let mut testing = hosts.clone();
        if let Some(quic) = testing[1].quic.as_mut() {
            quic.ecn_state = EcnValidationState::Testing;
        }
        let other = encode_block(&testing);
        let differ: Vec<usize> = (0..block.len()).filter(|&i| block[i] != other[i]).collect();
        assert_eq!(differ.len(), 1);
        let mut bad_tag = block.clone();
        bad_tag[differ[0]] = 9;
        for bad in [&cut, &damaged, &bad_tag] {
            let mut out = Vec::with_capacity(16);
            out.extend_from_slice(&held);
            let (ptr, capacity) = (out.as_ptr(), out.capacity());
            assert!(decode_block_into(bad, Some(2), &mut out).is_err());
            assert_eq!(out, held);
            assert_eq!((out.as_ptr(), out.capacity()), (ptr, capacity));
        }
        // Host ids continue from `after` or the block is refused whole.
        for after in [10, 11, 100] {
            let mut out = held.clone();
            let refused = decode_block_into(&block, Some(after), &mut out);
            assert!(matches!(refused, Err(StoreError::Corrupt(m)) if m.contains("follows")));
            assert_eq!(out, held);
        }
        let mut out = held.clone();
        decode_block_into(&block, Some(9), &mut out).unwrap();
        assert_eq!(out, [held, hosts].concat());
    }

    #[test]
    fn an_encoded_block_knows_its_exact_length() {
        let mut hosts: Vec<HostMeasurement> = (0..40).map(sample_measurement).collect();
        if let Some(trace) = hosts[7].trace.as_mut() {
            trace.changes[0].asn_before = Some(Asn(u32::MAX));
        }
        if let Some(quic) = hosts[9].quic.as_mut() {
            quic.error = Some("é".repeat(200));
        }
        for hosts in [&hosts[..0], &hosts[..1], &hosts[..]] {
            let block = EncodedBlock::new(hosts);
            let mut bytes = Vec::new();
            block.write_to(&mut bytes);
            assert_eq!(block.len(), bytes.len());
            assert_eq!(encode_block(hosts), bytes);
        }
    }

    #[test]
    fn a_block_cannot_declare_more_records_than_it_has_bytes_for() {
        let mut block = Vec::new();
        DictBuilder::default().encode(&mut block);
        write_varint(&mut block, 3);
        block.extend_from_slice(&[0, 0, 1, 0, 2]);
        assert!(block_record_count(&block).is_err());
        assert!(decode_block(&block).is_err());
        block.push(0);
        assert_eq!(block_record_count(&block).unwrap(), 3);
        assert_eq!(decode_block(&block).unwrap().len(), 3);
    }

    #[test]
    fn distinct_entries_are_found_at_any_size() {
        for n in [0u32, 1, 2, 64, 65, 1000] {
            let mut entries: Vec<u32> = (0..n).collect();
            assert!(distinct(&entries));
            if let Some(&first) = entries.first() {
                entries.push(first);
                assert!(!distinct(&entries));
            }
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut block = encode_block(&[sample_measurement(1)]);
        block.push(0);
        assert!(matches!(decode_block(&block), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn every_validation_state_round_trips() {
        for tag in 0..=8u8 {
            let state = validation_state_from_tag(tag).unwrap();
            assert_eq!(validation_state_tag(state), tag);
        }
        assert!(validation_state_from_tag(9).is_err());
    }

    #[test]
    fn every_verdict_round_trips() {
        for tag in 0..=5u8 {
            assert_eq!(verdict_tag(verdict_from_tag(tag).unwrap()), tag);
        }
        assert!(verdict_from_tag(6).is_err());
    }
}

//! The cluster wire format: length-prefixed frames carrying record
//! batches and control messages across node boundaries.
//!
//! NebulaStream workers exchange serialized TupleBuffers plus control
//! messages over the network; this module is the analogue for the
//! [`crate::cluster`] runtime. A [`Frame`] is either a batch of records,
//! a watermark advance, end-of-stream, a checkpoint barrier, or a
//! telemetry snapshot.
//!
//! ## Encoding
//!
//! Frames are length-prefixed: a little-endian `u32` body length, one
//! frame-type byte, then the body. Record batches are *schema-typed*:
//! both channel endpoints know the channel's schema (fixed when the
//! placed plan is deployed), so values are encoded without per-value
//! type tags — a `u8` field count, a null bitmap, then the non-null
//! values in field order using their schema type's layout. This keeps
//! measured wire bytes close to [`crate::record::Record::est_bytes`]
//! (the analytic estimator behind `topology::network_cost`): numeric
//! payloads match exactly, and the per-record overhead is the field
//! count plus the bitmap.
//!
//! Two value/schema flexibilities mirror the engine's accessor rules
//! ([`Value::as_int`] / [`Value::as_timestamp`] accept either variant):
//! an `INT` column accepts a `Timestamp` value and a `TIMESTAMP` column
//! accepts an `Int` value; decoding normalizes to the schema's variant.
//! Any other variant mismatch is a [`NebulaError::Wire`] error.
//!
//! ## Opaque payloads
//!
//! Plugin values ([`Value::Opaque`], e.g. MEOS temporal sequences) are
//! encoded through a [`WireRegistry`] of [`OpaqueWireCodec`]s keyed by
//! the value's type tag — the wire half of the plugin seam. A payload
//! whose tag has no registered codec fails encoding with a clear error
//! instead of being silently dropped.
//!
//! ## Robustness
//!
//! Decoding never panics on malformed input: every read is
//! bounds-checked, declared lengths are validated against the remaining
//! buffer, and trailing garbage is rejected — corrupted frames surface
//! as [`NebulaError::Wire`] errors (see the `prop_wire` property suite).

use crate::error::{NebulaError, Result};
use crate::record::Record;
use crate::schema::Schema;
use crate::value::{DataType, EventTime, OpaqueValue, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// A unit of transmission between cluster sites.
#[derive(Debug, Clone)]
pub enum Frame {
    /// A batch of records (the channel schema gives their layout).
    Data(Vec<Record>),
    /// Control: no record with event time `< wm` will arrive anymore.
    Watermark(EventTime),
    /// Control: the upstream site has flushed its state and finished.
    Eos,
    /// Control: checkpoint barrier — everything before this marker
    /// belongs to checkpoint epoch `.0`. Sites snapshot their operator
    /// state when the barrier passes; the cloud aligns barriers across
    /// pipes before snapshotting (Chandy–Lamport style consistent cut).
    Barrier(u64),
    /// Out-of-band telemetry: a periodic per-node snapshot shipped to
    /// the cloud for fan-in next to the query results. Relay sites
    /// forward it unchanged; it never affects data or progress.
    Telemetry(crate::telemetry::NodeSnapshot),
}

const FRAME_DATA: u8 = 0;
const FRAME_WATERMARK: u8 = 1;
const FRAME_EOS: u8 = 2;
const FRAME_BARRIER: u8 = 4;
const FRAME_TELEMETRY: u8 = 5;

/// Serializes one plugin type for wire transport — the codec counterpart
/// of [`OpaqueValue`]. Implementations live with the plugin that owns
/// the type (e.g. `nebulameos` provides codecs for MEOS temporals).
pub trait OpaqueWireCodec: Send + Sync {
    /// The [`OpaqueValue::type_tag`] this codec handles.
    fn tag(&self) -> &'static str;
    /// Appends the payload encoding of `value` to `out`.
    fn encode(&self, value: &dyn OpaqueValue, out: &mut Vec<u8>) -> Result<()>;
    /// Rebuilds the value from its payload encoding.
    fn decode(&self, bytes: &[u8]) -> Result<Arc<dyn OpaqueValue>>;
}

/// Codec lookup by opaque type tag; cheap to clone (codecs are shared).
#[derive(Default, Clone)]
pub struct WireRegistry {
    codecs: HashMap<&'static str, Arc<dyn OpaqueWireCodec>>,
}

impl WireRegistry {
    /// An empty registry (sufficient for primitive-only schemas).
    pub fn new() -> Self {
        WireRegistry::default()
    }

    /// Registers a codec, replacing any previous codec for its tag.
    pub fn register(&mut self, codec: Arc<dyn OpaqueWireCodec>) {
        self.codecs.insert(codec.tag(), codec);
    }

    /// The tags with registered codecs, sorted (capability reporting).
    pub fn tags(&self) -> Vec<&str> {
        let mut tags: Vec<&str> = self.codecs.keys().copied().collect();
        tags.sort_unstable();
        tags
    }

    /// The codec for `tag`, or a wire error naming the missing tag.
    fn get(&self, tag: &str) -> Result<&Arc<dyn OpaqueWireCodec>> {
        self.codecs.get(tag).ok_or_else(|| {
            NebulaError::Wire(format!("no wire codec registered for opaque type '{tag}'"))
        })
    }
}

impl std::fmt::Debug for WireRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut tags: Vec<&str> = self.codecs.keys().copied().collect();
        tags.sort_unstable();
        write!(f, "WireRegistry{tags:?}")
    }
}

fn corrupt(msg: impl Into<String>) -> NebulaError {
    NebulaError::Wire(msg.into())
}

/// Encodes a frame for a channel whose records follow `schema`.
pub fn encode_frame(frame: &Frame, schema: &Schema, registry: &WireRegistry) -> Result<Vec<u8>> {
    let mut body = Vec::with_capacity(64);
    match frame {
        Frame::Data(records) => {
            body.push(FRAME_DATA);
            body.extend_from_slice(&(records.len() as u32).to_le_bytes());
            for rec in records {
                encode_record(rec, schema, registry, &mut body)?;
            }
        }
        Frame::Watermark(wm) => {
            body.push(FRAME_WATERMARK);
            body.extend_from_slice(&wm.to_le_bytes());
        }
        Frame::Eos => body.push(FRAME_EOS),
        Frame::Barrier(epoch) => {
            body.push(FRAME_BARRIER);
            body.extend_from_slice(&epoch.to_le_bytes());
        }
        Frame::Telemetry(snap) => {
            body.push(FRAME_TELEMETRY);
            body.extend_from_slice(&snap.origin.to_le_bytes());
            body.extend_from_slice(&snap.seq.to_le_bytes());
            body.extend_from_slice(&snap.at_us.to_le_bytes());
            body.extend_from_slice(&snap.records_in.to_le_bytes());
            body.extend_from_slice(&snap.records_out.to_le_bytes());
            body.extend_from_slice(&snap.queue_depth.to_le_bytes());
            body.extend_from_slice(&snap.frontier_lag_us.to_le_bytes());
            match snap.frontier {
                Some(f) => {
                    body.push(1);
                    body.extend_from_slice(&f.to_le_bytes());
                }
                None => body.push(0),
            }
            body.extend_from_slice(&(snap.node.len() as u32).to_le_bytes());
            body.extend_from_slice(snap.node.as_bytes());
        }
    }
    let mut out = Vec::with_capacity(body.len() + 4);
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&body);
    Ok(out)
}

fn encode_record(
    rec: &Record,
    schema: &Schema,
    registry: &WireRegistry,
    out: &mut Vec<u8>,
) -> Result<()> {
    let n = schema.len();
    if n > u8::MAX as usize {
        return Err(NebulaError::Wire(format!(
            "schema too wide for the wire format: {n} fields (max 255)"
        )));
    }
    if rec.len() != n {
        return Err(NebulaError::Wire(format!(
            "record has {} fields, channel schema {n}",
            rec.len()
        )));
    }
    out.push(n as u8);
    let bitmap_at = out.len();
    out.resize(bitmap_at + n.div_ceil(8), 0);
    for (i, v) in rec.values().iter().enumerate() {
        if !v.is_null() {
            out[bitmap_at + i / 8] |= 1 << (i % 8);
        }
    }
    for (field, v) in schema.fields().iter().zip(rec.values()) {
        if v.is_null() {
            continue;
        }
        encode_value(v, field.dtype, registry, out)
            .map_err(|e| NebulaError::Wire(format!("column '{}': {e}", field.name)))?;
    }
    Ok(())
}

fn encode_value(
    v: &Value,
    dtype: DataType,
    registry: &WireRegistry,
    out: &mut Vec<u8>,
) -> Result<()> {
    let mismatch = || {
        NebulaError::Wire(format!(
            "{dtype} column cannot carry value '{v}' ({})",
            v.data_type()
        ))
    };
    match dtype {
        DataType::Bool => out.push(v.as_bool().ok_or_else(mismatch)? as u8),
        DataType::Int | DataType::Timestamp => {
            // Mirrors `as_int`/`as_timestamp`: either integer-family
            // variant travels; decode normalizes to the schema type.
            let i = match v {
                Value::Int(i) | Value::Timestamp(i) => *i,
                _ => return Err(mismatch()),
            };
            out.extend_from_slice(&i.to_le_bytes());
        }
        DataType::Float => match v {
            Value::Float(f) => out.extend_from_slice(&f.to_bits().to_le_bytes()),
            _ => return Err(mismatch()),
        },
        DataType::Text => match v {
            Value::Text(s) => {
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            _ => return Err(mismatch()),
        },
        DataType::Point => match v {
            Value::Point { x, y } => {
                out.extend_from_slice(&x.to_bits().to_le_bytes());
                out.extend_from_slice(&y.to_bits().to_le_bytes());
            }
            _ => return Err(mismatch()),
        },
        DataType::Opaque => match v {
            Value::Opaque(o) => {
                let codec = registry.get(o.type_tag())?;
                let tag = codec.tag().as_bytes();
                out.extend_from_slice(&(tag.len() as u16).to_le_bytes());
                out.extend_from_slice(tag);
                let len_at = out.len();
                out.extend_from_slice(&[0; 4]);
                codec.encode(o.as_ref(), out)?;
                let payload_len = (out.len() - len_at - 4) as u32;
                out[len_at..len_at + 4].copy_from_slice(&payload_len.to_le_bytes());
            }
            _ => return Err(mismatch()),
        },
        // A NULL-typed column only ever carries nulls, which the bitmap
        // already encodes; a non-null value here is a contract breach.
        DataType::Null => return Err(mismatch()),
    }
    Ok(())
}

/// Bounds-checked reader over an encoded frame.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(corrupt(format!(
                "truncated frame: need {n} bytes, {} left",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// The next `N` bytes as a fixed-width array, for little-endian
    /// number fields.
    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        self.take(N)?
            .try_into()
            .map_err(|_| corrupt(format!("field is not {N} bytes wide")))
    }

    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A length field that must fit in the remaining buffer (rejects
    /// absurd lengths before any allocation).
    fn checked_len(&mut self) -> Result<usize> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err(corrupt(format!(
                "declared length {n} exceeds remaining {} bytes",
                self.remaining()
            )));
        }
        Ok(n)
    }
}

/// Decodes a frame produced by [`encode_frame`] for the same schema.
/// Corrupted input returns [`NebulaError::Wire`]; it never panics.
pub fn decode_frame(bytes: &[u8], schema: &Schema, registry: &WireRegistry) -> Result<Frame> {
    let mut c = Cursor::new(bytes);
    let len = c.u32()? as usize;
    if len != c.remaining() {
        return Err(corrupt(format!(
            "frame length {len} does not match body length {}",
            c.remaining()
        )));
    }
    let frame = match c.u8()? {
        FRAME_DATA => {
            let count = c.u32()? as usize;
            // Every record needs at least its field count byte + bitmap.
            let min_per_record = 1 + schema.len().div_ceil(8);
            if count.saturating_mul(min_per_record) > c.remaining() {
                return Err(corrupt(format!(
                    "record count {count} impossible in {} bytes",
                    c.remaining()
                )));
            }
            let mut records = Vec::with_capacity(count);
            for _ in 0..count {
                records.push(decode_record(&mut c, schema, registry)?);
            }
            Frame::Data(records)
        }
        FRAME_WATERMARK => Frame::Watermark(c.i64()?),
        FRAME_EOS => Frame::Eos,
        FRAME_BARRIER => Frame::Barrier(c.u64()?),
        FRAME_TELEMETRY => {
            let origin = c.u64()?;
            let seq = c.u64()?;
            let at_us = c.u64()?;
            let records_in = c.u64()?;
            let records_out = c.u64()?;
            let queue_depth = c.u64()?;
            let frontier_lag_us = c.u64()?;
            let frontier = match c.u8()? {
                0 => None,
                1 => Some(c.i64()?),
                b => return Err(corrupt(format!("invalid frontier presence byte {b}"))),
            };
            let node_len = c.checked_len()?;
            let node = std::str::from_utf8(c.take(node_len)?)
                .map_err(|_| corrupt("node name is not valid UTF-8"))?
                .to_string();
            Frame::Telemetry(crate::telemetry::NodeSnapshot {
                origin,
                node,
                seq,
                at_us,
                records_in,
                records_out,
                queue_depth,
                frontier,
                frontier_lag_us,
            })
        }
        t => return Err(corrupt(format!("unknown frame type {t}"))),
    };
    if c.remaining() != 0 {
        return Err(corrupt(format!(
            "{} trailing bytes after frame body",
            c.remaining()
        )));
    }
    Ok(frame)
}

fn decode_record(c: &mut Cursor<'_>, schema: &Schema, registry: &WireRegistry) -> Result<Record> {
    let n = c.u8()? as usize;
    if n != schema.len() {
        return Err(corrupt(format!(
            "record declares {n} fields, channel schema has {}",
            schema.len()
        )));
    }
    let bitmap = c.take(n.div_ceil(8))?.to_vec();
    let mut values = Vec::with_capacity(n);
    for (i, field) in schema.fields().iter().enumerate() {
        if bitmap[i / 8] & (1 << (i % 8)) == 0 {
            values.push(Value::Null);
            continue;
        }
        let v = match field.dtype {
            DataType::Bool => match c.u8()? {
                0 => Value::Bool(false),
                1 => Value::Bool(true),
                b => return Err(corrupt(format!("invalid bool byte {b}"))),
            },
            DataType::Int => Value::Int(c.i64()?),
            DataType::Timestamp => Value::Timestamp(c.i64()?),
            DataType::Float => Value::Float(c.f64()?),
            DataType::Text => {
                let len = c.checked_len()?;
                let s = std::str::from_utf8(c.take(len)?)
                    .map_err(|_| corrupt("text payload is not valid UTF-8"))?;
                Value::text(s)
            }
            DataType::Point => Value::Point {
                x: c.f64()?,
                y: c.f64()?,
            },
            DataType::Opaque => {
                let tag_len = c.u16()? as usize;
                let tag = std::str::from_utf8(c.take(tag_len)?)
                    .map_err(|_| corrupt("opaque tag is not valid UTF-8"))?
                    .to_string();
                let payload_len = c.checked_len()?;
                let payload = c.take(payload_len)?;
                Value::Opaque(registry.get(&tag)?.decode(payload)?)
            }
            DataType::Null => {
                return Err(corrupt(format!(
                    "NULL-typed column '{}' marked non-null",
                    field.name
                )))
            }
        };
        values.push(v);
    }
    Ok(Record::new(values))
}

// ---------------------------------------------------------------------------
// Resilient link envelope
// ---------------------------------------------------------------------------
//
// Chaos-hardened cluster links wrap every transmission in an *envelope*
// carrying a per-link sequence number and a CRC32 checksum:
//
// ```text
// [kind u8][seq u64 le][crc u32 le][payload ...]
// ```
//
// `crc` covers the kind byte, the sequence number, and the payload, so
// corruption anywhere in the envelope is detected. The envelope is
// opt-in: legacy (non-chaos) cluster runs ship bare frames and their
// byte accounting is unchanged.

/// Envelope kind: a data-bearing frame (payload = encoded [`Frame`]).
pub const ENV_PAYLOAD: u8 = 0;
/// Envelope kind: cumulative acknowledgement (`seq` = highest delivered).
pub const ENV_ACK: u8 = 1;
/// Envelope kind: negative ack (`seq` = first missing sequence number).
pub const ENV_NACK: u8 = 2;
/// Envelope kind: liveness heartbeat (`seq` = sender's next sequence).
pub const ENV_HEARTBEAT: u8 = 3;

/// Fixed envelope overhead in bytes (kind + seq + crc).
pub const ENVELOPE_OVERHEAD: usize = 1 + 8 + 4;

/// CRC32 (IEEE 802.3, reflected) lookup table, built at compile time.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC32 checksum (IEEE polynomial) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

fn crc32_parts(kind: u8, seq: u64, payload: &[u8]) -> u32 {
    let mut head = [0u8; 9];
    head[0] = kind;
    head[1..9].copy_from_slice(&seq.to_le_bytes());
    let mut crc = !0u32;
    for &b in head.iter().chain(payload) {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// A decoded resilient-link envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// One of [`ENV_PAYLOAD`], [`ENV_ACK`], [`ENV_NACK`], [`ENV_HEARTBEAT`].
    pub kind: u8,
    /// Per-link sequence number (meaning depends on `kind`).
    pub seq: u64,
    /// Encoded frame bytes for [`ENV_PAYLOAD`]; empty for control kinds.
    pub payload: Vec<u8>,
}

/// Wraps `payload` in a checksummed, sequence-numbered envelope.
pub fn encode_envelope(kind: u8, seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(ENVELOPE_OVERHEAD + payload.len());
    out.push(kind);
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&crc32_parts(kind, seq, payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Decodes and verifies an envelope; a checksum mismatch (bit corruption
/// anywhere in the transmission) is a [`NebulaError::Wire`] error.
pub fn decode_envelope(bytes: &[u8]) -> Result<Envelope> {
    if bytes.len() < ENVELOPE_OVERHEAD {
        return Err(corrupt(format!(
            "envelope too short: {} bytes, need {ENVELOPE_OVERHEAD}",
            bytes.len()
        )));
    }
    let mut c = Cursor::new(bytes);
    let kind = c.u8()?;
    let seq = c.u64()?;
    let declared = c.u32()?;
    let payload = c.take(c.remaining())?;
    let actual = crc32_parts(kind, seq, payload);
    if declared != actual {
        return Err(corrupt(format!(
            "envelope checksum mismatch: declared {declared:#010x}, computed {actual:#010x}"
        )));
    }
    if kind > ENV_HEARTBEAT {
        return Err(corrupt(format!("unknown envelope kind {kind}")));
    }
    Ok(Envelope {
        kind,
        seq,
        payload: payload.to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn schema() -> crate::schema::SchemaRef {
        Schema::of(&[
            ("ts", DataType::Timestamp),
            ("id", DataType::Int),
            ("v", DataType::Float),
            ("name", DataType::Text),
            ("ok", DataType::Bool),
            ("pos", DataType::Point),
        ])
    }

    fn rec() -> Record {
        Record::new(vec![
            Value::Timestamp(1_000_000),
            Value::Int(-7),
            Value::Float(2.5),
            Value::text("α train"),
            Value::Bool(true),
            Value::Point { x: 4.35, y: 50.85 },
        ])
    }

    #[test]
    fn data_round_trip() {
        let reg = WireRegistry::new();
        let s = schema();
        let nulls = Record::new(vec![Value::Null; 6]);
        let frame = Frame::Data(vec![rec(), nulls.clone()]);
        let bytes = encode_frame(&frame, &s, &reg).unwrap();
        match decode_frame(&bytes, &s, &reg).unwrap() {
            Frame::Data(recs) => {
                assert_eq!(recs.len(), 2);
                assert_eq!(recs[0], rec());
                assert_eq!(recs[1], nulls);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn control_round_trips() {
        let reg = WireRegistry::new();
        let s = schema();
        for frame in [Frame::Watermark(-5), Frame::Eos, Frame::Barrier(7)] {
            let bytes = encode_frame(&frame, &s, &reg).unwrap();
            let back = decode_frame(&bytes, &s, &reg).unwrap();
            match (&frame, &back) {
                (Frame::Watermark(a), Frame::Watermark(b)) => assert_eq!(a, b),
                (Frame::Eos, Frame::Eos) => {}
                (Frame::Barrier(a), Frame::Barrier(b)) => assert_eq!(a, b),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn telemetry_frame_round_trips() {
        let reg = WireRegistry::new();
        let s = schema();
        for frontier in [None, Some(12_345_678i64), Some(-1)] {
            let snap = crate::telemetry::NodeSnapshot {
                origin: 3,
                node: "edge-α".to_string(),
                seq: 17,
                at_us: 250_000,
                records_in: 1_000,
                records_out: 900,
                queue_depth: 4,
                frontier,
                frontier_lag_us: 777,
            };
            let bytes = encode_frame(&Frame::Telemetry(snap.clone()), &s, &reg).unwrap();
            match decode_frame(&bytes, &s, &reg).unwrap() {
                Frame::Telemetry(back) => assert_eq!(back, snap),
                other => panic!("{other:?}"),
            }
            // Truncations never panic.
            for cut in 0..bytes.len() {
                let _ = decode_frame(&bytes[..cut], &s, &reg);
            }
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn envelope_round_trips_and_rejects_corruption() {
        let payload = b"hello frames".to_vec();
        let bytes = encode_envelope(ENV_PAYLOAD, 42, &payload);
        let env = decode_envelope(&bytes).unwrap();
        assert_eq!(env.kind, ENV_PAYLOAD);
        assert_eq!(env.seq, 42);
        assert_eq!(env.payload, payload);
        // Every single-bit flip anywhere in the envelope is detected.
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[i] ^= 1 << bit;
                assert!(decode_envelope(&bad).is_err(), "flip at byte {i} bit {bit}");
            }
        }
        // Truncations never panic.
        for cut in 0..bytes.len() {
            let _ = decode_envelope(&bytes[..cut]);
        }
    }

    #[test]
    fn control_envelopes_round_trip() {
        for kind in [ENV_ACK, ENV_NACK, ENV_HEARTBEAT] {
            let bytes = encode_envelope(kind, 9, &[]);
            let env = decode_envelope(&bytes).unwrap();
            assert_eq!((env.kind, env.seq), (kind, 9));
            assert!(env.payload.is_empty());
        }
    }

    #[test]
    fn wire_bytes_track_est_bytes() {
        // The schema-typed encoding keeps measured bytes within the
        // field-count + bitmap overhead of the analytic estimator.
        let reg = WireRegistry::new();
        let s = schema();
        let r = rec();
        let est = r.est_bytes();
        let bytes = encode_frame(&Frame::Data(vec![r]), &s, &reg).unwrap();
        let overhead = 4 + 1 + 4 + 1 + 1; // frame len+type+count, nfields, bitmap
        assert_eq!(bytes.len(), est + overhead);
    }

    #[test]
    fn integer_family_normalizes_to_schema_type() {
        let reg = WireRegistry::new();
        let s = Schema::of(&[("ts", DataType::Timestamp), ("n", DataType::Int)]);
        let frame = Frame::Data(vec![Record::new(vec![
            Value::Int(42),       // int in a timestamp column
            Value::Timestamp(99), // timestamp in an int column
        ])]);
        let bytes = encode_frame(&frame, &s, &reg).unwrap();
        match decode_frame(&bytes, &s, &reg).unwrap() {
            Frame::Data(recs) => {
                assert_eq!(recs[0].get(0), Some(&Value::Timestamp(42)));
                assert_eq!(recs[0].get(1), Some(&Value::Int(99)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn type_mismatch_is_an_error() {
        let reg = WireRegistry::new();
        let s = Schema::of(&[("v", DataType::Float)]);
        let frame = Frame::Data(vec![Record::new(vec![Value::text("nope")])]);
        let err = encode_frame(&frame, &s, &reg).unwrap_err();
        assert!(matches!(err, NebulaError::Wire(_)), "{err}");
    }

    #[test]
    fn missing_opaque_codec_is_an_error() {
        #[derive(Debug)]
        struct Blob;
        impl OpaqueValue for Blob {
            fn type_tag(&self) -> &'static str {
                "test.blob"
            }
            fn est_bytes(&self) -> usize {
                0
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn opaque_eq(&self, _other: &dyn OpaqueValue) -> bool {
                true
            }
        }
        let reg = WireRegistry::new();
        let s = Schema::of(&[("o", DataType::Opaque)]);
        let frame = Frame::Data(vec![Record::new(vec![Value::Opaque(Arc::new(Blob))])]);
        let err = encode_frame(&frame, &s, &reg).unwrap_err();
        assert!(err.to_string().contains("test.blob"), "{err}");
    }

    #[test]
    fn corrupted_frames_error_not_panic() {
        let reg = WireRegistry::new();
        let s = schema();
        let good = encode_frame(&Frame::Data(vec![rec()]), &s, &reg).unwrap();
        // Truncations at every length.
        for cut in 0..good.len() {
            let _ = decode_frame(&good[..cut], &s, &reg);
        }
        // Unknown frame type.
        let mut bad = good.clone();
        bad[4] = 200;
        assert!(decode_frame(&bad, &s, &reg).is_err());
        // Length lie.
        let mut bad = good.clone();
        bad[0] = bad[0].wrapping_add(1);
        assert!(decode_frame(&bad, &s, &reg).is_err());
        // Absurd record count must not allocate or panic.
        let mut bad = good;
        bad[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_frame(&bad, &s, &reg).is_err());
    }
}

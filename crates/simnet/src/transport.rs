//! Message types, flat report frames, and bandwidth accounting.
//!
//! The point of the paper's adaptive transmission is to cut communication
//! cost, so the simulation meters it: every measurement report is modelled
//! as a fixed header plus one `f64` per resource dimension, and a
//! [`Meter`] accumulates the totals delivered to the controller.
//!
//! Reports travel in one wire representation, the [`ReportFrame`]: node ids
//! plus contiguous values for one tick, recycled across ticks. Every driver
//! sends frames — one per shard per tick, or one per report where the fault
//! driver's degraded channel carries reports singly — and the controller
//! ingests nothing else. A frame is metered with one accounting call
//! ([`Meter::record_frame`]), and the controller validates it entry by
//! entry through the borrowed [`FrameEntry`] view ([`ReportFrame::iter`]).

use serde::{get_field, DeError, Deserialize, Serialize, Value};

/// Modelled header bytes per report (node id + timestamp + framing).
pub const HEADER_BYTES: u64 = 16;

/// A borrowed view of one entry of a [`ReportFrame`]: one report, as
/// ingress validation sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameEntry<'a> {
    /// Sending node index.
    pub node: usize,
    /// Time step of the measurement.
    pub t: usize,
    /// Measurement payload (one value per resource dimension).
    pub values: &'a [f64],
}

/// One tick's worth of reports from a shard, stored as flat buffers: node
/// ids in one vector, payload values contiguous in another (`width` values
/// per entry), so a report costs no allocation of its own. The buffers are
/// recycled across ticks via [`ReportFrame::reset`], so the steady state
/// allocates nothing.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ReportFrame {
    t: usize,
    width: usize,
    nodes: Vec<usize>,
    values: Vec<f64>,
    /// Delivery-layer sequence number, assigned by the sending edge when
    /// the at-least-once delivery plane is active; `None` on the classic
    /// direct path (and on the wire-parity fast path, where frames never
    /// need dedup).
    seq: Option<u64>,
    /// Index of the sending shard (the delivery plane's retransmission
    /// and ack state is per source).
    source: usize,
}

/// A decoded frame is outside input, so it is checked against what
/// [`ReportFrame::push`] keeps — a positive width and `width` values per
/// node id — before [`ReportFrame::iter`] chunks its payload by the width.
impl Deserialize for ReportFrame {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let entries = v
            .as_map()
            .ok_or_else(|| DeError::expected("struct ReportFrame", v))?;
        let frame = ReportFrame {
            t: usize::from_value(get_field(entries, "t"))?,
            width: usize::from_value(get_field(entries, "width"))?,
            nodes: Vec::from_value(get_field(entries, "nodes"))?,
            values: Vec::from_value(get_field(entries, "values"))?,
            seq: Option::from_value(get_field(entries, "seq"))?,
            source: usize::from_value(get_field(entries, "source"))?,
        };
        if frame.width == 0
            || frame.nodes.len().checked_mul(frame.width) != Some(frame.values.len())
        {
            return Err(DeError::new(format!(
                "report frame: {} values for {} nodes at width {}",
                frame.values.len(),
                frame.nodes.len(),
                frame.width
            )));
        }
        Ok(frame)
    }
}

impl ReportFrame {
    /// Creates an empty frame for `width`-dimensional payloads at tick 0.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0` (a report always carries at least one value).
    pub fn new(width: usize) -> Self {
        assert!(width > 0, "frame width must be positive");
        ReportFrame {
            t: 0,
            width,
            nodes: Vec::new(),
            values: Vec::new(),
            seq: None,
            source: 0,
        }
    }

    /// Creates an empty frame with capacity for `entries` reports.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn with_capacity(width: usize, entries: usize) -> Self {
        assert!(width > 0, "frame width must be positive");
        ReportFrame {
            t: 0,
            width,
            nodes: Vec::with_capacity(entries),
            values: Vec::with_capacity(entries * width),
            seq: None,
            source: 0,
        }
    }

    /// Clears the frame for tick `t`, keeping the buffer capacity — this
    /// is the recycling entry point drivers call once per tick. The
    /// delivery-layer sequence number is cleared (a recycled buffer is a
    /// new logical frame); the source shard index is kept, since a buffer
    /// is recycled within one shard.
    pub fn reset(&mut self, t: usize) {
        self.t = t;
        self.nodes.clear();
        self.values.clear();
        self.seq = None;
    }

    /// Appends one scalar report (the paper's per-resource mode).
    ///
    /// # Panics
    ///
    /// Panics if the frame width is not 1.
    #[inline]
    pub fn push_scalar(&mut self, node: usize, value: f64) {
        assert_eq!(self.width, 1, "push_scalar on a width-{} frame", self.width);
        self.nodes.push(node);
        self.values.push(value);
    }

    /// Appends one report with a `width`-dimensional payload.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the frame width.
    #[inline]
    pub fn push(&mut self, node: usize, values: &[f64]) {
        assert_eq!(
            values.len(),
            self.width,
            "payload length {} on a width-{} frame",
            values.len(),
            self.width
        );
        self.nodes.push(node);
        self.values.extend_from_slice(values);
    }

    /// The tick this frame belongs to.
    pub fn t(&self) -> usize {
        self.t
    }

    /// The delivery-layer sequence number, if one has been assigned.
    pub fn seq(&self) -> Option<u64> {
        self.seq
    }

    /// Assigns the delivery-layer sequence number.
    pub fn set_seq(&mut self, seq: u64) {
        self.seq = Some(seq);
    }

    /// The sending shard index (meaningful only under the delivery plane).
    pub fn source(&self) -> usize {
        self.source
    }

    /// Sets the sending shard index.
    pub fn set_source(&mut self, source: usize) {
        self.source = source;
    }

    /// Mutable view of the node ids — crate-internal, used by the link
    /// model's deterministic corruption injector.
    pub(crate) fn nodes_mut(&mut self) -> &mut [usize] {
        &mut self.nodes
    }

    /// Mutable view of the payload buffer — crate-internal, used by the
    /// link model's deterministic corruption injector.
    pub(crate) fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Payload values per entry.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of reports in the frame.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the frame holds no reports.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node ids, in push order.
    pub fn nodes(&self) -> &[usize] {
        &self.nodes
    }

    /// The contiguous payload buffer (`len() * width()` values).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Modelled wire size of the whole frame: [`HEADER_BYTES`] plus eight
    /// bytes per value for every entry.
    pub fn wire_bytes(&self) -> u64 {
        self.len() as u64 * (HEADER_BYTES + 8 * self.width as u64)
    }

    /// Iterates the frame as borrowed [`FrameEntry`] records in push
    /// order — the view the controller's ingress validation reads.
    pub fn iter(&self) -> impl Iterator<Item = FrameEntry<'_>> {
        let (t, width) = (self.t, self.width);
        self.nodes
            .iter()
            .zip(self.values.chunks_exact(width))
            .map(move |(&node, values)| FrameEntry { node, t, values })
    }
}

/// A point query against the forecast read plane: "node `node`'s forecast
/// at horizon index `horizon`" (`horizon + 1` steps ahead). The compact
/// fixed-width wire shape of the future network query endpoint: a
/// little-endian `u64` node id plus a `u32` horizon, decoded without
/// allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueryRequest {
    /// Queried node index.
    pub node: usize,
    /// Horizon index (`0`-based; index `h` answers `h + 1` steps ahead).
    pub horizon: usize,
}

impl QueryRequest {
    /// Encoded payload bytes: node (`u64` LE) + horizon (`u32` LE).
    pub const WIRE_BYTES: u64 = 12;

    /// Modelled wire size in bytes (header + payload), matching the
    /// [`ReportFrame::wire_bytes`] accounting convention.
    pub fn wire_bytes(&self) -> u64 {
        HEADER_BYTES + Self::WIRE_BYTES
    }

    /// Appends the fixed-width encoding to `out` (recycled buffers, no
    /// allocation beyond the buffer's own growth). A horizon beyond
    /// `u32::MAX` saturates: no table stores that many horizons, so the
    /// serving side rejects the saturated query exactly like the original.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.node as u64).to_le_bytes());
        let horizon = u32::try_from(self.horizon).unwrap_or(u32::MAX);
        out.extend_from_slice(&horizon.to_le_bytes());
    }

    /// Decodes a request from the start of `bytes`; `None` when the buffer
    /// is truncated or a field does not fit the platform's `usize`.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let node = u64::from_le_bytes(bytes.get(0..8)?.try_into().ok()?);
        let horizon = u32::from_le_bytes(bytes.get(8..12)?.try_into().ok()?);
        Some(QueryRequest {
            node: usize::try_from(node).ok()?,
            horizon: usize::try_from(horizon).ok()?,
        })
    }
}

/// The answer to a [`QueryRequest`], resolved from a published
/// [`ForecastTable`](utilcast_core::table::ForecastTable) in O(1): the
/// point forecast, its Gaussian interval half-width, and the table
/// generation it was served from (so clients can detect staleness across
/// retrains). Fixed-width little-endian encoding; floats travel as raw
/// IEEE-754 bits so the decoded value is bitwise identical to the served
/// one.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QueryResponse {
    /// Echoed node index.
    pub node: usize,
    /// Echoed horizon index.
    pub horizon: usize,
    /// Generation of the table that served the read.
    pub generation: u64,
    /// The point forecast (`cluster trajectory + node offset`).
    pub value: f64,
    /// Gaussian forecast-interval half-width (`value ± interval`); zero
    /// when the interval model was unfittable.
    pub interval: f64,
}

impl QueryResponse {
    /// Encoded payload bytes: node (`u64`) + horizon (`u32`) + generation
    /// (`u64`) + value (`f64` bits) + interval (`f64` bits), all LE.
    pub const WIRE_BYTES: u64 = 36;

    /// Modelled wire size in bytes (header + payload).
    pub fn wire_bytes(&self) -> u64 {
        HEADER_BYTES + Self::WIRE_BYTES
    }

    /// Resolves `request` against `table`: `None` when the node or horizon
    /// is out of the table's range (the serving layer's bounds check, so
    /// malformed queries never reach the panicking indexed reads).
    pub fn from_table(
        table: &utilcast_core::table::ForecastTable,
        request: &QueryRequest,
    ) -> Option<Self> {
        if request.node >= table.num_nodes() || request.horizon >= table.horizon() {
            return None;
        }
        Some(QueryResponse {
            node: request.node,
            horizon: request.horizon,
            generation: table.generation(),
            value: table.node_forecast(request.node, request.horizon),
            interval: table.node_interval(request.node, request.horizon),
        })
    }

    /// Appends the fixed-width encoding to `out`. Floats are encoded as
    /// raw bits, so encode/decode round-trips are bitwise exact (NaN
    /// payloads included).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.node as u64).to_le_bytes());
        let horizon = u32::try_from(self.horizon).unwrap_or(u32::MAX);
        out.extend_from_slice(&horizon.to_le_bytes());
        out.extend_from_slice(&self.generation.to_le_bytes());
        out.extend_from_slice(&self.value.to_bits().to_le_bytes());
        out.extend_from_slice(&self.interval.to_bits().to_le_bytes());
    }

    /// Decodes a response from the start of `bytes`; `None` when the
    /// buffer is truncated or a field does not fit the platform's `usize`.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let node = u64::from_le_bytes(bytes.get(0..8)?.try_into().ok()?);
        let horizon = u32::from_le_bytes(bytes.get(8..12)?.try_into().ok()?);
        let generation = u64::from_le_bytes(bytes.get(12..20)?.try_into().ok()?);
        let value = f64::from_bits(u64::from_le_bytes(bytes.get(20..28)?.try_into().ok()?));
        let interval = f64::from_bits(u64::from_le_bytes(bytes.get(28..36)?.try_into().ok()?));
        Some(QueryResponse {
            node: usize::try_from(node).ok()?,
            horizon: usize::try_from(horizon).ok()?,
            generation,
            value,
            interval,
        })
    }
}

/// Bandwidth meter: messages and modelled wire bytes delivered to the
/// controller.
#[derive(Debug, Clone, Default)]
pub struct Meter {
    messages: u64,
    bytes: u64,
}

impl Meter {
    /// Creates a zeroed meter.
    pub fn new() -> Self {
        Meter::default()
    }

    /// Records a whole frame in one call.
    pub fn record_frame(&mut self, frame: &ReportFrame) {
        self.messages += frame.len() as u64;
        self.bytes += frame.wire_bytes();
    }

    /// Total messages recorded.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Total bytes recorded.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_codec_round_trips_bitwise() {
        let request = QueryRequest {
            node: 123_456,
            horizon: 7,
        };
        let mut buf = Vec::new();
        request.encode_into(&mut buf);
        assert_eq!(buf.len() as u64, QueryRequest::WIRE_BYTES);
        assert_eq!(request.wire_bytes(), HEADER_BYTES + 12);
        assert_eq!(QueryRequest::decode(&buf), Some(request));

        let response = QueryResponse {
            node: 123_456,
            horizon: 7,
            generation: 42,
            value: 0.1 + 0.2, // a value with a non-trivial bit pattern
            interval: f64::MIN_POSITIVE,
        };
        buf.clear();
        response.encode_into(&mut buf);
        assert_eq!(buf.len() as u64, QueryResponse::WIRE_BYTES);
        assert_eq!(response.wire_bytes(), HEADER_BYTES + 36);
        let back = QueryResponse::decode(&buf).unwrap();
        assert_eq!(back.value.to_bits(), response.value.to_bits());
        assert_eq!(back.interval.to_bits(), response.interval.to_bits());
        assert_eq!(back, response);
        // Appending to a shared buffer decodes from the right offset.
        let mut shared = Vec::new();
        request.encode_into(&mut shared);
        response.encode_into(&mut shared);
        assert_eq!(
            QueryResponse::decode(&shared[QueryRequest::WIRE_BYTES as usize..]),
            Some(response)
        );
    }

    #[test]
    fn truncated_query_buffers_are_rejected() {
        let request = QueryRequest {
            node: 5,
            horizon: 2,
        };
        let response = QueryResponse {
            node: 5,
            horizon: 2,
            generation: 1,
            value: 0.5,
            interval: 0.0,
        };
        let mut buf = Vec::new();
        request.encode_into(&mut buf);
        for cut in 0..buf.len() {
            assert_eq!(QueryRequest::decode(&buf[..cut]), None, "cut {cut}");
        }
        buf.clear();
        response.encode_into(&mut buf);
        for cut in 0..buf.len() {
            assert_eq!(QueryResponse::decode(&buf[..cut]), None, "cut {cut}");
        }
        assert_eq!(QueryRequest::decode(&[]), None);
    }

    /// SplitMix64.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Feeds `encoded` (one message, then trailing bytes) to `decode`
    /// truncated at every byte and under seeded bit flips: below `width`
    /// bytes it must answer `None`, from there on a value whose encoding is
    /// the `width` bytes it consumed.
    fn assert_total<T: std::fmt::Debug>(
        encoded: &[u8],
        width: usize,
        seed: u64,
        decode: fn(&[u8]) -> Option<T>,
        encode: fn(&T, &mut Vec<u8>),
    ) {
        let check = |bytes: &[u8]| match decode(bytes) {
            None => assert!(bytes.len() < width, "{bytes:?} did not decode"),
            Some(value) => {
                let cut = bytes.len();
                assert!(cut >= width, "{value:?} decoded from {cut} bytes");
                let mut out = Vec::new();
                encode(&value, &mut out);
                assert_eq!(out, bytes[..width], "{value:?} re-encodes differently");
            }
        };
        for cut in 0..=encoded.len() {
            check(&encoded[..cut]);
        }
        let mut state = seed;
        for _ in 0..64 {
            let mut bytes = encoded.to_vec();
            for _ in 0..1 + next(&mut state) % 3 {
                let at = (next(&mut state) % bytes.len() as u64) as usize;
                bytes[at] ^= 1 << (next(&mut state) % 8);
            }
            check(&bytes);
        }
    }

    #[test]
    fn query_decoders_are_total_under_truncation_and_bit_flips() {
        let width = |w: u64| w as usize;
        for seed in 0..200u64 {
            let mut state = seed;
            let request = QueryRequest {
                node: next(&mut state) as usize,
                horizon: (next(&mut state) >> 32) as usize,
            };
            let response = QueryResponse {
                node: next(&mut state) as usize,
                horizon: (next(&mut state) >> 32) as usize,
                generation: next(&mut state),
                value: f64::from_bits(next(&mut state)),
                interval: f64::from_bits(next(&mut state)),
            };
            let tail = next(&mut state).to_le_bytes();
            let mut buf = Vec::new();
            request.encode_into(&mut buf);
            buf.extend_from_slice(&tail[..(seed % 9) as usize]);
            assert_total(
                &buf,
                width(QueryRequest::WIRE_BYTES),
                seed,
                QueryRequest::decode,
                QueryRequest::encode_into,
            );
            buf.clear();
            response.encode_into(&mut buf);
            buf.extend_from_slice(&tail[..(seed % 9) as usize]);
            assert_total(
                &buf,
                width(QueryResponse::WIRE_BYTES),
                seed,
                QueryResponse::decode,
                QueryResponse::encode_into,
            );
        }
    }

    #[test]
    fn frame_iter_yields_entries_in_push_order() {
        let mut frame = ReportFrame::with_capacity(1, 4);
        frame.reset(11);
        frame.push_scalar(0, 0.25);
        frame.push_scalar(4, 0.75);
        assert_eq!(frame.len(), 2);
        assert!(!frame.is_empty());
        assert_eq!(frame.t(), 11);
        let entries: Vec<_> = frame.iter().collect();
        assert_eq!(entries[0].node, 0);
        assert_eq!(entries[0].t, 11);
        assert_eq!(entries[0].values, &[0.25]);
        assert_eq!(entries[1].node, 4);
        assert_eq!(entries[1].values, &[0.75]);
        assert_eq!(entries.len(), 2);
    }

    #[test]
    fn frame_reset_recycles_capacity() {
        let mut frame = ReportFrame::with_capacity(1, 8);
        for i in 0..8 {
            frame.push_scalar(i, 0.5);
        }
        let node_cap = frame.nodes.capacity();
        let value_cap = frame.values.capacity();
        frame.reset(1);
        assert!(frame.is_empty());
        assert_eq!(frame.t(), 1);
        assert_eq!(frame.nodes.capacity(), node_cap);
        assert_eq!(frame.values.capacity(), value_cap);
    }

    #[test]
    #[should_panic(expected = "frame width must be positive")]
    fn zero_width_frame_rejected() {
        let _ = ReportFrame::new(0);
    }

    #[test]
    #[should_panic(expected = "payload length")]
    fn push_checks_width() {
        let mut frame = ReportFrame::new(2);
        frame.push(0, &[1.0]);
    }

    #[test]
    fn frame_survives_serde_round_trip() {
        let mut frame = ReportFrame::new(2);
        frame.reset(9);
        frame.push(1, &[0.1, 0.9]);
        let json = serde_json::to_string(&frame).unwrap();
        let back: ReportFrame = serde_json::from_str(&json).unwrap();
        assert_eq!(frame, back);
    }
}

//! The packed numeric columns of JSON-map checkpoints, read back, and the
//! base64 codec the checkpoint [`container`](crate::container) travels in.
//!
//! Before the container, a controller checkpoint was a JSON map whose
//! dense columns — the stored per-node values, their last-seen ticks, the
//! look-back values and labels, the centroid histories, the model weights —
//! were each written as **one JSON string** instead of an array of JSON
//! numbers. The `from_value` functions here read such a column back, and
//! are meant for the vendored derive's field attribute, e.g.
//! `#[serde(with = "utilcast_linalg::packed::f64s")]`:
//!
//! * [`f64s`] — the values' little-endian IEEE-754 bits in base64 (standard
//!   alphabet, `=`-padded): bit-exact for every value, NaN payloads, `-0.0`
//!   and subnormals included;
//! * [`labels`] — `usize` values at one of 1, 2, 4 or 8 little-endian
//!   bytes, the width in a tag: `"u8:…"`, `"u16:…"`, `"u32:…"`, `"u64:…"`;
//! * [`opt_labels`] — `Option<usize>` the same way, `None` as the all-ones
//!   word of the width;
//! * [`label_rows`] — a sequence of [`labels`] columns.
//!
//! Every decoder also accepts the column as the plain JSON array of the
//! checkpoints written before packing, so one reader restores both. Nothing
//! writes these forms any more: a checkpoint is written only as a
//! container. The decoders are total: a bad alphabet, bad padding, a length
//! that is not a whole number of words or a bad width tag is a
//! [`DeError`], and every allocation is sized from the input's own length.

use serde::{DeError, Deserialize, Value};

const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Marks a byte outside [`ALPHABET`] in [`DECODE`]: above every bit a
/// 24-bit group uses, so one OR over any run of quads tells whether a byte
/// in it was not a symbol.
const INVALID: u32 = 1 << 24;

/// The decoder's tables, one per place in a quad: entry `s` of table `i`
/// is symbol `s`'s six bits shifted to where the `i`-th symbol of a quad
/// sits in its 24-bit group, or [`INVALID`].
const DECODE: [[u32; 256]; 4] = {
    let mut tables = [[INVALID; 256]; 4];
    let mut six = 0;
    while six < 64 {
        let s = ALPHABET[six] as usize;
        let mut place = 0;
        while place < 4 {
            tables[place][s] = (six as u32) << (18 - 6 * place);
            place += 1;
        }
        six += 1;
    }
    tables
};

/// The encoder's table: the two base64 symbols of every 12-bit value.
const SYMBOL_PAIRS: [[u8; 2]; 4096] = {
    let mut pairs = [[0u8; 2]; 4096];
    let mut twelve = 0;
    while twelve < 4096 {
        pairs[twelve] = [ALPHABET[twelve >> 6], ALPHABET[twelve & 63]];
        twelve += 1;
    }
    pairs
};

/// The two symbols of the low twelve bits of `bits`.
fn symbol_pair(bits: u32) -> [u8; 2] {
    SYMBOL_PAIRS
        .get((bits & 0xFFF) as usize)
        .copied()
        .unwrap_or([b'A'; 2])
}

/// The four symbols of one whole 3-byte group.
fn encode_group(a: u8, b: u8, c: u8) -> [u8; 4] {
    let group = u32::from_be_bytes([0, a, b, c]);
    let ([s0, s1], [s2, s3]) = (symbol_pair(group >> 12), symbol_pair(group));
    [s0, s1, s2, s3]
}

/// Appends the base64 text of `bytes`, padding a final partial group.
/// Whole runs go six bytes — four 12-bit table lookups, eight symbols — at
/// a time.
pub(crate) fn encode_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    let start = out.len();
    let mut sixes = bytes.chunks_exact(6);
    let mut groups = sixes.remainder().chunks_exact(3);
    let symbols = (sixes.len() * 2 + groups.len()) * 4;
    out.resize(start + symbols, 0);
    let mut octets = out.get_mut(start..).unwrap_or_default().chunks_exact_mut(8);
    for (six, octet) in (&mut sixes).zip(&mut octets) {
        if let [a, b, c, d, e, f] = *six {
            let (high, low) = (
                u32::from_be_bytes([0, a, b, c]),
                u32::from_be_bytes([0, d, e, f]),
            );
            let ([s0, s1], [s2, s3]) = (symbol_pair(high >> 12), symbol_pair(high));
            let ([s4, s5], [s6, s7]) = (symbol_pair(low >> 12), symbol_pair(low));
            octet.copy_from_slice(&[s0, s1, s2, s3, s4, s5, s6, s7]);
        }
    }
    // At most one whole 3-byte group is left, and room for its four symbols.
    if let Some(&[a, b, c]) = groups.next() {
        octets
            .into_remainder()
            .copy_from_slice(&encode_group(a, b, c));
    }
    match *groups.remainder() {
        [a] => {
            let [s0, s1] = symbol_pair(u32::from(a) << 4);
            out.extend_from_slice(&[s0, s1, b'=', b'=']);
        }
        [a, b] => {
            let [s0, s1, s2, _] = encode_group(a, b, 0);
            out.extend_from_slice(&[s0, s1, s2, b'=']);
        }
        _ => {}
    }
}

/// Symbol `s`'s entry in the decoding table of one place in a quad.
fn decoded(table: &[u32; 256], s: u8) -> u32 {
    table.get(usize::from(s)).copied().unwrap_or(INVALID)
}

/// Decodes padded base64 `text`, rejecting any other alphabet, a length
/// that is not a multiple of four, padding anywhere but at the end, and
/// non-zero bits in a padded group. The error names the fault only; the
/// caller says what the text was.
pub(crate) fn decode_bytes(text: &str) -> Result<Vec<u8>, DeError> {
    let symbols = text.as_bytes();
    if !symbols.len().is_multiple_of(4) {
        return Err(DeError::new(format!(
            "{} base64 symbols is not a multiple of 4",
            symbols.len()
        )));
    }
    let [first, second, third, fourth] = &DECODE;
    let not_a_symbol = || {
        let bad = symbols
            .iter()
            .find(|&&s| s != b'=' && decoded(first, s) == INVALID)
            .map_or(b'=', |&s| s);
        DeError::new(format!(
            "`{}` is not a base64 symbol here",
            char::from(bad).escape_default()
        ))
    };
    let group = |quad: [u8; 4]| {
        let [a, b, c, d] = quad;
        decoded(first, a) | decoded(second, b) | decoded(third, c) | decoded(fourth, d)
    };
    // The last quad may be padded; the body goes eight symbols to six
    // bytes at a time.
    let (body, last) = symbols.split_at(symbols.len().saturating_sub(4));
    let mut octets = body.chunks_exact(8);
    // Room for the last quad's bytes too, so they never regrow the buffer.
    let mut out = Vec::with_capacity(body.len() / 4 * 3 + 3);
    out.resize(body.len() / 4 * 3, 0);
    let mut sixes = out.chunks_exact_mut(6);
    // The body's groups OR into one word, so a single test afterwards tells
    // whether any byte was outside the alphabet.
    let mut seen = 0u32;
    for (octet, six) in (&mut octets).zip(&mut sixes) {
        if let [a, b, c, d, e, f, g, h] = *octet {
            let (high, low) = (group([a, b, c, d]), group([e, f, g, h]));
            seen |= high | low;
            let ([_, s0, s1, s2], [_, s3, s4, s5]) = (high.to_be_bytes(), low.to_be_bytes());
            six.copy_from_slice(&[s0, s1, s2, s3, s4, s5]);
        }
    }
    if let Some(&[a, b, c, d]) = octets.remainder().get(..4) {
        let g = group([a, b, c, d]);
        seen |= g;
        let [_, x, y, z] = g.to_be_bytes();
        sixes.into_remainder().copy_from_slice(&[x, y, z]);
    }
    let (last, keep) = match *last {
        [a, b, b'=', b'='] => ([a, b, b'A', b'A'], 1),
        [a, b, c, b'='] => ([a, b, c, b'A'], 2),
        [a, b, c, d] => ([a, b, c, d], 3),
        _ => ([b'A'; 4], 0),
    };
    let g = group(last);
    if (seen | g) & INVALID != 0 {
        return Err(not_a_symbol());
    }
    let [_, x, y, z] = g.to_be_bytes();
    let tail = [x, y, z];
    // The bits under the padding must be zero, so a column has one text.
    if tail.iter().skip(keep).any(|&byte| byte != 0) {
        return Err(DeError::new("bad base64 padding"));
    }
    out.extend(tail.into_iter().take(keep));
    Ok(out)
}

/// The first `W` bytes of `bytes` as an array (zero-filled past its end).
pub(crate) fn word<const W: usize>(bytes: &[u8]) -> [u8; W] {
    if let Some(Ok(whole)) = bytes.get(..W).map(<[u8; W]>::try_from) {
        return whole;
    }
    let mut out = [0u8; W];
    out.iter_mut().zip(bytes).for_each(|(o, b)| *o = *b);
    out
}

/// A base64 fault inside a packed column, named as one.
fn column_fault(fault: DeError) -> DeError {
    DeError::new(format!("packed column: {fault}"))
}

/// Checks that `bytes` is a whole number of `width`-byte words.
fn whole_words(bytes: &[u8], width: usize, what: &str) -> Result<(), DeError> {
    if bytes.len().checked_rem(width) != Some(0) {
        return Err(DeError::new(format!(
            "packed {what}: {} bytes is not a whole number of {width}-byte words",
            bytes.len()
        )));
    }
    Ok(())
}

/// `f64` columns as base64 little-endian IEEE-754 bits.
pub mod f64s {
    use super::*;

    /// Reads a packed column, or a plain JSON array.
    ///
    /// # Errors
    ///
    /// [`DeError`] for anything else, a malformed base64 string, or one
    /// that does not decode to whole 8-byte words.
    pub fn from_value(v: &Value) -> Result<Vec<f64>, DeError> {
        let text = match v {
            Value::String(text) => text,
            Value::Seq(_) => return Vec::<f64>::from_value(v),
            other => return Err(DeError::expected("packed f64 column", other)),
        };
        let bytes = decode_bytes(text).map_err(column_fault)?;
        whole_words(&bytes, 8, "f64 column")?;
        Ok(bytes
            .chunks_exact(8)
            .map(|w| f64::from_le_bytes(word(w)))
            .collect())
    }
}

/// The all-ones word of a label width: `None` in an optional column.
fn all_ones(width: usize) -> u64 {
    u64::MAX >> (64 - 8 * width)
}

/// Decodes a tagged label column, handing each word (as `u64`) and the
/// all-ones word of the column's width to `each`.
fn decode_labels<T>(
    text: &str,
    each: impl Fn(u64, u64) -> Result<T, DeError>,
) -> Result<Vec<T>, DeError> {
    let (width, payload) = match text.split_once(':') {
        Some(("u8", payload)) => (1, payload),
        Some(("u16", payload)) => (2, payload),
        Some(("u32", payload)) => (4, payload),
        Some(("u64", payload)) => (8, payload),
        _ => {
            let tag = text.split(':').next().unwrap_or_default();
            return Err(DeError::new(format!(
                "packed label column: bad width tag `{}`",
                tag.escape_default()
            )));
        }
    };
    let bytes = decode_bytes(payload).map_err(column_fault)?;
    whole_words(&bytes, width, "label column")?;
    let none = all_ones(width);
    match width {
        1 => map_words::<1, T>(&bytes, |w| each(w, none)),
        2 => map_words::<2, T>(&bytes, |w| each(w, none)),
        4 => map_words::<4, T>(&bytes, |w| each(w, none)),
        _ => map_words::<8, T>(&bytes, |w| each(w, none)),
    }
}

/// `each` over the `W`-byte little-endian words of `bytes`.
fn map_words<const W: usize, T>(
    bytes: &[u8],
    each: impl Fn(u64) -> Result<T, DeError>,
) -> Result<Vec<T>, DeError> {
    let mut out = Vec::with_capacity(bytes.len().checked_div(W).unwrap_or(0));
    for w in bytes.chunks_exact(W) {
        out.push(each(u64::from_le_bytes(word(w)))?);
    }
    Ok(out)
}

/// A decoded word as a label.
fn label(word: u64) -> Result<usize, DeError> {
    usize::try_from(word)
        .map_err(|_| DeError::new(format!("packed label column: {word} does not fit a usize")))
}

/// `usize` label columns at the width their tag names.
pub mod labels {
    use super::*;

    /// Reads a tagged packed column, or a plain JSON array.
    ///
    /// # Errors
    ///
    /// [`DeError`] for anything else, a bad width tag, a malformed base64
    /// payload, or one that does not decode to whole words.
    pub fn from_value(v: &Value) -> Result<Vec<usize>, DeError> {
        match v {
            Value::String(text) => decode_labels(text, |w, _| label(w)),
            Value::Seq(_) => Vec::<usize>::from_value(v),
            other => Err(DeError::expected("packed label column", other)),
        }
    }
}

/// `Option<usize>` label columns, `None` as the width's all-ones word.
pub mod opt_labels {
    use super::*;

    /// Reads a tagged packed column, `None` as the width's all-ones word,
    /// or a plain JSON array.
    ///
    /// # Errors
    ///
    /// As [`labels::from_value`].
    pub fn from_value(v: &Value) -> Result<Vec<Option<usize>>, DeError> {
        match v {
            Value::String(text) => decode_labels(text, |w, none| {
                if w == none {
                    Ok(None)
                } else {
                    label(w).map(Some)
                }
            }),
            Value::Seq(_) => Vec::<Option<usize>>::from_value(v),
            other => Err(DeError::expected("packed optional label column", other)),
        }
    }
}

/// Sequences of [`labels`] columns (`Vec<Vec<usize>>`).
pub mod label_rows {
    use super::*;

    /// Reads a sequence of rows, each a [`labels`] column or a plain JSON
    /// array.
    ///
    /// # Errors
    ///
    /// [`DeError`] when `v` is not a sequence or a row fails
    /// [`labels::from_value`].
    pub fn from_value(v: &Value) -> Result<Vec<Vec<usize>>, DeError> {
        v.as_seq()
            .ok_or_else(|| DeError::expected("sequence of label columns", v))?
            .iter()
            .map(labels::from_value)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use serde::Serialize;

    fn bits(column: &[f64]) -> Vec<u64> {
        column.iter().map(|v| v.to_bits()).collect()
    }

    /// `prefix` and the base64 text of `bytes`: a packed column as a
    /// checkpoint written before the container held it.
    fn packed(prefix: &str, bytes: &[u8]) -> Value {
        let mut text = prefix.as_bytes().to_vec();
        encode_bytes(&mut text, bytes);
        Value::String(String::from_utf8(text).unwrap())
    }

    /// An `f64` column packed as its little-endian bits.
    fn packed_f64s(column: &[f64]) -> Value {
        let bytes: Vec<u8> = column.iter().flat_map(|v| v.to_le_bytes()).collect();
        packed("", &bytes)
    }

    /// A label column packed at `width` bytes behind its tag.
    fn packed_words(words: &[u64], width: usize) -> Value {
        let bytes: Vec<u8> = words
            .iter()
            .flat_map(|w| w.to_le_bytes().into_iter().take(width))
            .collect();
        packed(&format!("u{}:", 8 * width), &bytes)
    }

    #[test]
    fn f64_columns_keep_every_bit_pattern() {
        let column = [
            0.0,
            -0.0,
            1.5,
            -0.1,
            f64::from_bits(1),                     // smallest subnormal
            f64::MIN_POSITIVE / 3.0,               // subnormal
            f64::from_bits(0x7FF8_DEAD_BEEF_0001), // quiet NaN with a payload
            f64::from_bits(0xFFF0_0000_0000_0001), // negative signalling NaN
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
        ];
        for len in 0..=column.len() {
            let part = &column[..len];
            let back = f64s::from_value(&packed_f64s(part)).unwrap();
            assert_eq!(bits(&back), bits(part), "length {len}");
        }
        // The decimal form keeps neither the payload nor the sign of a NaN.
        let nan = f64::from_bits(0x7FF8_DEAD_BEEF_0001);
        let legacy = f64s::from_value(&vec![nan].to_value()).unwrap();
        assert!(legacy[0].is_nan());
    }

    #[test]
    fn a_padded_tail_never_regrows_the_decoded_buffer() {
        for n in [3usize, 4, 5, 3000, 3001, 3002] {
            let bytes: Vec<u8> = (0..n).map(|i| i as u8).collect();
            let mut text = Vec::new();
            encode_bytes(&mut text, &bytes);
            assert_eq!(text.len(), n.div_ceil(3) * 4);
            let decoded = decode_bytes(std::str::from_utf8(&text).unwrap()).unwrap();
            assert_eq!(decoded, bytes);
            assert!(decoded.capacity() <= n + 3, "{n}: {}", decoded.capacity());
        }
    }

    #[test]
    fn known_encodings() {
        let text = |t: &str| Value::String(t.into());
        assert_eq!(f64s::from_value(&text("")).unwrap(), []);
        assert_eq!(f64s::from_value(&text("AAAAAAAA8D8=")).unwrap(), [1.0]);
        assert_eq!(labels::from_value(&text("u8:")).unwrap(), []);
        assert_eq!(labels::from_value(&text("u8:AAEC")).unwrap(), [0, 1, 2]);
        assert_eq!(labels::from_value(&text("u16:AAE=")).unwrap(), [256]);
        assert_eq!(
            opt_labels::from_value(&text("u8:Af8=")).unwrap(),
            [Some(1), None]
        );
    }

    #[test]
    fn every_label_width_reads_back() {
        for (max, width) in [
            (0usize, 1usize),
            (255, 1),
            (65_535, 2),
            (u32::MAX as usize, 4),
            (usize::MAX, 8),
        ] {
            let words = [0, max as u64, 7];
            let column = labels::from_value(&packed_words(&words, width)).unwrap();
            assert_eq!(column, [0, max, 7], "width {width}");
        }
        // The optional form reads the width's all-ones word as `None`.
        for width in [1usize, 2, 4, 8] {
            let none = all_ones(width);
            let words = [none, none - 1, 0, none];
            let column = opt_labels::from_value(&packed_words(&words, width)).unwrap();
            assert_eq!(
                column,
                [None, Some((none - 1) as usize), Some(0), None],
                "width {width}"
            );
        }
    }

    #[test]
    fn legacy_arrays_are_read_too() {
        let values = vec![0.25, -3.0, 1e-300];
        assert_eq!(f64s::from_value(&values.to_value()).unwrap(), values);
        let labels = vec![3usize, 0, 70_000];
        assert_eq!(labels::from_value(&labels.to_value()).unwrap(), labels);
        let seen = vec![Some(4usize), None, Some(usize::MAX)];
        assert_eq!(opt_labels::from_value(&seen.to_value()).unwrap(), seen);
        let rows = vec![vec![1usize, 0], vec![0, 1]];
        assert_eq!(label_rows::from_value(&rows.to_value()).unwrap(), rows);
        let mixed = Value::Seq(vec![packed_words(&[1, 0], 1), vec![0usize, 1].to_value()]);
        assert_eq!(label_rows::from_value(&mixed).unwrap(), rows);
    }

    #[test]
    fn malformed_columns_are_typed_errors() {
        let bad_f64s = [
            "AAAAAAAA8D8",    // length not a multiple of 4
            "AAAAAAAA8D*=",   // symbol outside the alphabet
            "AAAAAAAA8D8=\n", // trailing byte
            "AA=AAAAA8D8=",   // padding before the end
            "AAAAAAAA8D9=",   // non-zero bits under the padding
            "AAAA",           // 3 bytes: not a whole f64
            "A===",           // too much padding
            "é=AA",           // non-ASCII
        ];
        for bad in bad_f64s {
            let err = f64s::from_value(&Value::String(bad.into()));
            assert!(err.is_err(), "{bad:?} decoded to {err:?}");
        }
        let err = f64s::from_value(&Value::String("AAAAAAAA8D*=".into())).unwrap_err();
        assert!(err.to_string().starts_with("packed column: `*`"), "{err}");
        let bad_labels = [
            "AAEC",     // no tag
            "u7:AAEC",  // unknown width
            ":AAEC",    // empty tag
            "u16:AAE",  // bad length
            "u16:AAEC", // 3 bytes at width 2
            "u8:AA*C",  // bad symbol
            "u64:AAEC", // 3 bytes at width 8
        ];
        for bad in bad_labels {
            let v = Value::String(bad.into());
            assert!(labels::from_value(&v).is_err(), "{bad:?}");
            assert!(opt_labels::from_value(&v).is_err(), "{bad:?}");
            assert!(
                label_rows::from_value(&Value::Seq(vec![v])).is_err(),
                "{bad:?}"
            );
        }
        for wrong in [Value::Null, Value::Int(3), Value::Map(Vec::new())] {
            assert!(f64s::from_value(&wrong).is_err());
            assert!(labels::from_value(&wrong).is_err());
            assert!(opt_labels::from_value(&wrong).is_err());
            assert!(label_rows::from_value(&wrong).is_err());
        }
        assert!(labels::from_value(&Value::Seq(vec![Value::Float(0.5)])).is_err());
    }

    #[derive(Debug, PartialEq, Deserialize)]
    struct Packed {
        #[serde(with = "crate::packed::f64s")]
        values: Vec<f64>,
        #[serde(default, with = "crate::packed::opt_labels")]
        seen: Vec<Option<usize>>,
        plain: Vec<usize>,
    }

    #[derive(Debug, PartialEq, Deserialize)]
    enum Shape {
        Rows {
            #[serde(with = "crate::packed::label_rows")]
            rows: Vec<Vec<usize>>,
        },
    }

    #[test]
    fn derive_routes_with_fields_through_the_module() {
        let entry = |key: &str, v: Value| (key.to_string(), v);
        let values = entry("values", packed_f64s(&[0.5, -2.0]));
        let plain = entry("plain", vec![1usize, 2].to_value());
        let v = Value::Map(vec![
            values.clone(),
            entry("seen", packed_words(&[3, 0xFF], 1)),
            plain.clone(),
        ]);
        let packed = Packed {
            values: vec![0.5, -2.0],
            seen: vec![Some(3), None],
            plain: vec![1, 2],
        };
        assert_eq!(Packed::from_value(&v).unwrap(), packed);
        // `default` still applies to a `with` field that is absent.
        let back = Packed::from_value(&Value::Map(vec![values, plain])).unwrap();
        assert!(back.seen.is_empty());

        let rows = Value::Seq(vec![packed_words(&[0, 1], 1), packed_words(&[1, 0], 2)]);
        let shape = Value::Map(vec![entry("Rows", Value::Map(vec![entry("rows", rows)]))]);
        assert_eq!(
            Shape::from_value(&shape).unwrap(),
            Shape::Rows {
                rows: vec![vec![0, 1], vec![1, 0]]
            }
        );
    }

    proptest! {
        #[test]
        fn random_columns_read_back(
            raw in proptest::collection::vec(0u64..u64::MAX, 0..40),
            shift in 0u32..64,
        ) {
            let floats: Vec<f64> = raw.iter().map(|&b| f64::from_bits(b)).collect();
            let back = f64s::from_value(&packed_f64s(&floats)).unwrap();
            prop_assert_eq!(bits(&back), raw.clone());
            let words: Vec<u64> = raw.iter().map(|&b| b >> shift).collect();
            let labels: Vec<usize> = words.iter().map(|&w| w as usize).collect();
            prop_assert_eq!(labels::from_value(&packed_words(&words, 8)).unwrap(), labels);
        }

        #[test]
        fn arbitrary_text_never_panics_a_decoder(
            raw in proptest::collection::vec(0u8..128, 0..24),
            tag in 0usize..6,
        ) {
            let body: String = raw.iter().map(|&b| char::from(b)).collect();
            let prefix = ["", "u8:", "u16:", "u32:", "u64:", "u9:"][tag];
            let v = Value::String(format!("{prefix}{body}"));
            let _ = f64s::from_value(&v);
            let _ = labels::from_value(&v);
            let _ = opt_labels::from_value(&v);
            let _ = label_rows::from_value(&Value::Seq(vec![v]));
        }
    }
}

//! Packed numeric columns for JSON checkpoints, and the base64 codec the
//! checkpoint [`container`](crate::container) travels in.
//!
//! Nearly all of a controller checkpoint is a few dense columns — the
//! stored per-node values, their last-seen ticks, the look-back values and
//! labels, the centroid histories, the model weights. Written as JSON
//! numbers, each element costs a decimal formatting call on the way out and
//! a parse on the way in. The `to_value` / `from_value` pairs here write
//! such a column as **one JSON string** instead, and are meant for the
//! vendored derive's field attribute, e.g.
//! `#[serde(with = "utilcast_linalg::packed::f64s")]`:
//!
//! * [`f64s`] — the values' little-endian IEEE-754 bits in base64 (standard
//!   alphabet, `=`-padded): bit-exact for every value, NaN payloads, `-0.0`
//!   and subnormals included;
//! * [`labels`] — `usize` values at the narrowest of 1, 2, 4 or 8
//!   little-endian bytes that holds the column's maximum, the width in a
//!   tag: `"u8:…"`, `"u16:…"`, `"u32:…"`, `"u64:…"`;
//! * [`opt_labels`] — `Option<usize>` the same way, `None` as the all-ones
//!   word of the width (the narrowest width whose all-ones word is above
//!   every value); a column holding `Some(usize::MAX)` is written as the
//!   plain array;
//! * [`label_rows`] — a sequence of [`labels`] columns.
//!
//! Every decoder also accepts the column as the plain JSON array a derived
//! impl writes, so one reader restores checkpoints written before and
//! after packing, with no version field. The decoders are total: a bad
//! alphabet, bad padding, a length that is not a whole number of words or a
//! bad width tag is a [`DeError`], and every allocation is sized from the
//! input's own length.

use serde::{DeError, Deserialize, Serialize, Value};

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

/// The base64 text of `column` behind `prefix`, each element written as
/// the `W`-byte word `word` gives it (`W` at most 8). Three words are `W`
/// whole 3-byte groups, so the column is encoded straight from its
/// elements, three at a time, with no byte buffer in between.
fn encode_column<T, const W: usize>(
    prefix: &str,
    column: &[T],
    word: impl Fn(&T) -> [u8; W],
) -> String {
    let bytes = column.len().saturating_mul(W);
    let mut out = Vec::with_capacity(prefix.len() + bytes.div_ceil(3).saturating_mul(4));
    out.extend_from_slice(prefix.as_bytes());
    let mut threes = column.chunks_exact(3);
    let mut symbols = [0u8; 32];
    for three in &mut threes {
        let mut buf = [0u8; 24];
        for (value, slot) in three.iter().zip(buf.chunks_exact_mut(W)) {
            slot.copy_from_slice(&word(value));
        }
        for (group, quad) in buf.chunks_exact(3).zip(symbols.chunks_exact_mut(4)).take(W) {
            if let [a, b, c] = *group {
                quad.copy_from_slice(&encode_group(a, b, c));
            }
        }
        out.extend_from_slice(symbols.get(..4 * W).unwrap_or_default());
    }
    let mut buf = [0u8; 16];
    let mut len = 0;
    for (value, slot) in threes.remainder().iter().zip(buf.chunks_exact_mut(W)) {
        slot.copy_from_slice(&word(value));
        len += W;
    }
    encode_bytes(&mut out, buf.get(..len).unwrap_or_default());
    // Prefix and symbols are ASCII, so this never takes the fallback.
    String::from_utf8(out).unwrap_or_default()
}

/// Symbol `s`'s entry in the decoding table of one place in a quad.
fn decoded(table: &[u32; 256], s: u8) -> u32 {
    table.get(usize::from(s)).copied().unwrap_or(INVALID)
}

/// Decodes padded base64 `text`, rejecting any other alphabet, a length
/// that is not a multiple of four, padding anywhere but at the end, and
/// non-zero bits in a padded group.
pub(crate) fn decode_bytes(text: &str) -> Result<Vec<u8>, DeError> {
    let symbols = text.as_bytes();
    if !symbols.len().is_multiple_of(4) {
        return Err(DeError::new(format!(
            "packed column: {} base64 symbols is not a multiple of 4",
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
            "packed column: `{}` is not a base64 symbol here",
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
        return Err(DeError::new("packed column: bad base64 padding"));
    }
    out.extend(tail.into_iter().take(keep));
    Ok(out)
}

/// The first `W` bytes of `bytes` as an array (zero-filled past its end).
fn word<const W: usize>(bytes: &[u8]) -> [u8; W] {
    let mut out = [0u8; W];
    out.iter_mut().zip(bytes).for_each(|(o, b)| *o = *b);
    out
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

    /// Writes `column` as one base64 string of its values' bits.
    pub fn to_value(column: &[f64]) -> Value {
        Value::String(encode_column("", column, |v| v.to_le_bytes()))
    }

    /// Reads a column written by [`to_value`], or a plain JSON array.
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
        let bytes = decode_bytes(text)?;
        whole_words(&bytes, 8, "f64 column")?;
        Ok(bytes
            .chunks_exact(8)
            .map(|w| f64::from_le_bytes(word(w)))
            .collect())
    }
}

/// The tag of a label column `width` bytes wide.
fn width_tag(width: usize) -> &'static str {
    match width {
        1 => "u8:",
        2 => "u16:",
        4 => "u32:",
        _ => "u64:",
    }
}

/// The narrowest label width whose range reaches `max`.
fn width_for(max: u64) -> usize {
    if max <= u64::from(u8::MAX) {
        1
    } else if max <= u64::from(u16::MAX) {
        2
    } else if max <= u64::from(u32::MAX) {
        4
    } else {
        8
    }
}

/// The all-ones word of a label width: `None` in an optional column.
fn all_ones(width: usize) -> u64 {
    u64::MAX >> (64 - 8 * width)
}

/// Writes `words` (as `u64`) at `width` bytes each behind its tag.
fn encode_labels(words: &[u64], width: usize) -> String {
    let tag = width_tag(width);
    match width {
        1 => encode_column(tag, words, |w| word::<1>(&w.to_le_bytes())),
        2 => encode_column(tag, words, |w| word::<2>(&w.to_le_bytes())),
        4 => encode_column(tag, words, |w| word::<4>(&w.to_le_bytes())),
        _ => encode_column(tag, words, |w| w.to_le_bytes()),
    }
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
    let bytes = decode_bytes(payload)?;
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

/// `usize` label columns at the narrowest width that holds them.
pub mod labels {
    use super::*;

    /// Writes `column` as one tagged base64 string.
    pub fn to_value(column: &[usize]) -> Value {
        let words: Vec<u64> = column.iter().map(|&v| v as u64).collect();
        let max = words.iter().copied().max().unwrap_or(0);
        Value::String(encode_labels(&words, width_for(max)))
    }

    /// Reads a column written by [`to_value`], or a plain JSON array.
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

    /// Writes `column` as one tagged base64 string (or, when it holds
    /// `Some(usize::MAX)`, which no width can tell from `None`, as the
    /// plain array).
    pub fn to_value(column: &[Option<usize>]) -> Value {
        let max = column.iter().flatten().map(|&v| v as u64).max();
        let Some(width) = max.map_or(Some(1), |max| max.checked_add(1).map(width_for)) else {
            return column.to_value();
        };
        let none = all_ones(width);
        let words: Vec<u64> = column
            .iter()
            .map(|v| v.map_or(none, |v| v as u64))
            .collect();
        Value::String(encode_labels(&words, width))
    }

    /// Reads a column written by [`to_value`], or a plain JSON array.
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

    /// Writes each row as a [`labels`] column.
    pub fn to_value(rows: &[Vec<usize>]) -> Value {
        Value::Seq(rows.iter().map(|row| labels::to_value(row)).collect())
    }

    /// Reads rows written by [`to_value`]; each row may also be a plain
    /// JSON array.
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
    use serde::{Deserialize, Serialize};

    fn bits(column: &[f64]) -> Vec<u64> {
        column.iter().map(|v| v.to_bits()).collect()
    }

    fn text(v: &Value) -> &str {
        v.as_str()
            .unwrap_or_else(|| panic!("not a packed string: {v:?}"))
    }

    #[test]
    fn f64_columns_round_trip_every_bit_pattern() {
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
            let packed = f64s::to_value(part);
            assert_eq!(text(&packed).len(), (8 * len).div_ceil(3) * 4);
            let back = f64s::from_value(&packed).unwrap();
            assert_eq!(bits(&back), bits(part), "length {len}");
        }
        // The decimal form keeps neither the payload nor the sign of a NaN.
        let nan = f64::from_bits(0x7FF8_DEAD_BEEF_0001);
        let legacy = f64s::from_value(&vec![nan].to_value()).unwrap();
        assert!(legacy[0].is_nan());
        assert_eq!(
            bits(&f64s::from_value(&f64s::to_value(&[nan])).unwrap()),
            [nan.to_bits()]
        );
    }

    #[test]
    fn a_padded_tail_never_regrows_the_decoded_buffer() {
        for n in [3usize, 4, 5, 3000, 3001, 3002] {
            let bytes: Vec<u8> = (0..n).map(|i| i as u8).collect();
            let mut text = Vec::new();
            encode_bytes(&mut text, &bytes);
            let decoded = decode_bytes(std::str::from_utf8(&text).unwrap()).unwrap();
            assert_eq!(decoded, bytes);
            assert!(decoded.capacity() <= n + 3, "{n}: {}", decoded.capacity());
        }
    }

    #[test]
    fn known_encodings() {
        assert_eq!(text(&f64s::to_value(&[])), "");
        assert_eq!(text(&f64s::to_value(&[1.0])), "AAAAAAAA8D8=");
        assert_eq!(text(&labels::to_value(&[])), "u8:");
        assert_eq!(text(&labels::to_value(&[0, 1, 2])), "u8:AAEC");
        assert_eq!(text(&labels::to_value(&[256])), "u16:AAE=");
        assert_eq!(text(&opt_labels::to_value(&[Some(1), None])), "u8:Af8=");
    }

    #[test]
    fn label_width_is_the_narrowest_that_holds_the_maximum() {
        for (max, tag) in [
            (0usize, "u8:"),
            (255, "u8:"),
            (256, "u16:"),
            (65_535, "u16:"),
            (65_536, "u32:"),
            (u32::MAX as usize, "u32:"),
            (u32::MAX as usize + 1, "u64:"),
            (usize::MAX, "u64:"),
        ] {
            let column = vec![0, max, 7];
            let packed = labels::to_value(&column);
            assert!(text(&packed).starts_with(tag), "{max}: {packed:?}");
            assert_eq!(labels::from_value(&packed).unwrap(), column);
        }
        // The optional form reserves the all-ones word for `None`.
        for (max, tag) in [
            (254usize, "u8:"),
            (255, "u16:"),
            (65_535, "u32:"),
            (u32::MAX as usize, "u64:"),
            (usize::MAX - 1, "u64:"),
        ] {
            let column = vec![None, Some(max), Some(0), None];
            let packed = opt_labels::to_value(&column);
            assert!(text(&packed).starts_with(tag), "{max}: {packed:?}");
            assert_eq!(opt_labels::from_value(&packed).unwrap(), column);
        }
        let unpackable = vec![Some(usize::MAX), None];
        let plain = opt_labels::to_value(&unpackable);
        assert_eq!(plain, unpackable.to_value());
        assert_eq!(opt_labels::from_value(&plain).unwrap(), unpackable);
        assert_eq!(
            opt_labels::from_value(&opt_labels::to_value(&[])).unwrap(),
            []
        );
    }

    #[test]
    fn legacy_arrays_are_read_too() {
        let values = vec![0.25, -3.0, 1e-300];
        assert_eq!(f64s::from_value(&values.to_value()).unwrap(), values);
        let labels = vec![3usize, 0, 70_000];
        assert_eq!(labels::from_value(&labels.to_value()).unwrap(), labels);
        let seen = vec![Some(4usize), None];
        assert_eq!(opt_labels::from_value(&seen.to_value()).unwrap(), seen);
        let rows = vec![vec![1usize, 0], vec![0, 1]];
        assert_eq!(label_rows::from_value(&rows.to_value()).unwrap(), rows);
        let mixed = Value::Seq(vec![labels::to_value(&[1, 0]), vec![0usize, 1].to_value()]);
        assert_eq!(label_rows::from_value(&mixed).unwrap(), rows);
        assert_eq!(
            label_rows::from_value(&label_rows::to_value(&rows)).unwrap(),
            rows
        );
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

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Packed {
        #[serde(with = "crate::packed::f64s")]
        values: Vec<f64>,
        #[serde(default, with = "crate::packed::opt_labels")]
        seen: Vec<Option<usize>>,
        plain: Vec<usize>,
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    enum Shape {
        Rows {
            #[serde(with = "crate::packed::label_rows")]
            rows: Vec<Vec<usize>>,
        },
    }

    #[test]
    fn derive_routes_with_fields_through_the_module() {
        let packed = Packed {
            values: vec![0.5, -2.0],
            seen: vec![Some(3), None],
            plain: vec![1, 2],
        };
        let v = packed.to_value();
        let Value::Map(entries) = &v else {
            panic!("{v:?}")
        };
        assert_eq!(entries[0].1, f64s::to_value(&packed.values));
        assert_eq!(entries[1].1, opt_labels::to_value(&packed.seen));
        assert_eq!(entries[2].1, packed.plain.to_value());
        assert_eq!(Packed::from_value(&v).unwrap(), packed);
        // `default` still applies to a `with` field that is absent.
        let absent = Value::Map(vec![entries[0].clone(), entries[2].clone()]);
        let back = Packed::from_value(&absent).unwrap();
        assert!(back.seen.is_empty());

        let shape = Shape::Rows {
            rows: vec![vec![0, 1], vec![1, 0]],
        };
        assert_eq!(Shape::from_value(&shape.to_value()).unwrap(), shape);
    }

    proptest! {
        #[test]
        fn random_columns_round_trip(
            raw in proptest::collection::vec(0u64..u64::MAX, 0..40),
            shift in 0u32..64,
        ) {
            let floats: Vec<f64> = raw.iter().map(|&b| f64::from_bits(b)).collect();
            let back = f64s::from_value(&f64s::to_value(&floats)).unwrap();
            prop_assert_eq!(bits(&back), raw.clone());
            let labels: Vec<usize> = raw.iter().map(|&b| (b >> shift) as usize).collect();
            prop_assert_eq!(labels::from_value(&labels::to_value(&labels)).unwrap(), labels.clone());
            let opt: Vec<Option<usize>> = labels
                .iter()
                .map(|&l| (l % 3 != 0).then_some(l))
                .collect();
            prop_assert_eq!(opt_labels::from_value(&opt_labels::to_value(&opt)).unwrap(), opt);
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

//! The checkpoint container: one versioned, checksummed block of
//! little-endian words.
//!
//! A checkpoint is a few dense columns — stored values, last-seen ticks,
//! look-back values and labels, centroid histories, model weights — inside
//! a few hundred structural values. Written as a JSON tree, every key,
//! integer and decimal float costs a parse and a tree node; here the whole
//! state is one byte block instead:
//!
//! ```text
//! magic "UCCK" | version u32 | payload length u64 | checksum u64 | payload
//! ```
//!
//! all little-endian. The payload is whatever each snapshot type writes
//! through a [`Writer`] and reads back through a [`Reader`] (each crate
//! encodes its own types, in the `encode_into` / `decode` idiom of the wire
//! codecs): integers and `f64` bits as 8-byte words, flags and enum tags as
//! single bytes, and every column behind its length — `f64` columns as raw
//! IEEE-754 bits, label columns at the narrowest of 1, 2, 4 or 8 bytes
//! that holds their maximum. Every field is always present; [`VERSION`]
//! names the layout, and a reader takes only its own.
//!
//! The checksum is FNV-1a over the payload's little-endian 8-byte words
//! (the last one zero-filled), in four interleaved lanes folded by one more
//! FNV-1a pass. Each step `h = (h ^ w) · P` with odd `P` is a bijection of
//! `h` for fixed `w` and of `w` for fixed `h`, so a change confined to one
//! word always changes its lane and so the sum; wider changes are caught
//! with probability 1 − 2⁻⁶⁴ at best. It guards against corruption, not
//! against an adversary: it is not a MAC.
//!
//! [`Writer::seal`] returns the framed bytes, and [`Reader::open`] reads
//! them in place. It checks the magic, the version, the length and the
//! checksum before any field is read, and every read after that is
//! bounds-checked against the payload, so a decoder built on it is total:
//! hostile bytes are a [`DeError`] naming the fault, never a panic, and
//! every allocation is sized by the input's own length.
//!
//! Where a checkpoint must travel as text — a JSON string — [`to_base64`]
//! and [`from_base64`] carry the bytes across that one boundary.

use serde::DeError;

/// The container's first four bytes.
const MAGIC: [u8; 4] = *b"UCCK";

/// The payload layout this build writes and reads. Any change to what any
/// crate writes into a container bumps it; a checkpoint of another version
/// is refused by [`Reader::open`].
pub const VERSION: u32 = 1;

/// Magic, version, payload length and checksum.
const HEADER: usize = 24;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// The first `W` bytes of `bytes` as an array (zero-filled past its end).
fn word<const W: usize>(bytes: &[u8]) -> [u8; W] {
    if let Some(Ok(whole)) = bytes.get(..W).map(<[u8; W]>::try_from) {
        return whole;
    }
    let mut out = [0u8; W];
    out.iter_mut().zip(bytes).for_each(|(o, b)| *o = *b);
    out
}

/// One FNV-1a step over a word.
fn fnv(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(FNV_PRIME)
}

/// FNV-1a over the little-endian 8-byte words of `payload` (the last one
/// zero-filled), in four interleaved lanes — word `i` feeds lane `i mod 4`,
/// so the multiplications overlap instead of waiting on each other — folded
/// into one sum by a last FNV-1a pass over the lanes. A whole 32-byte block
/// is read as two little-endian `u128` halves, whose low and high 64 bits
/// are its four words: two reads and no per-word adaptor, so an
/// unoptimised build checksums at about a third of the cost of a
/// word-by-word loop (a hostile-input test refuses a container tens of
/// thousands of times) and an optimised one is no slower.
fn checksum(payload: &[u8]) -> u64 {
    let [mut a, mut b, mut c, mut d] = [FNV_OFFSET; 4];
    let mut rest = payload;
    while let Some((block, tail)) = rest.split_first_chunk::<32>() {
        let low = u128::from_le_bytes(*block.first_chunk().unwrap_or(&[0; 16]));
        let high = u128::from_le_bytes(*block.last_chunk().unwrap_or(&[0; 16]));
        a = fnv(a, low as u64);
        b = fnv(b, (low >> 64) as u64);
        c = fnv(c, high as u64);
        d = fnv(d, (high >> 64) as u64);
        rest = tail;
    }
    let mut lanes = [a, b, c, d];
    for (lane, w) in lanes.iter_mut().zip(rest.chunks(8)) {
        *lane = fnv(*lane, u64::from_le_bytes(word(w)));
    }
    lanes.into_iter().fold(FNV_OFFSET, fnv)
}

/// The narrowest label width (1, 2, 4 or 8 bytes) whose range reaches
/// `max`.
fn width_for(max: u64) -> u8 {
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

/// Marks an optional label column too wide for an all-ones `None` word:
/// each entry is a presence byte and an 8-byte word instead.
const WIDE_OPTIONAL: u8 = 0;

/// Builds a container's payload; [`Writer::seal`] frames it.
#[derive(Debug)]
pub struct Writer {
    bytes: Vec<u8>,
}

impl Default for Writer {
    fn default() -> Self {
        Writer::new()
    }
}

impl Writer {
    /// An empty payload behind room for the header.
    pub fn new() -> Self {
        let mut bytes = Vec::with_capacity(1 << 16);
        bytes.resize(HEADER, 0);
        Writer { bytes }
    }

    /// Appends a `u64` as one little-endian word.
    pub fn u64(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as one `u64` word.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends an `f64`'s IEEE-754 bits.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a flag as one byte.
    pub fn bool(&mut self, v: bool) {
        self.bytes.push(u8::from(v));
    }

    /// Appends an enum variant's tag as one byte.
    pub fn tag(&mut self, tag: u8) {
        self.bytes.push(tag);
    }

    /// Appends `column` behind its length, each value's bits as one word.
    pub fn f64s(&mut self, column: &[f64]) {
        self.usize(column.len());
        self.put_words::<8>(column.iter().map(|v| v.to_bits()));
    }

    /// Appends `column` behind its length, one word per value.
    pub fn u64s(&mut self, column: &[u64]) {
        self.usize(column.len());
        self.put_words::<8>(column.iter().copied());
    }

    /// Appends the low `W` bytes of each of `words`, little-endian.
    fn put_words<const W: usize>(&mut self, words: impl ExactSizeIterator<Item = u64>) {
        let start = self.bytes.len();
        self.bytes
            .resize(start.saturating_add(words.len().saturating_mul(W)), 0);
        let slots = self.bytes.get_mut(start..).unwrap_or_default();
        for (slot, w) in slots.chunks_exact_mut(W).zip(words) {
            slot.copy_from_slice(&word::<W>(&w.to_le_bytes()));
        }
    }

    /// Appends `words` behind their count and their width, at `width`
    /// bytes each.
    fn words(&mut self, words: impl ExactSizeIterator<Item = u64>, width: u8) {
        self.usize(words.len());
        self.tag(width);
        match width {
            1 => self.put_words::<1>(words),
            2 => self.put_words::<2>(words),
            4 => self.put_words::<4>(words),
            _ => self.put_words::<8>(words),
        }
    }

    /// Appends a label column at the narrowest width that holds its
    /// maximum.
    pub fn labels(&mut self, column: &[usize]) {
        let max = column.iter().copied().max().unwrap_or(0) as u64;
        self.words(column.iter().map(|&v| v as u64), width_for(max));
    }

    /// Appends an optional label column, `None` as the all-ones word of the
    /// narrowest width whose all-ones word is above every value (a column
    /// holding `Some(usize::MAX)` writes a presence byte per entry instead).
    pub fn opt_labels(&mut self, column: &[Option<usize>]) {
        let max = column.iter().flatten().map(|&v| v as u64).max();
        let Some(width) = max.map_or(Some(1), |max| max.checked_add(1).map(width_for)) else {
            self.usize(column.len());
            self.tag(WIDE_OPTIONAL);
            for v in column {
                self.bool(v.is_some());
                self.usize(v.unwrap_or(0));
            }
            return;
        };
        let none = u64::MAX >> (64 - 8 * u32::from(width));
        self.words(column.iter().map(|v| v.map_or(none, |v| v as u64)), width);
    }

    /// Appends `items` behind their count, each as `each` writes it.
    pub fn seq<T>(&mut self, items: &[T], mut each: impl FnMut(&mut Writer, &T)) {
        self.usize(items.len());
        for item in items {
            each(self, item);
        }
    }

    /// Appends a presence flag and, when present, `item` as `each` writes
    /// it.
    pub fn option<T>(&mut self, item: Option<&T>, each: impl FnOnce(&mut Writer, &T)) {
        self.bool(item.is_some());
        if let Some(item) = item {
            each(self, item);
        }
    }

    /// Frames the payload — magic, [`VERSION`], length, checksum — and
    /// returns the container's bytes.
    pub fn seal(mut self) -> Vec<u8> {
        let payload = self.bytes.get(HEADER..).unwrap_or_default();
        let header = [
            MAGIC.as_slice(),
            &VERSION.to_le_bytes(),
            &(payload.len() as u64).to_le_bytes(),
            &checksum(payload).to_le_bytes(),
        ]
        .concat();
        self.bytes.iter_mut().zip(header).for_each(|(b, h)| *b = h);
        self.bytes
    }
}

/// The standard base64 alphabet of [`to_base64`]'s text.
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
fn encode_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
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
fn decode_bytes(text: &str) -> Result<Vec<u8>, DeError> {
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
    // The bits under the padding must be zero, so a byte string has one
    // text.
    if tail.iter().skip(keep).any(|&byte| byte != 0) {
        return Err(DeError::new("bad base64 padding"));
    }
    out.extend(tail.into_iter().take(keep));
    Ok(out)
}

/// The base64 text of a container's `bytes` (standard alphabet,
/// `=`-padded), written into one buffer of exactly its length.
pub fn to_base64(bytes: &[u8]) -> String {
    let mut text = Vec::with_capacity(bytes.len().div_ceil(3).saturating_mul(4));
    encode_bytes(&mut text, bytes);
    // The symbols are ASCII, so this never takes the fallback.
    String::from_utf8(text).unwrap_or_default()
}

/// The bytes of base64 `text` written by [`to_base64`].
///
/// # Errors
///
/// [`DeError`] for a length that is not a multiple of four, a symbol
/// outside the alphabet, or bad padding.
pub fn from_base64(text: &str) -> Result<Vec<u8>, DeError> {
    decode_bytes(text).map_err(fault)
}

/// Reads a container's payload back, field by field, in the order it was
/// written; every read is a [`DeError`] past the payload's end.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

/// A container fault, named.
fn fault(what: impl std::fmt::Display) -> DeError {
    DeError::new(format!("checkpoint container: {what}"))
}

impl<'a> Reader<'a> {
    /// Checks the frame of the container `bytes`: the magic, that the
    /// version is [`VERSION`], that the header's length is the payload's,
    /// and the checksum — all before the first field is read. The fields
    /// are then read from `bytes` in place.
    ///
    /// # Errors
    ///
    /// [`DeError`] naming the first of these that fails.
    pub fn open(bytes: &'a [u8]) -> Result<Reader<'a>, DeError> {
        let header: [u8; HEADER] = bytes
            .get(..HEADER)
            .and_then(|h| h.try_into().ok())
            .ok_or_else(|| fault(format!("{} bytes is shorter than the header", bytes.len())))?;
        let field = |at: usize| u64::from_le_bytes(word(header.get(at..).unwrap_or_default()));
        if header.get(..4) != Some(MAGIC.as_slice()) {
            return Err(fault("bad magic"));
        }
        let version = u32::from_le_bytes(word(header.get(4..).unwrap_or_default()));
        if version != VERSION {
            return Err(fault(format!(
                "version {version}, this reader takes version {VERSION}"
            )));
        }
        let payload = bytes.get(HEADER..).unwrap_or_default();
        let length = field(8);
        if length != payload.len() as u64 {
            return Err(fault(format!(
                "the header gives {length} payload bytes, the container holds {}",
                payload.len()
            )));
        }
        if field(16) != checksum(payload) {
            return Err(fault("checksum mismatch"));
        }
        Ok(Reader { bytes, pos: HEADER })
    }

    /// The next `n` bytes.
    fn take(&mut self, n: usize) -> Result<&'a [u8], DeError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len());
        let Some(end) = end else {
            return Err(fault(format!(
                "payload ends {} bytes in, {n} more were expected",
                self.pos.saturating_sub(HEADER)
            )));
        };
        let taken = self.bytes.get(self.pos..end).unwrap_or_default();
        self.pos = end;
        Ok(taken)
    }

    /// The payload bytes not read yet.
    fn remaining(&self) -> usize {
        self.bytes.len().saturating_sub(self.pos)
    }

    /// Reads a `u64` word.
    ///
    /// # Errors
    ///
    /// [`DeError`] past the payload's end (as every read below).
    pub fn u64(&mut self) -> Result<u64, DeError> {
        self.take(8).map(|w| u64::from_le_bytes(word(w)))
    }

    /// Reads a `usize` from one `u64` word.
    ///
    /// # Errors
    ///
    /// Also a [`DeError`] when the word does not fit a `usize`.
    pub fn usize(&mut self) -> Result<usize, DeError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| fault(format!("{v} does not fit a usize")))
    }

    /// Reads an `f64` from its bits.
    ///
    /// # Errors
    ///
    /// [`DeError`] past the payload's end.
    pub fn f64(&mut self) -> Result<f64, DeError> {
        self.u64().map(f64::from_bits)
    }

    /// Reads a flag byte.
    ///
    /// # Errors
    ///
    /// Also a [`DeError`] for a byte other than 0 or 1.
    pub fn bool(&mut self) -> Result<bool, DeError> {
        match self.tag()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(fault(format!("{other} is not a flag"))),
        }
    }

    /// Reads an enum tag byte.
    ///
    /// # Errors
    ///
    /// [`DeError`] past the payload's end.
    pub fn tag(&mut self) -> Result<u8, DeError> {
        self.take(1).map(|b| b.first().copied().unwrap_or(0))
    }

    /// The next `n` words of `W` bytes each.
    fn take_words<const W: usize>(&mut self, n: usize) -> Result<&'a [u8], DeError> {
        self.take(self.check_len(n, W)?.saturating_mul(W))
    }

    /// Reads a column written by [`Writer::f64s`].
    ///
    /// # Errors
    ///
    /// [`DeError`] past the payload's end.
    pub fn f64s(&mut self) -> Result<Vec<f64>, DeError> {
        let n = self.usize()?;
        Ok(self
            .take_words::<8>(n)?
            .chunks_exact(8)
            .map(|w| f64::from_le_bytes(word(w)))
            .collect())
    }

    /// Reads a column written by [`Writer::u64s`].
    ///
    /// # Errors
    ///
    /// [`DeError`] past the payload's end.
    pub fn u64s(&mut self) -> Result<Vec<u64>, DeError> {
        let n = self.usize()?;
        Ok(self
            .take_words::<8>(n)?
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(word(w)))
            .collect())
    }

    /// Reads `n` words of `width` bytes, handing each (as `u64`) and the
    /// width's all-ones word to `each`.
    fn words<T>(
        &mut self,
        n: usize,
        width: u8,
        each: impl Fn(u64, u64) -> Result<T, DeError>,
    ) -> Result<Vec<T>, DeError> {
        match width {
            1 => self.words_of::<1, T>(n, each),
            2 => self.words_of::<2, T>(n, each),
            4 => self.words_of::<4, T>(n, each),
            8 => self.words_of::<8, T>(n, each),
            _ => Err(fault(format!("{width} is not a label width"))),
        }
    }

    /// [`Reader::words`] at width `W`, stopping at the first error of
    /// `each`.
    fn words_of<const W: usize, T>(
        &mut self,
        n: usize,
        each: impl Fn(u64, u64) -> Result<T, DeError>,
    ) -> Result<Vec<T>, DeError> {
        let none = u64::MAX >> (8 * (8 - W));
        let words = self.take_words::<W>(n)?.chunks_exact(W);
        let mut out = Vec::with_capacity(words.len());
        for w in words {
            out.push(each(u64::from_le_bytes(word(w)), none)?);
        }
        Ok(out)
    }

    /// Reads a column written by [`Writer::labels`].
    ///
    /// # Errors
    ///
    /// Also a [`DeError`] for a width other than 1, 2, 4 or 8 bytes.
    pub fn labels(&mut self) -> Result<Vec<usize>, DeError> {
        let n = self.usize()?;
        let width = self.tag()?;
        self.words(n, width, |w, _| label(w))
    }

    /// Reads a column written by [`Writer::opt_labels`].
    ///
    /// # Errors
    ///
    /// As [`Reader::labels`].
    pub fn opt_labels(&mut self) -> Result<Vec<Option<usize>>, DeError> {
        let n = self.usize()?;
        let width = self.tag()?;
        if width == WIDE_OPTIONAL {
            let n = self.check_len(n, 9)?;
            return (0..n)
                .map(|_| {
                    let present = self.bool()?;
                    let v = self.usize()?;
                    Ok(present.then_some(v))
                })
                .collect();
        }
        self.words(n, width, |w, none| {
            if w == none {
                Ok(None)
            } else {
                label(w).map(Some)
            }
        })
    }

    /// `n` if the rest of the payload can hold `n` entries of `each` bytes
    /// (so no allocation outgrows the input).
    fn check_len(&self, n: usize, each: usize) -> Result<usize, DeError> {
        if n.checked_mul(each)
            .is_none_or(|bytes| bytes > self.remaining())
        {
            return Err(fault(format!(
                "a length of {n} overruns the {} payload bytes left",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Reads a sequence written by [`Writer::seq`], each item by `each`.
    ///
    /// # Errors
    ///
    /// [`DeError`] past the payload's end, or the first error of `each`.
    pub fn seq<T>(
        &mut self,
        mut each: impl FnMut(&mut Reader<'a>) -> Result<T, DeError>,
    ) -> Result<Vec<T>, DeError> {
        // Every item any writer appends takes at least one byte.
        let n = self.usize()?;
        let n = self.check_len(n, 1)?;
        // An item may be far wider in memory than its bytes, so the count
        // alone would let a short payload reserve `size_of::<T>()` times
        // its length: reserve no more bytes than the payload has left, and
        // let the vector grow as items decode.
        let fit = self
            .remaining()
            .checked_div(std::mem::size_of::<T>())
            .unwrap_or(n);
        let mut items = Vec::with_capacity(n.min(fit));
        for _ in 0..n {
            items.push(each(self)?);
        }
        Ok(items)
    }

    /// Reads an option written by [`Writer::option`].
    ///
    /// # Errors
    ///
    /// As [`Reader::bool`], or the error of `each`.
    pub fn option<T>(
        &mut self,
        each: impl FnOnce(&mut Reader<'a>) -> Result<T, DeError>,
    ) -> Result<Option<T>, DeError> {
        if self.bool()? {
            each(self).map(Some)
        } else {
            Ok(None)
        }
    }

    /// Ends the read.
    ///
    /// # Errors
    ///
    /// [`DeError`] when payload bytes are left unread.
    pub fn finish(self) -> Result<(), DeError> {
        match self.remaining() {
            0 => Ok(()),
            left => Err(fault(format!("{left} payload bytes after the last field"))),
        }
    }
}

/// A decoded word as a label.
fn label(word: u64) -> Result<usize, DeError> {
    usize::try_from(word).map_err(|_| fault(format!("label {word} does not fit a usize")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> Writer {
        let mut w = Writer::new();
        w.u64(7);
        w.f64(-0.0);
        w.bool(true);
        w.tag(3);
        w.f64s(&[1.5, f64::from_bits(0x7FF8_DEAD_BEEF_0001)]);
        w.u64s(&[u64::MAX, 0]);
        w.labels(&[0, 300, 2]);
        w.opt_labels(&[Some(4), None]);
        w.opt_labels(&[Some(usize::MAX), None]);
        w.seq(&[vec![0.25], vec![]], |w, row| w.f64s(row));
        w.option(Some(&9usize), |w, v| w.usize(*v));
        w.option(None::<&usize>, |w, v| w.usize(*v));
        w
    }

    #[test]
    fn every_field_round_trips_bitwise() {
        let bytes = sample().seal();
        let mut r = Reader::open(&bytes).unwrap();
        assert_eq!(r.u64().unwrap(), 7);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.bool().unwrap());
        assert_eq!(r.tag().unwrap(), 3);
        let column = r.f64s().unwrap();
        assert_eq!(column[0], 1.5);
        assert_eq!(column[1].to_bits(), 0x7FF8_DEAD_BEEF_0001);
        assert_eq!(r.u64s().unwrap(), [u64::MAX, 0]);
        assert_eq!(r.labels().unwrap(), [0, 300, 2]);
        assert_eq!(r.opt_labels().unwrap(), [Some(4), None]);
        assert_eq!(r.opt_labels().unwrap(), [Some(usize::MAX), None]);
        assert_eq!(r.seq(Reader::f64s).unwrap(), [vec![0.25], vec![]]);
        assert_eq!(r.option(Reader::usize).unwrap(), Some(9));
        assert_eq!(r.option(Reader::usize).unwrap(), None);
        r.finish().unwrap();
    }

    #[test]
    fn labels_take_the_narrowest_width() {
        for (max, width) in [(255usize, 1usize), (256, 2), (70_000, 4), (1 << 40, 8)] {
            let mut w = Writer::new();
            w.labels(&[max, 0]);
            assert_eq!(w.bytes.len(), HEADER + 9 + 2 * width, "{max}");
            let bytes = w.seal();
            let mut r = Reader::open(&bytes).unwrap();
            assert_eq!(r.labels().unwrap(), [max, 0]);
        }
    }

    fn open_err(bytes: &[u8]) -> String {
        Reader::open(bytes).unwrap_err().to_string()
    }

    #[test]
    fn a_bad_frame_is_named_before_any_field_is_read() {
        let mut bytes = sample().seal();
        assert!(open_err(&[0; 3]).contains("shorter than the header"));
        let mut magic = bytes.clone();
        magic[0] ^= 1;
        assert!(open_err(&magic).contains("bad magic"));
        let mut version = bytes.clone();
        version[4] = 2;
        assert!(open_err(&version).contains("version 2"));
        let mut short = bytes.clone();
        short.pop();
        assert!(open_err(&short).contains("payload bytes"));
        let last = bytes.len() - 1;
        bytes[last] ^= 0x80;
        assert!(open_err(&bytes).contains("checksum"));
    }

    #[test]
    fn the_text_carriage_round_trips_and_names_bad_base64() {
        let bytes = sample().seal();
        let text = to_base64(&bytes);
        assert_eq!(text.len(), text.capacity());
        assert_eq!(text.len(), bytes.len().div_ceil(3) * 4);
        assert_eq!(from_base64(&text).unwrap(), bytes);
        let err = from_base64("not base64!").unwrap_err().to_string();
        assert!(
            err.contains("checkpoint container") && err.contains("base64"),
            "{err}"
        );
    }

    #[test]
    fn base64_keeps_every_bit_pattern() {
        let every_byte: Vec<u8> = (0..=255).collect();
        let floats = [
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
        let float_bytes: Vec<u8> = floats.iter().flat_map(|v| v.to_le_bytes()).collect();
        for bytes in [every_byte, float_bytes] {
            for len in 0..=bytes.len() {
                let part = &bytes[..len];
                assert_eq!(from_base64(&to_base64(part)).unwrap(), part, "{len}");
            }
        }
    }

    #[test]
    fn base64_known_encodings_and_padding() {
        assert_eq!(to_base64(&[]), "");
        assert_eq!(from_base64("").unwrap(), []);
        assert_eq!(to_base64(&1.0f64.to_le_bytes()), "AAAAAAAA8D8=");
        assert_eq!(to_base64(&[0, 1, 2]), "AAEC");
        assert_eq!(to_base64(&[0xFF]), "/w==");
        assert_eq!(to_base64(&[0xFF, 0xFE]), "//4=");
        assert_eq!(from_base64("/w==").unwrap(), [0xFF]);
        assert_eq!(from_base64("//4=").unwrap(), [0xFF, 0xFE]);
    }

    #[test]
    fn base64_output_is_sized_from_the_input() {
        for n in [0usize, 1, 2, 3, 4, 5, 3000, 3001, 3002] {
            let bytes: Vec<u8> = (0..n).map(|i| i as u8).collect();
            let text = to_base64(&bytes);
            assert_eq!(text.len(), n.div_ceil(3) * 4, "{n}");
            assert_eq!(text.len(), text.capacity(), "{n}");
            // A padded tail never regrows the decoded buffer.
            let decoded = from_base64(&text).unwrap();
            assert_eq!(decoded, bytes);
            assert!(decoded.capacity() <= n + 3, "{n}: {}", decoded.capacity());
        }
    }

    #[test]
    fn malformed_base64_is_a_typed_error() {
        let malformed = [
            "AAAAAAAA8D8",    // length not a multiple of 4
            "AAAAAAAA8D*=",   // symbol outside the alphabet
            "AAAAAAAA8D8=\n", // trailing byte
            "AA=AAAAA8D8=",   // padding before the end
            "AAAAAAAA8D9=",   // non-zero bits under the padding
            "A===",           // too much padding
            "====",           // nothing but padding
            "é=AA",           // non-ASCII
        ];
        for bad in malformed {
            match from_base64(bad) {
                Err(err) => assert!(err.to_string().starts_with("checkpoint container: ")),
                Ok(bytes) => panic!("{bad:?} decoded to {bytes:?}"),
            }
        }
        let err = from_base64("AAAAAAAA8D*=").unwrap_err().to_string();
        assert!(err.contains("`*` is not a base64 symbol"), "{err}");
        let err = from_base64("AAAAAAAA8D9=").unwrap_err().to_string();
        assert!(err.contains("padding"), "{err}");
    }

    proptest! {
        #[test]
        fn random_bytes_round_trip_through_base64(
            bytes in proptest::collection::vec(0u8..=255, 0..64),
        ) {
            prop_assert_eq!(from_base64(&to_base64(&bytes)).unwrap(), bytes);
        }

        #[test]
        fn arbitrary_text_never_panics_the_base64_decoder(
            raw in proptest::collection::vec(0u8..128, 0..24),
        ) {
            let text: String = raw.iter().map(|&b| char::from(b)).collect();
            if let Ok(bytes) = from_base64(&text) {
                prop_assert_eq!(to_base64(&bytes), text);
            }
        }
    }

    /// The checksum as it was computed before the block reads: word by
    /// word, each `chunks_exact(8)` word through `word` into its lane.
    fn checksum_by_words(payload: &[u8]) -> u64 {
        let mut lanes = [FNV_OFFSET; 4];
        let mut blocks = payload.chunks_exact(32);
        for block in &mut blocks {
            for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(8)) {
                *lane = fnv(*lane, u64::from_le_bytes(word(w)));
            }
        }
        for (lane, w) in lanes.iter_mut().zip(blocks.remainder().chunks(8)) {
            *lane = fnv(*lane, u64::from_le_bytes(word(w)));
        }
        lanes.into_iter().fold(FNV_OFFSET, fnv)
    }

    #[test]
    fn block_reads_sum_the_same_lanes_as_the_word_loop() {
        let mut state = 0x5EED_u64;
        for len in (0..=200).chain([1021, 4096, 4099]) {
            let payload: Vec<u8> = (0..len)
                .map(|_| {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1);
                    (state >> 56) as u8
                })
                .collect();
            assert_eq!(
                checksum(&payload),
                checksum_by_words(&payload),
                "{len} bytes"
            );
        }
    }

    #[test]
    fn any_change_to_one_word_changes_the_checksum() {
        let payload: Vec<u8> = (0..64u8).collect();
        let sum = checksum(&payload);
        for at in 0..payload.len() {
            for bit in 0..8 {
                let mut flipped = payload.clone();
                flipped[at] ^= 1 << bit;
                assert_ne!(checksum(&flipped), sum, "byte {at} bit {bit}");
            }
        }
    }

    #[test]
    fn reads_past_the_payload_and_leftovers_are_errors() {
        let mut w = Writer::new();
        w.u64(1u64 << 40); // read back as a length, it overruns
        w.tag(5); // not a flag, not a width
        let text = w.seal();
        let mut r = Reader::open(&text).unwrap();
        assert!(r.f64s().unwrap_err().to_string().contains("overruns"));
        let mut r = Reader::open(&text).unwrap();
        assert!(r.seq(Reader::u64).is_err());
        let mut r = Reader::open(&text).unwrap();
        r.u64().unwrap();
        assert!(r.bool().unwrap_err().to_string().contains("not a flag"));
        let mut r = Reader::open(&text).unwrap();
        r.u64().unwrap();
        assert!(r
            .finish()
            .unwrap_err()
            .to_string()
            .contains("1 payload bytes"));
        let mut r = Reader::open(&text).unwrap();
        r.u64().unwrap();
        r.tag().unwrap();
        assert!(r.u64().unwrap_err().to_string().contains("payload ends"));
        let mut w = Writer::new();
        w.usize(2);
        w.tag(3);
        w.u64s(&[0, 0]);
        let bytes = w.seal();
        let mut r = Reader::open(&bytes).unwrap();
        assert!(r
            .labels()
            .unwrap_err()
            .to_string()
            .contains("not a label width"));
    }
}

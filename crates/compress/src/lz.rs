//! `tzstd`: an LZ77 hash-chain compressor with levels and dictionaries.
//!
//! Stand-in for Zstandard (see the crate docs for the substitution
//! rationale). The wire format is a token stream:
//!
//! ```text
//! record := ( literal_run match )* literal_run end
//! literal_run := varint(len) byte*
//! match := varint(len - MIN_MATCH + 1)  varint(distance)   // len >= MIN_MATCH
//! end := varint(0)
//! ```
//!
//! A trained dictionary acts as virtual history preceding the input:
//! match distances may reach past the start of the record into the
//! dictionary, which is what makes small templated records compress well.
//! The dictionary is indexed once at construction, so per-record
//! compression does no dictionary-sized work.
//!
//! The match finder hashes each position once (a multiplicative hash
//! of its 4-gram, whose high bits index both the in-input hash chains
//! and the dictionary's postings), rejects a candidate on the byte at
//! the current best length before extending it, and extends matches 8
//! bytes per compare. Its hash tables live in an [`LzScratch`] that a
//! caller encoding many blocks reuses.

use crate::Compressor;
use std::sync::Arc;
use tb_common::{read_varint, write_varint, Error, Result};

/// Minimum match length worth encoding.
const MIN_MATCH: usize = 4;
/// Maximum match length (keeps varints short; matches may be split).
const MAX_MATCH: usize = 1 << 16;
/// Max candidate positions stored per dictionary hash bucket.
const DICT_POSTINGS_CAP: usize = 16;
/// Multiplier of the 4-gram hash; buckets take the product's high bits.
const GRAM_PRIME: u32 = 0x9e37_79b1;

/// Compression level, mirroring zstd's level semantics: negative levels
/// trade ratio for speed, higher positive levels search harder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TzstdLevel(pub i32);

impl Default for TzstdLevel {
    fn default() -> Self {
        TzstdLevel(1)
    }
}

#[derive(Debug, Clone, Copy)]
struct LevelParams {
    /// Max hash-chain candidates examined per position.
    chain_len: usize,
    /// Max dictionary candidates examined per position.
    dict_probe: usize,
    /// Greedy-vs-lazy parsing: lazy re-checks the next position before
    /// committing to a match.
    lazy: bool,
    /// Acceleration: after this many consecutive literal misses, start
    /// skipping positions (fast negative levels).
    skip_trigger: u32,
}

impl TzstdLevel {
    fn params(self) -> LevelParams {
        match self.0 {
            i32::MIN..=-21 => LevelParams {
                chain_len: 1,
                dict_probe: 1,
                lazy: false,
                skip_trigger: 4,
            },
            -20..=-1 => LevelParams {
                chain_len: 2,
                dict_probe: 2,
                lazy: false,
                skip_trigger: 6,
            },
            0..=3 => LevelParams {
                chain_len: 8,
                dict_probe: 4,
                lazy: false,
                skip_trigger: u32::MAX,
            },
            4..=12 => LevelParams {
                chain_len: 32,
                dict_probe: 8,
                lazy: true,
                skip_trigger: u32::MAX,
            },
            13..=18 => LevelParams {
                chain_len: 64,
                dict_probe: 12,
                lazy: true,
                skip_trigger: u32::MAX,
            },
            _ => LevelParams {
                chain_len: 256,
                dict_probe: 16,
                lazy: true,
                skip_trigger: u32::MAX,
            },
        }
    }
}

/// Pre-indexed dictionary shared across compressor instances.
pub struct TrainedDict {
    bytes: Vec<u8>,
    /// Bucket of a 4-gram: the top `bucket_bits` of its hash product.
    bucket_bits: u32,
    /// Contiguous postings: bucket `b`'s dictionary positions are
    /// `posts[starts[b]..starts[b + 1]]`, highest position (nearest the
    /// dictionary's end, where the trainer puts its best fragments and
    /// distances are shortest) first, at most [`DICT_POSTINGS_CAP`].
    starts: Vec<u32>,
    posts: Vec<u32>,
}

impl TrainedDict {
    pub fn new(bytes: Vec<u8>) -> Self {
        let grams = bytes.len().saturating_sub(MIN_MATCH - 1);
        // About two buckets per indexed position keeps collisions rare.
        let bucket_bits = (usize::BITS - (2 * grams).leading_zeros()).clamp(4, 16);
        let buckets = 1usize << bucket_bits;
        let bucket = |i: usize| (gram_product(&bytes, i) >> (32 - bucket_bits)) as usize;
        // Counting pass, walking down from the end so each bucket keeps
        // its highest positions; then a fill pass in the same order.
        let mut counts = vec![0u32; buckets];
        for i in (0..grams).rev() {
            let c = &mut counts[bucket(i)];
            *c = (*c + 1).min(DICT_POSTINGS_CAP as u32);
        }
        let mut starts = Vec::with_capacity(buckets + 1);
        let mut total = 0u32;
        starts.push(0);
        for &c in &counts {
            total += c;
            starts.push(total);
        }
        let mut posts = vec![0u32; total as usize];
        let mut fill = starts[..buckets].to_vec();
        for i in (0..grams).rev() {
            let b = bucket(i);
            if fill[b] < starts[b + 1] {
                posts[fill[b] as usize] = i as u32;
                fill[b] += 1;
            }
        }
        Self {
            bytes,
            bucket_bits,
            starts,
            posts,
        }
    }

    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Candidate positions for a 4-gram with hash product `product`.
    #[inline]
    fn postings(&self, product: u32) -> &[u32] {
        let b = (product >> (32 - self.bucket_bits)) as usize;
        &self.posts[self.starts[b] as usize..self.starts[b + 1] as usize]
    }
}

#[inline]
fn read_u32(b: &[u8], i: usize) -> u32 {
    u32::from_le_bytes(b[i..i + 4].try_into().unwrap())
}

/// Hash product of the 4-gram at `i`; bucket indices take its high bits.
#[inline]
fn gram_product(b: &[u8], i: usize) -> u32 {
    read_u32(b, i).wrapping_mul(GRAM_PRIME)
}

/// Length of the common prefix of `a` and `b`, at most `limit`,
/// compared 8 bytes at a time.
#[inline]
fn common_prefix(a: &[u8], b: &[u8], limit: usize) -> usize {
    let max = a.len().min(b.len()).min(limit);
    let mut l = 0usize;
    while l + 8 <= max {
        let x = u64::from_le_bytes(a[l..l + 8].try_into().unwrap())
            ^ u64::from_le_bytes(b[l..l + 8].try_into().unwrap());
        if x != 0 {
            return l + (x.trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    while l < max && a[l] == b[l] {
        l += 1;
    }
    l
}

/// Reusable hash tables of the match finder: chain heads per hash
/// bucket and the previous same-bucket position of every input
/// position. A caller compressing many blocks keeps one and skips the
/// per-block allocations.
#[derive(Default)]
pub(crate) struct LzScratch {
    head: Vec<u32>,
    prev: Vec<u32>,
}

/// One block's match finder state over `input`.
struct Matcher<'a> {
    input: &'a [u8],
    dict: Option<&'a TrainedDict>,
    p: LevelParams,
    head: &'a mut [u32],
    prev: &'a mut [u32],
    /// `32 - log2(head.len())`: the product shift giving a chain bucket.
    shift: u32,
}

impl Matcher<'_> {
    /// Whether a 4-gram starts at `i` (shorter tails are never hashed).
    #[inline]
    fn hashable(&self, i: usize) -> bool {
        i + MIN_MATCH <= self.input.len()
    }

    /// Links position `i` (hash product `product`) into its chain.
    #[inline]
    fn insert(&mut self, i: usize, product: u32) {
        let h = (product >> self.shift) as usize;
        self.prev[i] = self.head[h];
        self.head[h] = i as u32;
    }

    /// Longest match for `input[i..]`, as `(length, distance)` in
    /// combined (dict ++ input) coordinates. In-record candidates come
    /// first; a dictionary candidate must be strictly longer to win.
    fn find_best(&self, i: usize, product: u32) -> Option<(usize, usize)> {
        let input = self.input;
        let rest = &input[i..];
        let cur = read_u32(input, i);
        // `best_len` starts one short of a match: any candidate must
        // reach MIN_MATCH to count.
        let mut best_len = MIN_MATCH - 1;
        let mut best_dist = 0usize;
        let mut cand = self.head[(product >> self.shift) as usize];
        let mut steps = 0usize;
        while cand != u32::MAX && steps < self.p.chain_len && best_len < rest.len() {
            let j = cand as usize;
            debug_assert!(j < i);
            // Quick reject: a longer match must agree on the byte at
            // the current best length, and on the whole first 4-gram.
            if input[j + best_len] == rest[best_len] && read_u32(input, j) == cur {
                let l = MIN_MATCH
                    + common_prefix(
                        &input[j + MIN_MATCH..],
                        &rest[MIN_MATCH..],
                        MAX_MATCH - MIN_MATCH,
                    );
                if l > best_len {
                    best_len = l;
                    best_dist = i - j;
                }
            }
            cand = self.prev[j];
            steps += 1;
        }
        if let Some(dict) = self.dict {
            let dbytes = dict.as_bytes();
            let dlen = dbytes.len();
            for &dj in dict.postings(product).iter().take(self.p.dict_probe) {
                let dj = dj as usize;
                if best_len >= rest.len() {
                    break;
                }
                if dj + best_len < dlen && dbytes[dj + best_len] != rest[best_len] {
                    continue;
                }
                if read_u32(dbytes, dj) != cur {
                    continue;
                }
                let mut l = common_prefix(&dbytes[dj..], rest, MAX_MATCH);
                if dj + l == dlen {
                    // The match ran off the end of the dictionary; it
                    // continues at the start of the input (history is
                    // dict ++ input), reading only bytes before `i`.
                    let limit = i.min(MAX_MATCH - l);
                    l += common_prefix(&input[..i], &rest[l..], limit);
                }
                if l > best_len {
                    best_len = l;
                    best_dist = i + dlen - dj;
                }
            }
        }
        (best_len >= MIN_MATCH).then_some((best_len, best_dist))
    }
}

/// The tzstd compressor: a level plus an optional trained dictionary.
pub struct Tzstd {
    level: TzstdLevel,
    dict: Option<Arc<TrainedDict>>,
}

impl Tzstd {
    /// Dictionary-less compressor (the paper's "Zstd-b").
    pub fn new(level: TzstdLevel) -> Self {
        Self { level, dict: None }
    }

    /// Dictionary-trained compressor (the paper's "Zstd-d").
    pub fn with_dict(level: TzstdLevel, dict: Arc<TrainedDict>) -> Self {
        Self {
            level,
            dict: Some(dict),
        }
    }

    pub fn level(&self) -> TzstdLevel {
        self.level
    }

    pub fn dictionary(&self) -> Option<&Arc<TrainedDict>> {
        self.dict.as_ref()
    }

    /// Raw LZ token stream (no framing, no entropy stage) of `input`,
    /// appended to `out`.
    pub(crate) fn lz_compress_into(
        &self,
        input: &[u8],
        scratch: &mut LzScratch,
        out: &mut Vec<u8>,
    ) {
        let p = self.level.params();
        let n = input.len();
        out.reserve(n / 2 + 16);

        let table_bits = (usize::BITS - n.next_power_of_two().leading_zeros()).clamp(8, 16);
        let table_size = 1usize << table_bits;
        scratch.head.clear();
        scratch.head.resize(table_size, u32::MAX);
        if scratch.prev.len() < n {
            scratch.prev.resize(n, u32::MAX);
        }
        let mut m = Matcher {
            input,
            dict: self.dict.as_deref(),
            p,
            head: &mut scratch.head,
            prev: &mut scratch.prev,
            shift: 32 - table_bits,
        };

        let mut lit_start = 0usize;
        let mut i = 0usize;
        let mut misses = 0u32;
        while m.hashable(i) {
            let product = gram_product(input, i);
            match m.find_best(i, product) {
                Some((len0, dist0)) => {
                    m.insert(i, product);
                    let (mut len, mut dist) = (len0, dist0);
                    if p.lazy && m.hashable(i + 1) {
                        // Peek one position ahead; prefer a strictly
                        // longer match (one literal byte is the price).
                        let product1 = gram_product(input, i + 1);
                        if let Some((l1, d1)) = m.find_best(i + 1, product1) {
                            if l1 > len + 1 {
                                i += 1;
                                m.insert(i, product1);
                                len = l1;
                                dist = d1;
                            }
                        }
                    }
                    // Flush pending literals, then the match.
                    write_varint(out, (i - lit_start) as u64);
                    out.extend_from_slice(&input[lit_start..i]);
                    write_varint(out, (len - MIN_MATCH + 1) as u64);
                    write_varint(out, dist as u64);
                    // Index the covered positions (sparsely for speed).
                    let stride = if len > 64 { 8 } else { 1 };
                    let mut pos = i + stride;
                    while pos < i + len && m.hashable(pos) {
                        m.insert(pos, gram_product(input, pos));
                        pos += stride;
                    }
                    i += len;
                    lit_start = i;
                    misses = 0;
                }
                None => {
                    m.insert(i, product);
                    misses += 1;
                    // Acceleration for fast levels: skip ahead on repeated misses.
                    let step = if misses > p.skip_trigger {
                        1 + ((misses - p.skip_trigger) / 4) as usize
                    } else {
                        1
                    };
                    i += step;
                }
            }
        }
        // Trailing literals + end marker.
        write_varint(out, (n - lit_start) as u64);
        out.extend_from_slice(&input[lit_start..n]);
        write_varint(out, 0);
    }

    /// [`Self::lz_compress_into`] into a fresh buffer with fresh tables.
    fn lz_compress(&self, input: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        self.lz_compress_into(input, &mut LzScratch::default(), &mut out);
        out
    }

    /// Decodes a raw LZ token stream, appending to `out`, which must
    /// not grow past `limit` bytes (a bound from the caller's framing,
    /// so a corrupt stream cannot balloon the allocation).
    pub(crate) fn lz_decompress_into(
        &self,
        input: &[u8],
        out: &mut Vec<u8>,
        limit: usize,
    ) -> Result<()> {
        self.decode_tokens(Interleaved { buf: input, pos: 0 }, out, limit)
    }

    /// [`Self::lz_decompress_into`] for a token stream split by
    /// [`split_tokens`] into its [`TOKEN_CLASSES`] class streams.
    pub(crate) fn lz_decompress_split_into(
        &self,
        streams: [&[u8]; TOKEN_CLASSES],
        out: &mut Vec<u8>,
        limit: usize,
    ) -> Result<()> {
        let split = Split {
            streams,
            pos: [0; TOKEN_CLASSES],
        };
        self.decode_tokens(split, out, limit)
    }

    fn decode_tokens<'a>(
        &self,
        mut tokens: impl Tokens<'a>,
        out: &mut Vec<u8>,
        limit: usize,
    ) -> Result<()> {
        let dict_bytes: &[u8] = self.dict.as_ref().map_or(&[], |d| d.bytes.as_slice());
        let dlen = dict_bytes.len();
        let base = out.len();
        loop {
            let lit_len = tokens.lit_len()?;
            if lit_len > limit - (out.len() - base) {
                return Err(Error::Corruption("LZ output exceeds its bound".into()));
            }
            out.extend_from_slice(tokens.literals(lit_len)?);
            let len_code = tokens.match_code()?;
            if len_code == 0 {
                return tokens.finish();
            }
            let produced = out.len() - base;
            let dist = tokens.distance()?;
            if dist == 0 || dist > produced + dlen {
                return Err(Error::Corruption(format!(
                    "bad match distance {dist} at output {produced}"
                )));
            }
            let mlen = len_code
                .checked_add(MIN_MATCH - 1)
                .filter(|&m| m <= limit - produced)
                .ok_or_else(|| Error::Corruption("LZ output exceeds its bound".into()))?;
            if dist <= produced {
                // Entirely within produced output (may overlap itself).
                copy_from_output(out, out.len() - dist, mlen);
            } else {
                // Starts in the dictionary; may cross into produced
                // output, which it then reads from its start.
                let start = dlen - (dist - produced);
                let from_dict = mlen.min(dlen - start);
                out.extend_from_slice(&dict_bytes[start..start + from_dict]);
                copy_from_output(out, base, mlen - from_dict);
            }
        }
    }

    /// Decodes a raw LZ token stream.
    fn lz_decompress(&self, input: &[u8]) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(input.len() * 3);
        self.lz_decompress_into(input, &mut out, usize::MAX)?;
        Ok(out)
    }
}

/// Token classes of an LZ stream, each of which a block frame's entropy
/// stage codes with its own Huffman code: literal bytes, literal-run
/// lengths, match lengths, the first byte of each distance and the
/// distances' continuation bytes. Their byte statistics differ enough
/// that separate codes beat one shared code by about a fifth on
/// templated records.
pub(crate) const TOKEN_CLASSES: usize = 5;
const CLASS_LITERAL: usize = 0;
const CLASS_LIT_LEN: usize = 1;
const CLASS_MATCH_LEN: usize = 2;
const CLASS_DIST_FIRST: usize = 3;
const CLASS_DIST_REST: usize = 4;

/// Calls `f(class, bytes)` for each piece of a well-formed token stream
/// (as [`Tzstd::lz_compress_into`] writes it), in stream order.
pub(crate) fn for_each_token_piece(lz: &[u8], mut f: impl FnMut(usize, &[u8])) {
    let mut pos = 0usize;
    let varint = |pos: &mut usize| {
        let start = *pos;
        let v = read_varint(lz, pos).expect("well-formed token stream");
        (start, v as usize)
    };
    loop {
        let (s, lit) = varint(&mut pos);
        f(CLASS_LIT_LEN, &lz[s..pos]);
        f(CLASS_LITERAL, &lz[pos..pos + lit]);
        pos += lit;
        let (s, code) = varint(&mut pos);
        f(CLASS_MATCH_LEN, &lz[s..pos]);
        if code == 0 {
            return;
        }
        let (s, _) = varint(&mut pos);
        f(CLASS_DIST_FIRST, &lz[s..s + 1]);
        f(CLASS_DIST_REST, &lz[s + 1..pos]);
    }
}

/// Splits a well-formed token stream into its class streams, appended
/// to `streams` (the inverse of [`Tzstd::lz_decompress_split_into`]'s
/// reading).
pub(crate) fn split_tokens(lz: &[u8], streams: &mut [Vec<u8>; TOKEN_CLASSES]) {
    for_each_token_piece(lz, |class, bytes| streams[class].extend_from_slice(bytes));
}

/// Where the LZ decoder reads its tokens from. Every read past the end
/// of its stream is [`Error::Corruption`].
trait Tokens<'a> {
    fn lit_len(&mut self) -> Result<usize>;
    fn literals(&mut self, n: usize) -> Result<&'a [u8]>;
    fn match_code(&mut self) -> Result<usize>;
    fn distance(&mut self) -> Result<usize>;
    /// After the end marker: errors unless every byte was consumed.
    fn finish(&self) -> Result<()>;
}

/// The one-stream token format.
struct Interleaved<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Tokens<'a> for Interleaved<'a> {
    fn lit_len(&mut self) -> Result<usize> {
        Ok(read_varint(self.buf, &mut self.pos)? as usize)
    }

    fn literals(&mut self, n: usize) -> Result<&'a [u8]> {
        take(self.buf, &mut self.pos, n)
    }

    fn match_code(&mut self) -> Result<usize> {
        self.lit_len()
    }

    fn distance(&mut self) -> Result<usize> {
        self.lit_len()
    }

    fn finish(&self) -> Result<()> {
        finished(&[self.buf], &[self.pos])
    }
}

/// The token stream split into class streams.
struct Split<'a> {
    streams: [&'a [u8]; TOKEN_CLASSES],
    pos: [usize; TOKEN_CLASSES],
}

impl<'a> Tokens<'a> for Split<'a> {
    fn lit_len(&mut self) -> Result<usize> {
        Ok(read_varint(self.streams[CLASS_LIT_LEN], &mut self.pos[CLASS_LIT_LEN])? as usize)
    }

    fn literals(&mut self, n: usize) -> Result<&'a [u8]> {
        take(self.streams[CLASS_LITERAL], &mut self.pos[CLASS_LITERAL], n)
    }

    fn match_code(&mut self) -> Result<usize> {
        Ok(read_varint(
            self.streams[CLASS_MATCH_LEN],
            &mut self.pos[CLASS_MATCH_LEN],
        )? as usize)
    }

    fn distance(&mut self) -> Result<usize> {
        let first = take(
            self.streams[CLASS_DIST_FIRST],
            &mut self.pos[CLASS_DIST_FIRST],
            1,
        )?[0];
        let low = (first & 0x7f) as usize;
        if first & 0x80 == 0 {
            return Ok(low);
        }
        let rest = read_varint(
            self.streams[CLASS_DIST_REST],
            &mut self.pos[CLASS_DIST_REST],
        )?;
        usize::try_from(rest)
            .ok()
            .and_then(|r| r.checked_mul(128))
            .and_then(|r| r.checked_add(low))
            .ok_or_else(|| Error::Corruption("LZ distance overflows".into()))
    }

    fn finish(&self) -> Result<()> {
        finished(&self.streams, &self.pos)
    }
}

/// The next `n` bytes of `buf` at `*pos`.
#[inline]
fn take<'a>(buf: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8]> {
    if n > buf.len() - *pos {
        return Err(Error::Corruption("LZ token stream truncated".into()));
    }
    *pos += n;
    Ok(&buf[*pos - n..*pos])
}

fn finished(streams: &[&[u8]], pos: &[usize]) -> Result<()> {
    if streams.iter().zip(pos).any(|(s, &p)| p != s.len()) {
        return Err(Error::Corruption(
            "trailing garbage after end marker".into(),
        ));
    }
    Ok(())
}

/// Appends `len` bytes copied from `out[src..]`, where the source may
/// overlap the bytes being appended (an LZ match longer than its
/// distance repeats the last `out.len() - src` bytes). Copies by slice:
/// each round appends as much of the source as exists, so the copyable
/// span doubles until the match is done.
#[inline]
fn copy_from_output(out: &mut Vec<u8>, src: usize, mut len: usize) {
    while len > 0 {
        let chunk = len.min(out.len() - src);
        out.extend_from_within(src..src + chunk);
        len -= chunk;
    }
}

/// Frame modes: how the payload after the mode byte is encoded.
const MODE_STORED: u8 = 0;
const MODE_LZ: u8 = 1;
const MODE_LZ_RC: u8 = 2;

impl Compressor for Tzstd {
    /// Framed pipeline: LZ parse, then the adaptive range coder when it
    /// pays, with a stored fallback so output never exceeds input + 1.
    fn compress(&self, input: &[u8]) -> Vec<u8> {
        let lz = self.lz_compress(input);
        let rc = crate::rangecoder::rc_encode(&lz);
        let mut rc_framed_len = 1 + rc.len();
        let mut lz_len_varint = Vec::new();
        write_varint(&mut lz_len_varint, lz.len() as u64);
        rc_framed_len += lz_len_varint.len();

        if rc_framed_len < lz.len() + 1 && rc_framed_len < input.len() + 1 {
            let mut out = Vec::with_capacity(rc_framed_len);
            out.push(MODE_LZ_RC);
            out.extend_from_slice(&lz_len_varint);
            out.extend_from_slice(&rc);
            out
        } else if lz.len() < input.len() {
            let mut out = Vec::with_capacity(lz.len() + 1);
            out.push(MODE_LZ);
            out.extend_from_slice(&lz);
            out
        } else {
            let mut out = Vec::with_capacity(input.len() + 1);
            out.push(MODE_STORED);
            out.extend_from_slice(input);
            out
        }
    }

    fn decompress(&self, input: &[u8]) -> Result<Vec<u8>> {
        let (&mode, rest) = input
            .split_first()
            .ok_or_else(|| Error::Corruption("empty tzstd frame".into()))?;
        match mode {
            MODE_STORED => Ok(rest.to_vec()),
            MODE_LZ => self.lz_decompress(rest),
            MODE_LZ_RC => {
                let mut pos = 0usize;
                let lz_len = read_varint(rest, &mut pos)? as usize;
                if lz_len > rest.len().saturating_mul(512) + (1 << 20) {
                    return Err(Error::Corruption("implausible LZ length".into()));
                }
                let lz = crate::rangecoder::rc_decode(&rest[pos..], lz_len)?;
                self.lz_decompress(&lz)
            }
            other => Err(Error::Corruption(format!("bad tzstd frame mode {other}"))),
        }
    }

    fn name(&self) -> &'static str {
        if self.dict.is_some() {
            "tzstd-d"
        } else {
            "tzstd"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(c: &Tzstd, data: &[u8]) {
        let z = c.compress(data);
        let back = c.decompress(&z).expect("decompress");
        assert_eq!(back, data, "roundtrip failed for {} bytes", data.len());
    }

    #[test]
    fn varint_roundtrip() {
        for v in [0u64, 1, 127, 128, 300, 1 << 20, u64::MAX] {
            let mut buf = vec![];
            write_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn empty_input() {
        roundtrip(&Tzstd::new(TzstdLevel(1)), b"");
    }

    #[test]
    fn short_input() {
        roundtrip(&Tzstd::new(TzstdLevel(1)), b"abc");
    }

    #[test]
    fn repetitive_input_compresses() {
        let c = Tzstd::new(TzstdLevel(1));
        let data = b"abcabcabcabcabcabcabcabcabcabcabcabc".to_vec();
        let z = c.compress(&data);
        assert!(z.len() < data.len(), "{} !< {}", z.len(), data.len());
        roundtrip(&c, &data);
    }

    #[test]
    fn overlapping_match_roundtrips() {
        // "aaaa..." forces dist=1, len>dist overlapping copies.
        let c = Tzstd::new(TzstdLevel(1));
        roundtrip(&c, &vec![b'a'; 1000]);
    }

    #[test]
    fn incompressible_input_roundtrips() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let data: Vec<u8> = (0..10_000).map(|_| rng.gen()).collect();
        for lvl in [-50, -10, 1, 15, 22] {
            roundtrip(&Tzstd::new(TzstdLevel(lvl)), &data);
        }
    }

    #[test]
    fn higher_level_not_worse_on_text() {
        let text: Vec<u8> = std::iter::repeat_n(
            &b"the quick brown fox jumps over the lazy dog and then the dog chases the fox "[..],
            50,
        )
        .flatten()
        .copied()
        .collect();
        let fast = Tzstd::new(TzstdLevel(-10)).compress(&text).len();
        let slow = Tzstd::new(TzstdLevel(22)).compress(&text).len();
        // The adaptive entropy stage adds a little noise; allow it,
        // but a higher level must never be much worse.
        assert!(
            slow <= fast + fast / 10 + 4,
            "level 22 ({slow}) much worse than -10 ({fast})"
        );
    }

    #[test]
    fn dictionary_improves_small_records() {
        let dict = Arc::new(TrainedDict::new(
            b"{\"uid\":\"0000000000000000\",\"sess\":\"\",\"dev\":\"android\",\"ts\":1700000000}"
                .to_vec(),
        ));
        let record =
            b"{\"uid\":\"ab34cd9821fe4411\",\"sess\":\"x\",\"dev\":\"android\",\"ts\":1712345678}";
        let plain = Tzstd::new(TzstdLevel(1)).compress(record).len();
        let with_dict = Tzstd::with_dict(TzstdLevel(1), dict.clone())
            .compress(record)
            .len();
        assert!(
            with_dict < plain,
            "dict ({with_dict}) should beat plain ({plain})"
        );
        roundtrip(&Tzstd::with_dict(TzstdLevel(1), dict), record);
    }

    #[test]
    fn dict_boundary_crossing_match() {
        // Dictionary ends with a prefix of the record so a match can start
        // in the dictionary and continue into produced output.
        let dict = Arc::new(TrainedDict::new(b"prefix-common-".to_vec()));
        let c = Tzstd::with_dict(TzstdLevel(22), dict);
        roundtrip(&c, b"prefix-common-prefix-common-prefix-common-tail");
    }

    #[test]
    fn wrong_dict_fails_or_differs() {
        let d1 = Arc::new(TrainedDict::new(b"AAAABBBBCCCCDDDD".to_vec()));
        let c1 = Tzstd::with_dict(TzstdLevel(1), d1);
        let data = b"AAAABBBBCCCCDDDDxyz";
        let z = c1.compress(data);
        let c2 = Tzstd::new(TzstdLevel(1));
        // Decompressing without the dictionary must not silently succeed
        // with the right data.
        if let Ok(got) = c2.decompress(&z) {
            assert_ne!(got, data)
        }
    }

    #[test]
    fn corrupted_stream_is_an_error_not_a_panic() {
        let c = Tzstd::new(TzstdLevel(1));
        let z = c.compress(b"hello hello hello hello");
        for i in 0..z.len() {
            let mut bad = z.clone();
            bad[i] ^= 0xff;
            let _ = c.decompress(&bad); // must not panic
        }
        assert!(c.decompress(&[]).is_err());
        assert!(c.decompress(&[0x80]).is_err());
    }

    /// The byte-at-a-time decoder the slice copies replaced: the
    /// reference for every match shape (overlapping, dictionary-crossing,
    /// both).
    fn reference_decode(dict: &[u8], tokens: &[u8]) -> Vec<u8> {
        let mut out: Vec<u8> = Vec::new();
        let mut pos = 0;
        loop {
            let lit = read_varint(tokens, &mut pos).unwrap() as usize;
            out.extend_from_slice(&tokens[pos..pos + lit]);
            pos += lit;
            let code = read_varint(tokens, &mut pos).unwrap() as usize;
            if code == 0 {
                return out;
            }
            let dist = read_varint(tokens, &mut pos).unwrap() as usize;
            let start = dict.len() + out.len() - dist;
            for k in 0..code + MIN_MATCH - 1 {
                let src = start + k;
                let b = if src < dict.len() {
                    dict[src]
                } else {
                    out[src - dict.len()]
                };
                out.push(b);
            }
        }
    }

    /// Builds a valid token stream from `(literal, match_len, dist_seed)`
    /// steps, clamping each distance into the history.
    fn token_stream(dict_len: usize, steps: &[(Vec<u8>, usize, usize)]) -> Vec<u8> {
        let mut tokens = Vec::new();
        let mut produced = 0usize;
        for (lit, mlen, dist_seed) in steps {
            let lit: &[u8] = if lit.is_empty() && produced + dict_len == 0 {
                b"!"
            } else {
                lit
            };
            write_varint(&mut tokens, lit.len() as u64);
            tokens.extend_from_slice(lit);
            produced += lit.len();
            write_varint(&mut tokens, (mlen - MIN_MATCH + 1) as u64);
            write_varint(&mut tokens, (1 + dist_seed % (produced + dict_len)) as u64);
            produced += mlen;
        }
        write_varint(&mut tokens, 0);
        write_varint(&mut tokens, 0);
        tokens
    }

    fn decode_both_ways(dict: &[u8], tokens: &[u8]) -> (Vec<u8>, Vec<u8>) {
        let tz = if dict.is_empty() {
            Tzstd::new(TzstdLevel(1))
        } else {
            Tzstd::with_dict(TzstdLevel(1), Arc::new(TrainedDict::new(dict.to_vec())))
        };
        let mut interleaved = Vec::new();
        tz.lz_decompress_into(tokens, &mut interleaved, usize::MAX)
            .unwrap();
        let mut streams: [Vec<u8>; TOKEN_CLASSES] = Default::default();
        split_tokens(tokens, &mut streams);
        let mut split = Vec::new();
        tz.lz_decompress_split_into(
            streams.each_ref().map(Vec::as_slice),
            &mut split,
            usize::MAX,
        )
        .unwrap();
        (interleaved, split)
    }

    #[test]
    fn slice_copies_match_the_bytewise_reference() {
        let dict = b"abcdefgh";
        let cases: Vec<Vec<(Vec<u8>, usize, usize)>> = vec![
            // Overlap within the output (distance 1 and 2).
            vec![(b"X".to_vec(), 20, 0), (b"Y".to_vec(), 33, 1)],
            // Starts in the dictionary, crosses into the output and
            // overlaps what it is producing.
            vec![(b"XY".to_vec(), 30, 9)],
            // Dictionary-crossing with nothing produced yet.
            vec![(Vec::new(), 12, 2)],
            // Long enough for several doubling rounds.
            vec![(b"abc".to_vec(), 5000, 2)],
        ];
        for steps in cases {
            let tokens = token_stream(dict.len(), &steps);
            let expect = reference_decode(dict, &tokens);
            let (interleaved, split) = decode_both_ways(dict, &tokens);
            assert_eq!(interleaved, expect);
            assert_eq!(split, expect);
        }
    }

    #[test]
    fn decode_bound_is_enforced() {
        let tz = Tzstd::new(TzstdLevel(1));
        let tokens = token_stream(0, &[(b"ab".to_vec(), 100, 0)]);
        let mut out = Vec::new();
        assert!(tz.lz_decompress_into(&tokens, &mut out, 101).is_err());
        out.clear();
        tz.lz_decompress_into(&tokens, &mut out, 102).unwrap();
        assert_eq!(out.len(), 102);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_roundtrip_any_bytes(data in proptest::collection::vec(any::<u8>(), 0..2000)) {
            roundtrip(&Tzstd::new(TzstdLevel(1)), &data);
        }

        #[test]
        fn prop_roundtrip_fast_level(data in proptest::collection::vec(any::<u8>(), 0..2000)) {
            roundtrip(&Tzstd::new(TzstdLevel(-50)), &data);
        }

        #[test]
        fn prop_roundtrip_with_dict(
            data in proptest::collection::vec(any::<u8>(), 0..800),
            dict in proptest::collection::vec(any::<u8>(), 0..800),
        ) {
            let d = Arc::new(TrainedDict::new(dict));
            roundtrip(&Tzstd::with_dict(TzstdLevel(15), d), &data);
        }

        /// Random match shapes decode like the bytewise reference,
        /// from the interleaved stream and from its class streams.
        #[test]
        fn prop_slice_copies_match_reference(
            dict in proptest::collection::vec(any::<u8>(), 0..40),
            raw_steps in proptest::collection::vec(
                (proptest::collection::vec(any::<u8>(), 0..6), 4usize..300, any::<usize>()),
                0..12,
            ),
        ) {
            let tokens = token_stream(dict.len(), &raw_steps);
            let expect = reference_decode(&dict, &tokens);
            let (interleaved, split) = decode_both_ways(&dict, &tokens);
            prop_assert_eq!(&interleaved, &expect);
            prop_assert_eq!(&split, &expect);
        }

        /// Compressor output splits into class streams and decodes back.
        #[test]
        fn prop_split_streams_roundtrip(
            data in proptest::collection::vec(0u8..8, 0..3000),
        ) {
            let c = Tzstd::new(TzstdLevel(4));
            let tokens = c.lz_compress(&data);
            let (interleaved, split) = decode_both_ways(&[], &tokens);
            prop_assert_eq!(&interleaved, &data);
            prop_assert_eq!(&split, &data);
        }

        #[test]
        fn prop_compressible_data_shrinks(seed in 0u8..=255) {
            let unit = [seed, seed.wrapping_add(1), seed.wrapping_add(2), b'-'];
            let data: Vec<u8> = unit.iter().cycle().take(400).copied().collect();
            let c = Tzstd::new(TzstdLevel(1));
            prop_assert!(c.compress(&data).len() < data.len());
        }
    }
}

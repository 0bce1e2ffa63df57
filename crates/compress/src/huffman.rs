//! Static canonical Huffman coding — the entropy stage of LZ block
//! frames.
//!
//! A table's writer counts byte histograms over every block's LZ token
//! stream, one per token class, builds a length-limited canonical code
//! from each ([`HuffmanCode::from_histogram`]) and stores their 256
//! code lengths each in the table's dictionary payload
//! ([`HuffmanCode::to_bytes`], two 4-bit lengths per byte). A reader
//! rebuilds the codes from those lengths once at open and decodes with
//! one lookup per symbol into a [`MAX_CODE_LEN`]-bit table. Bits are
//! packed MSB-first.
//!
//! Every code is *complete* — at least two symbols, Kraft sum exactly 1
//! — so every lookup slot decodes to a symbol. A stored length table
//! that is not complete (over- or under-subscribed, all zeros) is
//! rejected as [`Error::Corruption`].

use tb_common::{Error, Result};

/// Longest code, in bits; also the decoder's lookup width.
pub const MAX_CODE_LEN: u32 = 12;
/// Serialized size of a code: 256 4-bit lengths.
pub const CODE_BYTES: usize = 128;
const TABLE_SIZE: usize = 1 << MAX_CODE_LEN;

/// A canonical Huffman code over bytes, with its decode table.
pub struct HuffmanCode {
    lens: [u8; 256],
    codes: [u16; 256],
    /// Decode entry per `MAX_CODE_LEN`-bit window: `symbol | len << 8`.
    table: Box<[u16]>,
}

impl HuffmanCode {
    /// The length-limited code for a byte histogram. Symbols that never
    /// occur get no code, except that a histogram with fewer than two
    /// used symbols is topped up with the lowest unused ones, so the
    /// code is always complete.
    pub fn from_histogram(hist: &[u64; 256]) -> Self {
        let mut syms: Vec<(u64, u8)> = (0..=255u8)
            .filter(|&s| hist[s as usize] > 0)
            .map(|s| (hist[s as usize], s))
            .collect();
        let mut filler = 0u8;
        while syms.len() < 2 {
            if hist[filler as usize] == 0 {
                syms.push((1, filler));
            }
            filler += 1;
        }
        // Most frequent first; ties by symbol, so builds are deterministic.
        syms.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut count = length_counts(&syms);
        limit_lengths(&mut count);
        // Hand the shortest lengths to the most frequent symbols.
        let mut lens = [0u8; 256];
        let mut next = syms.iter();
        for (len, &c) in count.iter().enumerate() {
            for _ in 0..c {
                lens[next.next().expect("one length per symbol").1 as usize] = len as u8;
            }
        }
        Self::from_lengths(lens).expect("a built code is complete")
    }

    /// Rebuilds a code from its lengths, rejecting any table that is not
    /// a complete code of lengths up to [`MAX_CODE_LEN`].
    pub fn from_lengths(lens: [u8; 256]) -> Result<Self> {
        let mut count = [0u32; MAX_CODE_LEN as usize + 1];
        for &l in &lens {
            if l as u32 > MAX_CODE_LEN {
                return Err(Error::Corruption(format!("huffman code length {l}")));
            }
            count[l as usize] += 1;
        }
        let kraft: u64 = (1..=MAX_CODE_LEN as usize)
            .map(|l| (count[l] as u64) << (MAX_CODE_LEN as usize - l))
            .sum();
        if kraft != TABLE_SIZE as u64 {
            return Err(Error::Corruption(
                "huffman code lengths are not a complete code".into(),
            ));
        }
        // Canonical codes: by length, then by symbol.
        let mut next_code = [0u16; MAX_CODE_LEN as usize + 1];
        let mut code = 0u16;
        for l in 1..=MAX_CODE_LEN as usize {
            code = (code + count[l - 1] as u16 * (l > 1) as u16) << 1;
            next_code[l] = code;
        }
        let mut codes = [0u16; 256];
        let mut table = vec![0u16; TABLE_SIZE].into_boxed_slice();
        for s in 0..256 {
            let l = lens[s] as u32;
            if l == 0 {
                continue;
            }
            let c = next_code[l as usize];
            next_code[l as usize] += 1;
            codes[s] = c;
            let first = (c as usize) << (MAX_CODE_LEN - l);
            table[first..first + (1 << (MAX_CODE_LEN - l))].fill(s as u16 | (l as u16) << 8);
        }
        Ok(Self { lens, codes, table })
    }

    /// The serialized code: 256 4-bit lengths, two per byte.
    pub fn to_bytes(&self) -> [u8; CODE_BYTES] {
        let mut out = [0u8; CODE_BYTES];
        for (i, b) in out.iter_mut().enumerate() {
            *b = self.lens[2 * i] | self.lens[2 * i + 1] << 4;
        }
        out
    }

    /// Parses [`Self::to_bytes`] output.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        if bytes.len() != CODE_BYTES {
            return Err(Error::Corruption("huffman code table truncated".into()));
        }
        let mut lens = [0u8; 256];
        for (i, &b) in bytes.iter().enumerate() {
            lens[2 * i] = b & 0x0f;
            lens[2 * i + 1] = b >> 4;
        }
        Self::from_lengths(lens)
    }

    /// Code length of each symbol (0 = no code).
    pub fn lengths(&self) -> &[u8; 256] {
        &self.lens
    }

    /// Bits [`Self::encode`] would emit for `data`, or `None` when some
    /// byte of `data` has no code.
    pub fn encoded_bits(&self, data: &[u8]) -> Option<u64> {
        let mut bits = 0u64;
        let mut missing = false;
        for &b in data {
            let l = self.lens[b as usize];
            missing |= l == 0;
            bits += l as u64;
        }
        (!missing).then_some(bits)
    }

    /// Appends the code of every byte of `data` to `out`, MSB-first,
    /// zero-padded to a byte. Every byte must have a code (see
    /// [`Self::encoded_bits`]).
    pub fn encode(&self, data: &[u8], out: &mut Vec<u8>) {
        let mut acc = 0u64;
        let mut n = 0u32;
        for &b in data {
            let l = self.lens[b as usize] as u32;
            debug_assert!(l > 0, "byte {b} has no code");
            acc = (acc << l) | self.codes[b as usize] as u64;
            n += l;
            if n >= 32 {
                n -= 32;
                out.extend_from_slice(&((acc >> n) as u32).to_be_bytes());
            }
        }
        while n >= 8 {
            n -= 8;
            out.push((acc >> n) as u8);
        }
        if n > 0 {
            out.push((acc << (8 - n)) as u8);
        }
    }

    /// Decodes exactly `count` symbols from `input` (the whole of an
    /// [`Self::encode`] output), appending them to `out`. A count the
    /// input cannot hold, a stream that runs out early, or bytes left
    /// over are [`Error::Corruption`]; `count` is checked before any
    /// allocation.
    pub fn decode(&self, input: &[u8], count: usize, out: &mut Vec<u8>) -> Result<()> {
        // Every code is at least one bit long.
        if count as u64 > input.len() as u64 * 8 {
            return Err(Error::Corruption(
                "huffman symbol count exceeds its payload".into(),
            ));
        }
        out.reserve(count);
        let table = &self.table[..];
        // Left-aligned bit window: the top `nbits` bits are valid.
        let mut bits = 0u64;
        let mut nbits = 0u32;
        let mut pos = 0usize;
        let mut left = count;
        let step = |bits: &mut u64, nbits: &mut u32, out: &mut Vec<u8>| {
            let e = table[(*bits >> (64 - MAX_CODE_LEN)) as usize];
            let l = (e >> 8) as u32;
            out.push(e as u8);
            *bits <<= l;
            *nbits -= l;
        };
        // Fast path: one 8-byte load tops the window up to at least 56
        // bits, enough for four codes.
        while left >= 4 && pos + 8 <= input.len() {
            let w = u64::from_be_bytes(input[pos..pos + 8].try_into().unwrap());
            bits |= w >> nbits;
            let take = (63 - nbits) >> 3;
            pos += take as usize;
            nbits += take * 8;
            for _ in 0..4 {
                step(&mut bits, &mut nbits, out);
            }
            left -= 4;
        }
        // Tail: byte-wise refills, checking every code fits.
        while left > 0 {
            while nbits <= 56 && pos < input.len() {
                bits |= (input[pos] as u64) << (56 - nbits);
                pos += 1;
                nbits += 8;
            }
            let l = (table[(bits >> (64 - MAX_CODE_LEN)) as usize] >> 8) as u32;
            if l > nbits {
                return Err(Error::Corruption("huffman stream truncated".into()));
            }
            step(&mut bits, &mut nbits, out);
            left -= 1;
        }
        let consumed_bits = pos as u64 * 8 - nbits as u64;
        if consumed_bits.div_ceil(8) != input.len() as u64 {
            return Err(Error::Corruption(
                "huffman stream has trailing bytes".into(),
            ));
        }
        Ok(())
    }
}

/// Number of symbols per code length (index = length) of an unlimited
/// Huffman code for `syms`, sorted most frequent first.
fn length_counts(syms: &[(u64, u8)]) -> Vec<u32> {
    // Two-queue construction: leaves in ascending weight, and internal
    // nodes, which are created in ascending weight too.
    let n = syms.len();
    let leaves: Vec<u64> = syms.iter().rev().map(|s| s.0).collect();
    let mut weight: Vec<u64> = Vec::with_capacity(n - 1);
    let mut parent = vec![0usize; 2 * n - 1];
    // Node ids: leaves 0..n, internal nodes n.. in creation order.
    let (mut li, mut ni) = (0usize, 0usize);
    for k in 0..n - 1 {
        let mut kids = [(0usize, 0u64); 2];
        for kid in &mut kids {
            *kid = if li < n && (ni >= weight.len() || leaves[li] <= weight[ni]) {
                li += 1;
                (li - 1, leaves[li - 1])
            } else {
                ni += 1;
                (n + ni - 1, weight[ni - 1])
            };
        }
        parent[kids[0].0] = n + k;
        parent[kids[1].0] = n + k;
        weight.push(kids[0].1 + kids[1].1);
    }
    // Depths: the root is the last internal node; parents come later.
    let mut depth = vec![0u32; 2 * n - 1];
    for id in (0..2 * n - 2).rev() {
        depth[id] = depth[parent[id]] + 1;
    }
    let max = (0..n).map(|l| depth[l]).max().unwrap_or(0) as usize;
    let mut count = vec![0u32; max.max(MAX_CODE_LEN as usize) + 1];
    for &d in &depth[..n] {
        count[d as usize] += 1;
    }
    count
}

/// Reshapes per-length counts of a complete code so no code is longer
/// than [`MAX_CODE_LEN`], keeping the code complete (the JPEG
/// `Adjust_BITS` procedure): two deepest leaves become one leaf a level
/// up, and a shallower leaf splits to take the other.
fn limit_lengths(count: &mut Vec<u32>) {
    let limit = MAX_CODE_LEN as usize;
    for i in (limit + 1..count.len()).rev() {
        while count[i] > 0 {
            let mut j = i - 2;
            while count[j] == 0 {
                j -= 1;
            }
            count[i] -= 2;
            count[i - 1] += 1;
            count[j + 1] += 2;
            count[j] -= 1;
        }
    }
    count.truncate(limit + 1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn histogram(data: &[u8]) -> [u64; 256] {
        let mut h = [0u64; 256];
        for &b in data {
            h[b as usize] += 1;
        }
        h
    }

    fn roundtrip(code: &HuffmanCode, data: &[u8]) {
        let mut enc = Vec::new();
        code.encode(data, &mut enc);
        assert_eq!(
            enc.len() as u64,
            code.encoded_bits(data).unwrap().div_ceil(8)
        );
        let mut dec = Vec::new();
        code.decode(&enc, data.len(), &mut dec).unwrap();
        assert_eq!(dec, data);
    }

    #[test]
    fn skewed_histogram_is_length_limited_and_complete() {
        // Fibonacci weights force an unlimited depth of ~40.
        let mut h = [0u64; 256];
        let (mut a, mut b) = (1u64, 1u64);
        for slot in h.iter_mut().take(40) {
            *slot = a;
            (a, b) = (b, a + b);
        }
        let code = HuffmanCode::from_histogram(&h);
        assert!(code.lengths().iter().all(|&l| l as u32 <= MAX_CODE_LEN));
        assert_eq!(code.lengths().iter().filter(|&&l| l > 0).count(), 40);
        let data: Vec<u8> = (0..40u8).cycle().take(1000).collect();
        roundtrip(&code, &data);
    }

    #[test]
    fn single_and_empty_histograms_still_build_complete_codes() {
        for data in [&b""[..], b"aaaaaaa", b"\0\0\0"] {
            let code = HuffmanCode::from_histogram(&histogram(data));
            assert_eq!(code.lengths().iter().filter(|&&l| l > 0).count(), 2);
            roundtrip(&code, data);
        }
    }

    #[test]
    fn skewed_data_beats_eight_bits_per_byte() {
        let data: Vec<u8> = b"aaaaaaaabbbbccd"
            .iter()
            .cycle()
            .take(3000)
            .copied()
            .collect();
        let code = HuffmanCode::from_histogram(&histogram(&data));
        let bits = code.encoded_bits(&data).unwrap();
        assert!(bits < data.len() as u64 * 3, "{bits} bits");
        roundtrip(&code, &data);
    }

    #[test]
    fn serialized_lengths_roundtrip() {
        let data: Vec<u8> = (0..=255u8).chain(b"hello world".iter().copied()).collect();
        let code = HuffmanCode::from_histogram(&histogram(&data));
        let back = HuffmanCode::from_bytes(&code.to_bytes()).unwrap();
        assert_eq!(back.lengths(), code.lengths());
        roundtrip(&back, &data);
    }

    #[test]
    fn incomplete_or_oversubscribed_lengths_are_corruption() {
        let mut zeros = [0u8; 256];
        assert!(matches!(
            HuffmanCode::from_lengths(zeros),
            Err(Error::Corruption(_))
        ));
        // One symbol of length 1: Kraft sum 1/2.
        zeros[7] = 1;
        assert!(HuffmanCode::from_lengths(zeros).is_err());
        // Three symbols of length 1: Kraft sum 3/2.
        let mut over = [0u8; 256];
        over[..3].fill(1);
        assert!(HuffmanCode::from_lengths(over).is_err());
        // A length over the limit.
        let mut long = [8u8; 256];
        long[0] = MAX_CODE_LEN as u8 + 1;
        assert!(HuffmanCode::from_lengths(long).is_err());
        // Flat 8-bit code is complete.
        assert!(HuffmanCode::from_lengths([8u8; 256]).is_ok());
        assert!(HuffmanCode::from_bytes(&[0x88; CODE_BYTES - 1]).is_err());
    }

    #[test]
    fn truncated_garbage_and_oversized_counts_are_corruption() {
        let data: Vec<u8> = b"the quick brown fox jumps over the lazy dog"
            .iter()
            .cycle()
            .take(500)
            .copied()
            .collect();
        let code = HuffmanCode::from_histogram(&histogram(&data));
        let mut enc = Vec::new();
        code.encode(&data, &mut enc);
        let mut out = Vec::new();
        // Truncated payload.
        for cut in [0, 1, enc.len() / 2, enc.len() - 1] {
            out.clear();
            assert!(matches!(
                code.decode(&enc[..cut], data.len(), &mut out),
                Err(Error::Corruption(_))
            ));
        }
        // Trailing bytes.
        let mut long = enc.clone();
        long.extend_from_slice(&[0u8; 3]);
        assert!(code.decode(&long, data.len(), &mut out).is_err());
        // A count no payload could hold is refused before allocating.
        let mut out = Vec::new();
        assert!(code.decode(&enc, usize::MAX, &mut out).is_err());
        assert_eq!(out.capacity(), 0);
        // Garbage decodes to something or fails, never panics.
        let garbage: Vec<u8> = (0..enc.len()).map(|i| (i * 37 + 11) as u8).collect();
        let _ = code.decode(&garbage, data.len(), &mut Vec::new());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any data round-trips through the code built from its own
        /// histogram.
        #[test]
        fn prop_roundtrip_own_histogram(data in proptest::collection::vec(any::<u8>(), 0..3000)) {
            let code = HuffmanCode::from_histogram(&histogram(&data));
            roundtrip(&code, &data);
        }

        /// Skewed alphabets (a few symbols dominating) round-trip and
        /// stay within the length limit.
        #[test]
        fn prop_roundtrip_skewed(
            data in proptest::collection::vec(0u8..6, 0..3000),
            extra in proptest::collection::vec(any::<u8>(), 0..20),
        ) {
            let mut all = data.clone();
            all.extend_from_slice(&extra);
            let code = HuffmanCode::from_histogram(&histogram(&all));
            prop_assert!(code.lengths().iter().all(|&l| l as u32 <= MAX_CODE_LEN));
            roundtrip(&code, &all);
        }

        /// Decoding arbitrary bytes with an arbitrary count never
        /// panics.
        #[test]
        fn prop_decode_garbage_never_panics(
            garbage in proptest::collection::vec(any::<u8>(), 0..300),
            count in 0usize..4000,
        ) {
            let code = HuffmanCode::from_histogram(&histogram(b"abracadabra"));
            let _ = code.decode(&garbage, count, &mut Vec::new());
        }
    }
}

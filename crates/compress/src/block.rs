//! Per-block compressed frames for the SSTable data path.
//!
//! Every on-disk data block is wrapped in a versioned frame:
//!
//! ```text
//! frame := codec_tag u8 | uncompressed_len u32 LE | crc32(payload) u32 LE | payload
//! ```
//!
//! The codec is chosen per table ([`BlockCodec`]) and its trained state
//! (tzstd dictionary, Huffman code, PBC pattern table) is serialized into
//! a table-level *dictionary payload* stored next to the data blocks, so
//! a table is self-describing: reopening it needs only the footer's
//! codec byte and the dictionary payload, never the training samples.
//!
//! The LZ codecs ([`BlockCodec::Lz`], [`BlockCodec::Dict`]) parse each
//! block into a tzstd token stream, split it into five class streams
//! (literals, literal lengths, match lengths, first and further
//! distance bytes) and code each class with its own static
//! Huffman code. The codes are built once per table, from the byte
//! histograms of all the table's token streams ([`TableEncoder`]):
//!
//! ```text
//! lz payload   := 1 u8 | varint(symbols_c) x5 | varint(bytes_c) x4 | stream_0..stream_4
//!               | 0 u8 | lz token stream                 (LZ-only fallback)
//! dict payload := has_codes u8 | [5 x 128 bytes of code lengths] | dict bytes
//! ```
//!
//! (`bytes_4`, the last stream's size, is whatever the payload has
//! left.)
//!
//! Per-block fallbacks: a block whose Huffman payload would be larger
//! than its bare token stream is framed LZ-only, and when compression
//! does not shrink a block at all (or the codec is [`BlockCodec::None`])
//! the frame carries the raw bytes under [`FRAME_TAG_STORED`] — still
//! CRC-checked, so every block read is checksummed regardless of codec.

use crate::dict::train_dictionary;
use crate::huffman::{HuffmanCode, CODE_BYTES};
use crate::lz::{for_each_token_piece, split_tokens, LzScratch, TrainedDict, TOKEN_CLASSES};
use crate::pbc::{Pbc, PbcConfig, PbcModel};
use crate::{Compressor, Tzstd, TzstdLevel};
use std::cell::RefCell;
use std::sync::Arc;
use tb_common::{crc32, read_varint, write_varint, Error, Result};

/// `codec_tag u8 | uncompressed_len u32 | crc32 u32`.
pub const FRAME_HEADER_LEN: usize = 1 + 4 + 4;

/// Frame tag for an uncompressed (stored) payload — shared by every
/// codec as the didn't-shrink fallback, and the only tag
/// [`BlockCodec::None`] emits.
pub const FRAME_TAG_STORED: u8 = 0;

/// Writer-side cap on dictionary training samples collected from a
/// flush/compaction input stream (first N put values, deterministic).
pub const MAX_TRAIN_SAMPLES: usize = 512;

/// Byte budget for a trained tzstd dictionary stored per table.
pub const MAX_DICT_BYTES: usize = 4096;

/// tzstd level of the LZ block codecs: lazy matching, which the match
/// finder's quick rejects make about as cheap as a greedy parse.
const BLOCK_LEVEL: i32 = 4;

/// LZ frame payload modes (the payload's first byte).
const MODE_LZ: u8 = 0;
const MODE_HUFFMAN: u8 = 1;

/// Estimated bytes a Huffman-coded frame spends beyond its coded
/// streams: the mode byte, the symbol counts and stream sizes, and
/// each stream's padding to a byte.
const HUFFMAN_FRAME_OVERHEAD: usize = 16;

/// A table's Huffman codes, one per token class.
type Codes = Box<[HuffmanCode; TOKEN_CLASSES]>;

/// Decoded blocks reserve at most this much up front; a larger header
/// length grows the buffer only as real output arrives.
const MAX_DECODE_RESERVE: usize = 1 << 20;

/// Per-table block codec, chosen from `LsmConfig`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BlockCodec {
    /// Stored frames only (still CRC-checked).
    #[default]
    None,
    /// tzstd without a dictionary.
    Lz,
    /// Pattern-based compression; the trained model is the table's
    /// dictionary payload.
    Pbc,
    /// tzstd with a dictionary trained on the table's input values.
    Dict,
}

impl BlockCodec {
    pub const ALL: [BlockCodec; 4] = [
        BlockCodec::None,
        BlockCodec::Lz,
        BlockCodec::Pbc,
        BlockCodec::Dict,
    ];

    /// The frame tag this codec stamps on compressed frames (and the
    /// footer's codec byte). [`FRAME_TAG_STORED`] is deliberately the
    /// same value as `None`'s tag: a `None` table only emits stored
    /// frames.
    pub fn tag(self) -> u8 {
        match self {
            BlockCodec::None => 0,
            BlockCodec::Lz => 1,
            BlockCodec::Pbc => 2,
            BlockCodec::Dict => 3,
        }
    }

    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(BlockCodec::None),
            1 => Some(BlockCodec::Lz),
            2 => Some(BlockCodec::Pbc),
            3 => Some(BlockCodec::Dict),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            BlockCodec::None => "none",
            BlockCodec::Lz => "lz",
            BlockCodec::Pbc => "pbc",
            BlockCodec::Dict => "dict",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "none" => Some(BlockCodec::None),
            "lz" => Some(BlockCodec::Lz),
            "pbc" => Some(BlockCodec::Pbc),
            "dict" => Some(BlockCodec::Dict),
            _ => None,
        }
    }
}

/// How a table's compressed frames are produced and read back.
enum Coder {
    /// Stored frames only.
    Stored,
    /// tzstd token streams, Huffman-coded with the table's codes when
    /// it has them.
    Lz {
        tz: Tzstd,
        codes: Option<Codes>,
    },
    Pbc(Pbc),
}

/// A table's codec plus its trained state: built by the writer from
/// sampled input values ([`BlockCodecState::train`], then a
/// [`TableEncoder`] pass over the blocks) or rebuilt by a reader from
/// the stored dictionary payload ([`BlockCodecState::from_dict_payload`]).
pub struct BlockCodecState {
    codec: BlockCodec,
    coder: Coder,
    dict_payload: Vec<u8>,
}

impl Default for BlockCodecState {
    fn default() -> Self {
        Self {
            codec: BlockCodec::None,
            coder: Coder::Stored,
            dict_payload: Vec::new(),
        }
    }
}

thread_local! {
    /// Per-thread buffer for a frame's Huffman-decoded class streams.
    static LZ_SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

impl BlockCodecState {
    /// Trains the codec from sampled input values (flush/compaction
    /// collects the first [`MAX_TRAIN_SAMPLES`] put values, so training
    /// is deterministic for a fixed input stream).
    pub fn train(codec: BlockCodec, samples: &[Vec<u8>]) -> Self {
        match codec {
            BlockCodec::None => Self::default(),
            BlockCodec::Lz => Self::lz(codec, Tzstd::new(TzstdLevel(BLOCK_LEVEL)), None),
            BlockCodec::Dict => {
                let dict = train_dictionary(samples, MAX_DICT_BYTES);
                let tz = if dict.is_empty() {
                    Tzstd::new(TzstdLevel(BLOCK_LEVEL))
                } else {
                    Tzstd::with_dict(TzstdLevel(BLOCK_LEVEL), dict)
                };
                Self::lz(codec, tz, None)
            }
            BlockCodec::Pbc => {
                let model = PbcModel::train(samples, &PbcConfig::default());
                let dict_payload = model.to_bytes();
                Self {
                    codec,
                    coder: Coder::Pbc(Pbc::new(Arc::new(model))),
                    dict_payload,
                }
            }
        }
    }

    /// An LZ codec's state; its payload serializes `codes` and the
    /// dictionary.
    fn lz(codec: BlockCodec, tz: Tzstd, codes: Option<Codes>) -> Self {
        let mut dict_payload = vec![codes.is_some() as u8];
        for code in codes.iter().flat_map(|c| c.iter()) {
            dict_payload.extend_from_slice(&code.to_bytes());
        }
        if let Some(dict) = tz.dictionary() {
            dict_payload.extend_from_slice(dict.as_bytes());
        }
        Self {
            codec,
            coder: Coder::Lz { tz, codes },
            dict_payload,
        }
    }

    /// Rebuilds the state from a table's stored dictionary payload. A
    /// malformed payload — unknown layout, a Huffman code that is not a
    /// complete code — is [`Error::Corruption`].
    pub fn from_dict_payload(codec: BlockCodec, payload: &[u8]) -> Result<Self> {
        match codec {
            BlockCodec::None => Ok(Self::default()),
            BlockCodec::Lz | BlockCodec::Dict => {
                const CODES_LEN: usize = TOKEN_CLASSES * CODE_BYTES;
                let (&has_codes, rest) = payload
                    .split_first()
                    .ok_or_else(|| Error::Corruption("empty lz dict payload".into()))?;
                let (codes, dict) = match has_codes {
                    0 => (None, rest),
                    1 if rest.len() >= CODES_LEN => {
                        let codes = rest[..CODES_LEN]
                            .chunks(CODE_BYTES)
                            .map(HuffmanCode::from_bytes)
                            .collect::<Result<Vec<_>>>()?;
                        let codes: Codes = codes
                            .into_boxed_slice()
                            .try_into()
                            .unwrap_or_else(|_| unreachable!("one code per class"));
                        (Some(codes), &rest[CODES_LEN..])
                    }
                    _ => {
                        return Err(Error::Corruption(format!(
                            "bad lz dict payload header {has_codes} ({} bytes)",
                            payload.len()
                        )))
                    }
                };
                let tz = match (codec, dict.is_empty()) {
                    (_, true) => Tzstd::new(TzstdLevel(BLOCK_LEVEL)),
                    (BlockCodec::Dict, false) => Tzstd::with_dict(
                        TzstdLevel(BLOCK_LEVEL),
                        Arc::new(TrainedDict::new(dict.to_vec())),
                    ),
                    _ => {
                        return Err(Error::Corruption(
                            "lz table payload carries a dictionary".into(),
                        ))
                    }
                };
                Ok(Self::lz(codec, tz, codes))
            }
            BlockCodec::Pbc => {
                let model = PbcModel::from_bytes(payload)?;
                Ok(Self {
                    codec,
                    coder: Coder::Pbc(Pbc::new(Arc::new(model))),
                    dict_payload: payload.to_vec(),
                })
            }
        }
    }

    pub fn codec(&self) -> BlockCodec {
        self.codec
    }

    /// The trained part of this state — dictionary or PBC model, shared,
    /// not copied — without any Huffman codes, ready for
    /// [`TableEncoder::with_trained`] to encode another table.
    pub fn trained(&self) -> Self {
        match &self.coder {
            Coder::Stored => Self::default(),
            Coder::Lz { tz, .. } => {
                let tz = match tz.dictionary() {
                    Some(dict) => Tzstd::with_dict(tz.level(), dict.clone()),
                    None => Tzstd::new(tz.level()),
                };
                Self::lz(self.codec, tz, None)
            }
            Coder::Pbc(pbc) => Self {
                codec: self.codec,
                coder: Coder::Pbc(Pbc::new(pbc.model().clone())),
                dict_payload: self.dict_payload.clone(),
            },
        }
    }

    /// The serialized trained state the writer must store per table.
    pub fn dict_payload(&self) -> &[u8] {
        &self.dict_payload
    }

    /// Whether the state carries the table's Huffman codes.
    pub fn has_huffman_codes(&self) -> bool {
        matches!(self.coder, Coder::Lz { codes: Some(_), .. })
    }

    /// Appends one frame for `block` to `out`, compressing it on its
    /// own: the LZ codecs parse it with fresh tables and use the
    /// state's Huffman codes if it has them and they cover the block.
    /// Falls back to a stored frame when compression does not shrink
    /// the block (so output frames never exceed `block.len() +
    /// FRAME_HEADER_LEN`). Returns `true` when the frame carries a
    /// compressed payload. A table build uses [`TableEncoder`] instead.
    pub fn encode_frame(&self, block: &[u8], out: &mut Vec<u8>) -> bool {
        match &self.coder {
            Coder::Stored => push_stored(out, block),
            Coder::Lz { tz, codes } => {
                let mut lz = Vec::new();
                tz.lz_compress_into(block, &mut LzScratch::default(), &mut lz);
                let mut streams = Default::default();
                self.push_lz(block, &lz, codes.as_deref(), &mut streams, out)
                    .is_some()
            }
            Coder::Pbc(pbc) => {
                let z = pbc.compress(block);
                if z.len() < block.len() {
                    push_frame(out, self.codec.tag(), block.len(), |o| {
                        o.extend_from_slice(&z)
                    });
                    true
                } else {
                    push_stored(out, block)
                }
            }
        }
    }

    /// Frames `block` from its LZ token stream `lz`: Huffman-coded,
    /// LZ-only or stored, whichever is smallest (`streams` is scratch).
    /// Returns whether the frame is compressed (`Some`) and if so
    /// whether it used the codes.
    fn push_lz(
        &self,
        block: &[u8],
        lz: &[u8],
        codes: Option<&[HuffmanCode; TOKEN_CLASSES]>,
        streams: &mut [Vec<u8>; TOKEN_CLASSES],
        out: &mut Vec<u8>,
    ) -> Option<bool> {
        let lz_only = 1 + lz.len();
        let coded = codes.and_then(|codes| {
            streams.iter_mut().for_each(Vec::clear);
            split_tokens(lz, streams);
            let mut size = 1;
            let mut bytes = [0usize; TOKEN_CLASSES];
            for c in 0..TOKEN_CLASSES {
                bytes[c] = codes[c].encoded_bits(&streams[c])?.div_ceil(8) as usize;
                size += varint_len(streams[c].len() as u64) + bytes[c];
                if c + 1 < TOKEN_CLASSES {
                    size += varint_len(bytes[c] as u64);
                }
            }
            Some((codes, bytes, size))
        });
        match coded {
            Some((codes, bytes, size)) if size < lz_only && size < block.len() => {
                push_frame(out, self.codec.tag(), block.len(), |o| {
                    o.push(MODE_HUFFMAN);
                    for stream in streams.iter() {
                        write_varint(o, stream.len() as u64);
                    }
                    for &b in &bytes[..TOKEN_CLASSES - 1] {
                        write_varint(o, b as u64);
                    }
                    for (code, stream) in codes.iter().zip(streams.iter()) {
                        code.encode(stream, o);
                    }
                });
                Some(true)
            }
            _ if lz_only < block.len() => {
                push_frame(out, self.codec.tag(), block.len(), |o| {
                    o.push(MODE_LZ);
                    o.extend_from_slice(lz);
                });
                Some(false)
            }
            _ => {
                push_stored(out, block);
                None
            }
        }
    }

    /// Decodes and verifies one frame, returning the uncompressed block
    /// bytes. Every failure — truncated header, CRC mismatch, foreign
    /// codec tag, garbage payload, length mismatch — is
    /// [`Error::Corruption`], so a bad block surfaces as a per-slot
    /// corruption error and never a torn batch.
    pub fn decode_frame(&self, frame: &[u8]) -> Result<Vec<u8>> {
        if frame.len() < FRAME_HEADER_LEN {
            return Err(Error::Corruption("sstable block frame truncated".into()));
        }
        let tag = frame[0];
        let ulen = u32::from_le_bytes(frame[1..5].try_into().unwrap()) as usize;
        let stored_crc = u32::from_le_bytes(frame[5..9].try_into().unwrap());
        let payload = &frame[FRAME_HEADER_LEN..];
        if crc32(payload) != stored_crc {
            return Err(Error::Corruption("sstable block frame crc mismatch".into()));
        }
        if tag == FRAME_TAG_STORED {
            if payload.len() != ulen {
                return Err(Error::Corruption(
                    "stored block frame length mismatch".into(),
                ));
            }
            return Ok(payload.to_vec());
        }
        if tag != self.codec.tag() {
            return Err(Error::Corruption(format!(
                "block frame codec tag {tag} does not match table codec {}",
                self.codec.name()
            )));
        }
        let raw = match &self.coder {
            Coder::Stored => unreachable!("a stored-only table's tag is FRAME_TAG_STORED"),
            Coder::Lz { tz, codes } => decode_lz(tz, codes.as_deref(), payload, ulen)?,
            Coder::Pbc(pbc) => pbc
                .decompress(payload)
                .map_err(|e| Error::Corruption(format!("block frame payload: {e}")))?,
        };
        if raw.len() != ulen {
            return Err(Error::Corruption(format!(
                "block frame decompressed to {} bytes, header says {ulen}",
                raw.len()
            )));
        }
        Ok(raw)
    }
}

/// Decodes an LZ codec's frame payload into at most `ulen` bytes.
fn decode_lz(
    tz: &Tzstd,
    codes: Option<&[HuffmanCode; TOKEN_CLASSES]>,
    payload: &[u8],
    ulen: usize,
) -> Result<Vec<u8>> {
    let (&mode, body) = payload
        .split_first()
        .ok_or_else(|| Error::Corruption("empty lz frame payload".into()))?;
    let mut out = Vec::with_capacity(ulen.min(MAX_DECODE_RESERVE));
    match mode {
        MODE_LZ => tz.lz_decompress_into(body, &mut out, ulen)?,
        MODE_HUFFMAN => {
            let codes = codes.ok_or_else(|| {
                Error::Corruption("huffman-coded frame in a table without codes".into())
            })?;
            let mut pos = 0usize;
            let mut varint = || -> Result<usize> {
                usize::try_from(read_varint(body, &mut pos)?)
                    .map_err(|_| Error::Corruption("implausible stream size".into()))
            };
            let mut symbols = [0usize; TOKEN_CLASSES];
            for s in &mut symbols {
                *s = varint()?;
            }
            let mut sizes = [0usize; TOKEN_CLASSES - 1];
            for s in &mut sizes {
                *s = varint()?;
            }
            // The class streams, back to back; the last takes the rest.
            let mut coded = [&[][..]; TOKEN_CLASSES];
            let mut rest = &body[pos..];
            for (stream, &size) in coded.iter_mut().zip(&sizes) {
                if size > rest.len() {
                    return Err(Error::Corruption("lz frame streams truncated".into()));
                }
                (*stream, rest) = rest.split_at(size);
            }
            coded[TOKEN_CLASSES - 1] = rest;
            LZ_SCRATCH.with(|scratch| -> Result<()> {
                let mut buf = scratch.borrow_mut();
                buf.clear();
                // Each class decodes into its own section of `buf`;
                // `HuffmanCode::decode` bounds every count by its
                // stream's size before reserving.
                let mut ends = [0usize; TOKEN_CLASSES];
                for c in 0..TOKEN_CLASSES {
                    codes[c].decode(coded[c], symbols[c], &mut buf)?;
                    ends[c] = buf.len();
                }
                let mut start = 0;
                let streams = ends.map(|end| {
                    let s = &buf[start..end];
                    start = end;
                    s
                });
                tz.lz_decompress_split_into(streams, &mut out, ulen)
            })?;
        }
        other => return Err(Error::Corruption(format!("bad lz frame mode {other}"))),
    }
    Ok(out)
}

/// Encodes one table's blocks in two passes, so the LZ codecs can
/// entropy-code every frame with Huffman codes built from the whole
/// table: [`Self::parse`] each block in order (the LZ codecs parse it
/// and count its token bytes per class), [`Self::seal`] (builds the
/// codes), then [`Self::encode`] each block in the same order, and
/// [`Self::finish`] for the state whose dictionary payload the table
/// stores. Other codecs skip the first pass and frame blocks one by
/// one.
pub struct TableEncoder {
    state: BlockCodecState,
    /// Pass-1 output: every block's token stream, back to back.
    parsed: Vec<u8>,
    /// End of block `i`'s token stream in `parsed`.
    ends: Vec<usize>,
    /// Byte histogram per token class.
    hist: Box<[[u64; 256]; TOKEN_CLASSES]>,
    scratch: LzScratch,
    streams: [Vec<u8>; TOKEN_CLASSES],
    /// Frames that used the Huffman codes; unused codes are left out
    /// of the payload.
    coded_frames: usize,
}

impl TableEncoder {
    /// Trains the codec (see [`BlockCodecState::train`]).
    pub fn new(codec: BlockCodec, samples: &[Vec<u8>]) -> Self {
        Self::with_trained(BlockCodecState::train(codec, samples))
    }

    /// Encodes with an already trained codec (a
    /// [`BlockCodecState::trained`] copy); the table still gets Huffman
    /// codes of its own.
    pub fn with_trained(state: BlockCodecState) -> Self {
        Self {
            state,
            parsed: Vec::new(),
            ends: Vec::new(),
            hist: Box::new([[0; 256]; TOKEN_CLASSES]),
            scratch: LzScratch::default(),
            streams: Default::default(),
            coded_frames: 0,
        }
    }

    /// Pass 1 for the next block.
    pub fn parse(&mut self, block: &[u8]) {
        if let Coder::Lz { tz, .. } = &self.state.coder {
            let start = self.parsed.len();
            tz.lz_compress_into(block, &mut self.scratch, &mut self.parsed);
            let hist = &mut self.hist;
            for_each_token_piece(&self.parsed[start..], |class, bytes| {
                for &b in bytes {
                    hist[class][b as usize] += 1;
                }
            });
            self.ends.push(self.parsed.len());
        }
    }

    /// Ends pass 1: builds the table's Huffman codes from every parsed
    /// block — unless, on this table's histograms, the coded frames
    /// would not win back the codes' own 640 payload bytes (a small
    /// table), in which case its frames stay LZ-only.
    pub fn seal(&mut self) {
        let Coder::Lz { codes, .. } = &mut self.state.coder else {
            return;
        };
        let hist = &self.hist;
        let built: [HuffmanCode; TOKEN_CLASSES] =
            std::array::from_fn(|c| HuffmanCode::from_histogram(&hist[c]));
        let coded_bits: u64 = built
            .iter()
            .zip(hist.iter())
            .map(|(code, h)| {
                let lens = code.lengths();
                (0..256).map(|b| h[b] * lens[b] as u64).sum::<u64>()
            })
            .sum();
        let coded = coded_bits / 8
            + (self.ends.len() * HUFFMAN_FRAME_OVERHEAD) as u64
            + (TOKEN_CLASSES * CODE_BYTES) as u64;
        if coded < self.parsed.len() as u64 {
            *codes = Some(Box::new(built));
        }
    }

    /// Pass 2: appends block `i`'s frame (`block` is the `i`-th block
    /// given to [`Self::parse`]) to `out`. Returns `true` when the frame
    /// carries a compressed payload.
    pub fn encode(&mut self, i: usize, block: &[u8], out: &mut Vec<u8>) -> bool {
        let Coder::Lz { codes, .. } = &self.state.coder else {
            return self.state.encode_frame(block, out);
        };
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        let lz = &self.parsed[start..self.ends[i]];
        match self
            .state
            .push_lz(block, lz, codes.as_deref(), &mut self.streams, out)
        {
            Some(coded) => {
                self.coded_frames += coded as usize;
                true
            }
            None => false,
        }
    }

    /// The codec state as trained (Huffman codes exist only after
    /// [`Self::seal`]).
    pub fn state(&self) -> &BlockCodecState {
        &self.state
    }

    /// The table's codec state, its dictionary payload final.
    pub fn finish(self) -> BlockCodecState {
        match self.state.coder {
            Coder::Lz { tz, codes } => {
                let codes = codes.filter(|_| self.coded_frames > 0);
                BlockCodecState::lz(self.state.codec, tz, codes)
            }
            _ => self.state,
        }
    }
}

/// Appends a frame whose payload `write_payload` appends, then stamps
/// the payload's CRC into the header.
fn push_frame(
    out: &mut Vec<u8>,
    tag: u8,
    uncompressed_len: usize,
    write_payload: impl FnOnce(&mut Vec<u8>),
) {
    let start = out.len();
    out.push(tag);
    out.extend_from_slice(&(uncompressed_len as u32).to_le_bytes());
    out.extend_from_slice(&[0; 4]);
    write_payload(out);
    let crc = crc32(&out[start + FRAME_HEADER_LEN..]);
    out[start + 5..start + FRAME_HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
}

/// Appends a stored frame; always `false` (not compressed).
fn push_stored(out: &mut Vec<u8>, block: &[u8]) -> bool {
    push_frame(out, FRAME_TAG_STORED, block.len(), |o| {
        o.extend_from_slice(block)
    });
    false
}

fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros()).div_ceil(7) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(state: &BlockCodecState, block: &[u8]) {
        let mut out = Vec::new();
        state.encode_frame(block, &mut out);
        assert!(out.len() >= FRAME_HEADER_LEN);
        assert_eq!(state.decode_frame(&out).unwrap(), block);
    }

    /// Samples shaped like flush input: templated values the dict and
    /// PBC codecs can learn from.
    fn value_samples(n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| {
                format!(
                    "city\t{i:06}\tSpringfield-{}\tpop={}\tcountry=XX\tzone=UTC+8",
                    i % 50,
                    i * 731
                )
                .into_bytes()
            })
            .collect()
    }

    /// A block-shaped corpus: length-prefixed key/value entries with
    /// shared-prefix keys and templated values, like the SSTable data
    /// block encoding produces.
    fn templated_block(entries: usize, seed: u64) -> Vec<u8> {
        let mut block = Vec::new();
        for i in 0..entries {
            let key = format!("user{:012}", seed + i as u64);
            let val = format!("record|{seed}|idx={i}|status=ok|padding=xxxxxxxxxxxxxxxx");
            block.push(0u8);
            block.extend_from_slice(&[key.len() as u8, val.len() as u8]);
            block.extend_from_slice(key.as_bytes());
            block.extend_from_slice(val.as_bytes());
        }
        block
    }

    fn all_states() -> Vec<BlockCodecState> {
        let samples = value_samples(64);
        BlockCodec::ALL
            .iter()
            .map(|&c| BlockCodecState::train(c, &samples))
            .collect()
    }

    #[test]
    fn tags_and_names_roundtrip() {
        for codec in BlockCodec::ALL {
            assert_eq!(BlockCodec::from_tag(codec.tag()), Some(codec));
            assert_eq!(BlockCodec::parse(codec.name()), Some(codec));
        }
        assert_eq!(BlockCodec::from_tag(9), None);
        assert_eq!(BlockCodec::parse("zstd"), None);
    }

    #[test]
    fn empty_block_roundtrips_every_codec() {
        for state in all_states() {
            roundtrip(&state, b"");
        }
    }

    #[test]
    fn compressible_block_shrinks_under_lz() {
        let state = BlockCodecState::train(BlockCodec::Lz, &[]);
        let block = templated_block(40, 7);
        let mut out = Vec::new();
        let compressed = state.encode_frame(&block, &mut out);
        assert!(compressed, "templated block should compress");
        assert!(out.len() < block.len() + FRAME_HEADER_LEN);
        assert_eq!(state.decode_frame(&out).unwrap(), block);
    }

    #[test]
    fn incompressible_block_stores_raw() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let block: Vec<u8> = (0..2048).map(|_| rng.gen()).collect();
        for state in all_states() {
            let mut out = Vec::new();
            let compressed = state.encode_frame(&block, &mut out);
            if state.codec() != BlockCodec::None {
                assert!(!compressed, "random bytes must not 'compress'");
            }
            assert_eq!(out[0], FRAME_TAG_STORED);
            assert_eq!(out.len(), block.len() + FRAME_HEADER_LEN);
            assert_eq!(state.decode_frame(&out).unwrap(), block);
        }
    }

    #[test]
    fn reader_state_rebuilt_from_dict_payload_decodes_writer_frames() {
        let samples = value_samples(128);
        let block = templated_block(60, 42);
        for codec in BlockCodec::ALL {
            let writer = BlockCodecState::train(codec, &samples);
            let mut frame = Vec::new();
            writer.encode_frame(&block, &mut frame);
            let reader = BlockCodecState::from_dict_payload(codec, writer.dict_payload()).unwrap();
            assert_eq!(
                reader.decode_frame(&frame).unwrap(),
                block,
                "codec {} frames must decode from stored state alone",
                codec.name()
            );
        }
    }

    #[test]
    fn dict_training_is_deterministic_for_fixed_input() {
        let samples = value_samples(256);
        for codec in [BlockCodec::Dict, BlockCodec::Pbc] {
            let a = BlockCodecState::train(codec, &samples);
            let b = BlockCodecState::train(codec, &samples);
            assert_eq!(
                a.dict_payload(),
                b.dict_payload(),
                "{} training must be deterministic",
                codec.name()
            );
            let block = templated_block(30, 9);
            let (mut fa, mut fb) = (Vec::new(), Vec::new());
            a.encode_frame(&block, &mut fa);
            b.encode_frame(&block, &mut fb);
            assert_eq!(fa, fb, "{} frames must be deterministic", codec.name());
        }
    }

    #[test]
    fn corrupted_frames_are_corruption_errors_never_panics() {
        let block = templated_block(40, 11);
        for state in all_states() {
            let mut frame = Vec::new();
            state.encode_frame(&block, &mut frame);
            // Truncations, including below the header.
            for cut in [0, 1, 4, FRAME_HEADER_LEN - 1, frame.len() - 1] {
                assert!(
                    matches!(state.decode_frame(&frame[..cut]), Err(Error::Corruption(_))),
                    "truncation to {cut} must be Corruption ({})",
                    state.codec().name()
                );
            }
            // Any single flipped byte: either caught (Corruption) — a
            // header/CRC flip always is — or it decodes to the original.
            for i in 0..frame.len() {
                let mut bad = frame.clone();
                bad[i] ^= 0xff;
                match state.decode_frame(&bad) {
                    Err(Error::Corruption(_)) => {}
                    Err(e) => panic!("non-corruption error {e} ({})", state.codec().name()),
                    Ok(got) => assert_eq!(got, block),
                }
                if (5..9).contains(&i) {
                    assert!(
                        state.decode_frame(&bad).is_err(),
                        "CRC byte flip must always be caught"
                    );
                }
            }
        }
    }

    #[test]
    fn foreign_codec_tag_rejected() {
        let lz = BlockCodecState::train(BlockCodec::Lz, &[]);
        let none = BlockCodecState::default();
        let mut frame = Vec::new();
        lz.encode_frame(&templated_block(40, 2), &mut frame);
        assert_eq!(frame[0], BlockCodec::Lz.tag());
        // A None table handed an Lz frame must refuse, not misparse.
        assert!(matches!(
            none.decode_frame(&frame),
            Err(Error::Corruption(_))
        ));
    }

    /// Encodes `blocks` as one table; returns the finished writer state
    /// and each block's frame.
    fn encode_table(codec: BlockCodec, blocks: &[Vec<u8>]) -> (BlockCodecState, Vec<Vec<u8>>) {
        let samples = value_samples(64);
        let mut enc = TableEncoder::new(codec, &samples);
        for b in blocks {
            enc.parse(b);
        }
        enc.seal();
        let frames = blocks
            .iter()
            .enumerate()
            .map(|(i, b)| {
                let mut f = Vec::new();
                enc.encode(i, b, &mut f);
                f
            })
            .collect();
        (enc.finish(), frames)
    }

    /// Reader state rebuilt from the writer's payload, as a table open
    /// does it.
    fn reader(writer: &BlockCodecState) -> BlockCodecState {
        BlockCodecState::from_dict_payload(writer.codec(), writer.dict_payload()).unwrap()
    }

    #[test]
    fn table_frames_use_the_huffman_codes_and_decode_from_the_payload() {
        let blocks: Vec<Vec<u8>> = (0..20).map(|i| templated_block(40, i * 40)).collect();
        for codec in [BlockCodec::Lz, BlockCodec::Dict] {
            let (state, frames) = encode_table(codec, &blocks);
            assert!(state.has_huffman_codes(), "{}", codec.name());
            let r = reader(&state);
            for (frame, block) in frames.iter().zip(&blocks) {
                assert_eq!(frame[0], codec.tag());
                assert_eq!(frame[FRAME_HEADER_LEN], MODE_HUFFMAN);
                assert_eq!(&r.decode_frame(frame).unwrap(), block);
            }
            // Entropy coding beats the bare token streams it codes.
            let lz_only: usize = blocks
                .iter()
                .map(|b| {
                    let mut f = Vec::new();
                    BlockCodecState::train(codec, &value_samples(64)).encode_frame(b, &mut f);
                    f.len()
                })
                .sum();
            let coded: usize = frames.iter().map(Vec::len).sum();
            assert!(coded < lz_only, "{}: {coded} !< {lz_only}", codec.name());
        }
    }

    #[test]
    fn unused_codes_are_left_out_of_the_payload() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let noise: Vec<Vec<u8>> = (0..3)
            .map(|_| (0..1024).map(|_| rng.gen()).collect())
            .collect();
        let (state, frames) = encode_table(BlockCodec::Lz, &noise);
        assert!(frames.iter().all(|f| f[0] == FRAME_TAG_STORED));
        assert!(!state.has_huffman_codes());
        assert_eq!(state.dict_payload(), &[0]);
        assert!(!reader(&state).has_huffman_codes());
    }

    #[test]
    fn corrupted_code_tables_fail_open_as_corruption() {
        let blocks: Vec<Vec<u8>> = (0..4).map(|i| templated_block(40, i)).collect();
        for codec in [BlockCodec::Lz, BlockCodec::Dict] {
            let (state, _) = encode_table(codec, &blocks);
            let good = state.dict_payload().to_vec();
            let open = |payload: &[u8]| BlockCodecState::from_dict_payload(codec, payload);
            let is_corruption = |r: Result<BlockCodecState>| matches!(r, Err(Error::Corruption(_)));
            // Every class's code lengths zeroed: not a code at all.
            for class in 0..TOKEN_CLASSES {
                let mut bad = good.clone();
                bad[1 + class * CODE_BYTES..1 + (class + 1) * CODE_BYTES].fill(0);
                assert!(is_corruption(open(&bad)), "zeroed class {class}");
            }
            // Kraft violations: one length shortened (over-subscribed)
            // or lengthened (incomplete).
            let used = (1..1 + CODE_BYTES).find(|&i| good[i] & 0x0f > 1).unwrap();
            for delta in [-1i8, 1] {
                let mut bad = good.clone();
                bad[used] = (bad[used] as i8 + delta) as u8;
                assert!(is_corruption(open(&bad)), "length {delta:+}");
            }
            // Truncated code tables, empty payload, unknown header.
            assert!(is_corruption(open(&good[..1 + CODE_BYTES])));
            assert!(is_corruption(open(&[])));
            let mut bad = good.clone();
            bad[0] = 7;
            assert!(is_corruption(open(&bad)));
            assert!(open(&good).is_ok());
        }
        // An `Lz` table never carries a dictionary.
        let (state, _) = encode_table(BlockCodec::Lz, &blocks);
        let mut bad = state.dict_payload().to_vec();
        bad.extend_from_slice(b"stray dictionary bytes");
        assert!(BlockCodecState::from_dict_payload(BlockCodec::Lz, &bad).is_err());
    }

    /// Re-stamps a frame's CRC so the payload decoder, not the checksum,
    /// has to catch the damage.
    fn restamp(frame: &mut [u8]) {
        let crc = crc32(&frame[FRAME_HEADER_LEN..]);
        frame[5..9].copy_from_slice(&crc.to_le_bytes());
    }

    #[test]
    fn damaged_huffman_frames_are_corruption_never_panics() {
        let blocks: Vec<Vec<u8>> = (0..6).map(|i| templated_block(50, i * 7)).collect();
        for codec in [BlockCodec::Lz, BlockCodec::Dict] {
            let (state, frames) = encode_table(codec, &blocks);
            let r = reader(&state);
            for frame in &frames {
                // Truncations and single-byte flips anywhere in the
                // payload, CRC re-stamped: a truncation is always
                // caught; a flip may decode to other bytes of the right
                // length (the CRC is what catches those on disk), but
                // must never panic or fail as anything but corruption.
                for cut in FRAME_HEADER_LEN..frame.len() {
                    let mut bad = frame[..cut].to_vec();
                    restamp(&mut bad);
                    assert!(matches!(r.decode_frame(&bad), Err(Error::Corruption(_))));
                }
                for i in FRAME_HEADER_LEN..frame.len() {
                    let mut bad = frame.clone();
                    bad[i] ^= 0x5a;
                    restamp(&mut bad);
                    match r.decode_frame(&bad) {
                        Err(Error::Corruption(_)) => {}
                        Err(e) => panic!("non-corruption error {e}"),
                        Ok(got) => assert_eq!(
                            got.len(),
                            u32::from_le_bytes(bad[1..5].try_into().unwrap()) as usize
                        ),
                    }
                }
            }
            // Symbol counts no stream could hold are refused before
            // anything is allocated for them.
            for huge in [u32::MAX as u64, u64::MAX >> 1] {
                let mut bad = frames[0][..FRAME_HEADER_LEN].to_vec();
                bad.push(MODE_HUFFMAN);
                write_varint(&mut bad, huge);
                bad.extend_from_slice(&[0; 16]);
                restamp(&mut bad);
                assert!(matches!(r.decode_frame(&bad), Err(Error::Corruption(_))));
            }
            // Stream sizes that overflow when summed.
            let mut bad = frames[0][..FRAME_HEADER_LEN].to_vec();
            bad.push(MODE_HUFFMAN);
            for _ in 0..TOKEN_CLASSES {
                write_varint(&mut bad, 1);
            }
            for _ in 0..TOKEN_CLASSES - 1 {
                write_varint(&mut bad, u64::MAX >> 2);
            }
            bad.extend_from_slice(&[0; 8]);
            restamp(&mut bad);
            assert!(matches!(r.decode_frame(&bad), Err(Error::Corruption(_))));
            // A Huffman frame handed to a table without codes.
            let bare = BlockCodecState::train(codec, &value_samples(64));
            assert!(matches!(
                reader(&bare).decode_frame(&frames[0]),
                Err(Error::Corruption(_))
            ));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Shared-prefix keys: `prefix:NNNN` entries, the common SSTable
        /// key shape.
        #[test]
        fn prop_roundtrip_shared_prefix_blocks(
            n in 0usize..120,
            prefix in "[a-z]{1,12}",
        ) {
            let mut block = Vec::new();
            for i in 0..n {
                block.extend_from_slice(format!("{prefix}:{i:08}=v{i};").as_bytes());
            }
            for state in all_states() {
                roundtrip(&state, &block);
            }
        }

        /// Whole tables through the two-pass encoder and a reader
        /// rebuilt from the payload: templated, random and mixed blocks.
        #[test]
        fn prop_table_roundtrip_through_the_payload(
            seeds in proptest::collection::vec(any::<u64>(), 1..12),
            noise in proptest::collection::vec(any::<u8>(), 0..600),
        ) {
            let mut blocks: Vec<Vec<u8>> = seeds
                .iter()
                .map(|&s| templated_block(1 + (s % 60) as usize, s))
                .collect();
            blocks.push(noise.clone());
            let mut mixed = templated_block(10, 3);
            mixed.extend_from_slice(&noise);
            blocks.push(mixed);
            for codec in BlockCodec::ALL {
                let (state, frames) = encode_table(codec, &blocks);
                let r = reader(&state);
                for (frame, block) in frames.iter().zip(&blocks) {
                    prop_assert_eq!(&r.decode_frame(frame).unwrap(), block);
                }
            }
        }

        /// Runs of identical values (tombstone runs, constant columns).
        #[test]
        fn prop_roundtrip_identical_value_runs(
            byte in any::<u8>(),
            run in 0usize..4096,
        ) {
            let block = vec![byte; run];
            for state in all_states() {
                roundtrip(&state, &block);
            }
        }

        /// Incompressible random bytes, up to max block size.
        #[test]
        fn prop_roundtrip_random_blocks(
            block in proptest::collection::vec(any::<u8>(), 0..4096),
        ) {
            for state in all_states() {
                roundtrip(&state, &block);
            }
        }

        /// Max-size blocks (a full block_size worth of mixed content).
        #[test]
        fn prop_roundtrip_max_size_blocks(seed in any::<u64>()) {
            let mut block = templated_block(80, seed);
            block.truncate(4096);
            while block.len() < 4096 {
                block.push((seed as u8).wrapping_add(block.len() as u8));
            }
            for state in all_states() {
                roundtrip(&state, &block);
            }
        }
    }
}

//! Ratio guard for the block codecs: the data region (every frame plus
//! the table's dictionary payload) that `Lz` and `Dict` produce for two
//! fixed corpora must not exceed what the adaptive range-coder frames
//! produced before the per-table Huffman stage replaced them. A faster
//! match finder or entropy stage may change the bytes, but not grow
//! them.
//!
//! Corpora: 20 000 YCSB-keyed records (`user{i:012}`) of the Cities and
//! Kv2 datasets at their workload seeds, encoded as SSTable data blocks
//! (`flag | varint(klen) | varint(vlen) | key | value`) cut at 4 KB,
//! with the first 512 values as training samples.

use tb_common::write_varint;
use tb_compress::block::{TableEncoder, MAX_TRAIN_SAMPLES};
use tb_compress::{BlockCodec, BlockCodecState};
use tb_workload::DatasetKind;

const RECORDS: u64 = 20_000;
const BLOCK_SIZE: usize = 4096;

/// Data-region bytes of the range-coder frames, per (corpus, codec).
const BOUNDS: [(&str, BlockCodec, usize); 4] = [
    ("cities", BlockCodec::Lz, 1_277_090),
    ("cities", BlockCodec::Dict, 1_261_345),
    ("kv2", BlockCodec::Lz, 1_306_042),
    ("kv2", BlockCodec::Dict, 1_325_899),
];

fn corpus(name: &str) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let (kind, seed) = match name {
        "cities" => (DatasetKind::Cities, 0x5eed),
        "kv2" => (DatasetKind::Kv2, 0xca5e2),
        _ => unreachable!(),
    };
    let ds = kind.build(seed);
    let (mut blocks, mut block, mut samples) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..RECORDS {
        let key = format!("user{i:012}");
        let val = ds.record(i);
        block.push(0u8);
        write_varint(&mut block, key.len() as u64);
        write_varint(&mut block, val.len() as u64);
        block.extend_from_slice(key.as_bytes());
        block.extend_from_slice(&val);
        if samples.len() < MAX_TRAIN_SAMPLES {
            samples.push(val);
        }
        if block.len() >= BLOCK_SIZE {
            blocks.push(std::mem::take(&mut block));
        }
    }
    if !block.is_empty() {
        blocks.push(block);
    }
    (blocks, samples)
}

#[test]
fn lz_codecs_stay_within_their_recorded_data_region() {
    for name in ["cities", "kv2"] {
        let (blocks, samples) = corpus(name);
        for (_, codec, bound) in BOUNDS.iter().filter(|b| b.0 == name) {
            let mut enc = TableEncoder::new(*codec, &samples);
            for b in &blocks {
                enc.parse(b);
            }
            enc.seal();
            let mut frames = Vec::new();
            let mut ends = Vec::new();
            for (i, b) in blocks.iter().enumerate() {
                enc.encode(i, b, &mut frames);
                ends.push(frames.len());
            }
            let state = enc.finish();
            let total = frames.len() + state.dict_payload().len();
            println!(
                "{name}/{}: {total} bytes (bound {bound}, {:.2}% under)",
                codec.name(),
                100.0 * (*bound as f64 - total as f64) / *bound as f64
            );
            assert!(
                total <= *bound,
                "{name}/{}: data region {total} > recorded {bound}",
                codec.name()
            );
            // The bytes counted are real: a reader rebuilt from the
            // payload decodes every frame back.
            let reader = BlockCodecState::from_dict_payload(*codec, state.dict_payload()).unwrap();
            let mut start = 0;
            for (b, end) in blocks.iter().zip(ends) {
                assert_eq!(&reader.decode_frame(&frames[start..end]).unwrap(), b);
                start = end;
            }
        }
    }
}

//! CRC-32 (IEEE 802.3) for persistent-record integrity checks.
//!
//! Slicing-by-8: eight 256-entry tables let the main loop fold eight
//! input bytes per step instead of one. `TABLES[0]` is the classic
//! bytewise table; `TABLES[k][b]` is the CRC of byte `b` followed by
//! `k` zero bytes, so the eight lookups of one step XOR together into
//! the state after those eight bytes. Output is bit-identical to the
//! bytewise algorithm.

/// Tables for the reflected IEEE polynomial 0xEDB88320.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xff) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// Folds `data` into a running (pre-inverted) CRC state.
fn update(mut c: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for w in &mut chunks {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = TABLES[7][(lo & 0xff) as usize]
            ^ TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][w[4] as usize]
            ^ TABLES[2][w[5] as usize]
            ^ TABLES[1][w[6] as usize]
            ^ TABLES[0][w[7] as usize];
    }
    for &b in chunks.remainder() {
        c = TABLES[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    c
}

/// CRC-32 of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    update(0xffff_ffff, data) ^ 0xffff_ffff
}

/// Incremental CRC-32 builder for multi-part records.
#[derive(Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    pub fn new() -> Self {
        Self { state: 0xffff_ffff }
    }

    pub fn update(&mut self, data: &[u8]) -> &mut Self {
        self.state = update(self.state, data);
        self
    }

    pub fn finalize(&self) -> u32 {
        self.state ^ 0xffff_ffff
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// The bytewise reference the sliced loop must match bit for bit.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xffff_ffffu32;
        for &b in data {
            c = TABLES[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
        }
        c ^ 0xffff_ffff
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let mut c = Crc32::new();
        c.update(b"hello ").update(b"world");
        assert_eq!(c.finalize(), crc32(b"hello world"));
    }

    #[test]
    fn detects_corruption() {
        let a = crc32(b"payload-data-here");
        let b = crc32(b"payload-dAta-here");
        assert_ne!(a, b);
    }

    #[test]
    fn sliced_matches_bytewise_over_lengths_and_offsets() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xc7c3);
        let buf: Vec<u8> = (0..4096 + 64).map(|_| rng.gen()).collect();
        for _ in 0..2000 {
            let off = rng.gen_range(0..64usize);
            let len = rng.gen_range(0..4096usize);
            let data = &buf[off..off + len];
            assert_eq!(crc32(data), crc32_bytewise(data), "off {off} len {len}");
            // Split at a random point: the incremental builder must
            // agree even when a part is not a multiple of 8 bytes.
            let cut = rng.gen_range(0..=len);
            let mut c = Crc32::new();
            c.update(&data[..cut]).update(&data[cut..]);
            assert_eq!(c.finalize(), crc32_bytewise(data), "split {cut} of {len}");
        }
    }
}

//! CRC-32 (IEEE 802.3, the zlib/gzip polynomial), slicing-by-8.
//!
//! Every on-disk structure in this crate — each WAL frame and each
//! segment body — carries a CRC so recovery can distinguish "the write
//! never finished" (torn tail) and "the bytes rotted" (corruption)
//! from valid data. The implementation is self-contained: the
//! workspace has no registry access, and 30 lines of table generation
//! beat vendoring a crate.

/// The reflected polynomial for CRC-32/ISO-HDLC (`0xEDB88320`).
const POLY: u32 = 0xEDB8_8320;

/// The slicing-by-8 tables, built at compile time. `TABLES[0]` is the
/// classic byte-at-a-time table; `TABLES[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes, so eight table lookups fold eight input
/// bytes at once.
const TABLES: [[u32; 256]; 8] = tables();

const fn tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 of `bytes` (init `0xFFFFFFFF`, final xor `0xFFFFFFFF` — the
/// standard parameters, so values match `cksum -o3`/zlib).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ crc;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    /// The definition, one bit at a time and without tables.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
        }
        crc ^ 0xFFFF_FFFF
    }

    /// Known-answer tests against the published CRC-32/ISO-HDLC check
    /// values.
    #[test]
    fn known_answers() {
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// Slicing-by-8 agrees with the bitwise definition on every length
    /// from 0 to 4,096 bytes, read from unaligned start offsets, so the
    /// eight-byte body and the byte-wise tail are both covered.
    #[test]
    fn slicing_matches_the_bitwise_definition() {
        let mut rng = StdRng::seed_from_u64(0x00C3_C32A);
        let data: Vec<u8> = (0..4096 + 8).map(|_| rng.next_u32() as u8).collect();
        for len in (0..=64).chain((0..200).map(|_| rng.gen_range(0..=4096))) {
            for offset in 0..8 {
                let bytes = &data[offset..offset + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bitwise(bytes),
                    "length {len} offset {offset}"
                );
            }
        }
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let data = b"hello, wal".to_vec();
        let baseline = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), baseline, "byte {byte} bit {bit}");
            }
        }
    }
}

//! The workspace's one hasher for in-process maps.
//!
//! The reproduction's map keys are made by the process itself: page and
//! row ids, track and record numbers, content hashes, file names. The one
//! table keyed by outside input, the trace importer's device table, takes
//! at most 65 535 keys. So the keyed SipHash rounds of std's `RandomState`
//! defend against nothing here, while the TPC-C path pays for them on
//! dozens of index and buffer-pool probes per transaction. [`FastHasher`]
//! is FxHash's step instead: each written word is folded in by a rotate,
//! an xor and one multiplication, so a lone `u64` key hashes to `key × K`,
//! one instruction.
//!
//! The order in which a map iterates depends only on its keys and
//! insertions here, never on the process; no artifact depends on it either
//! way (repeated runs already produce identical bytes).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier of every step: 2⁶⁴/φ rounded to odd (Fibonacci
/// hashing), so the step is a bijection of the word it takes. FxHash's
/// own `0x517c_c1b7_2722_0a95` measured no faster on `tpcc` or
/// `replay_trail` (EXPERIMENTS.md, "One hasher for in-process maps").
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// FxHash's step under a 2⁶⁴/φ multiplier; see the [module docs](self).
///
/// # Examples
///
/// ```
/// use std::hash::BuildHasher;
/// use trail_sim::{FastMap, FastState};
///
/// let mut pages: FastMap<(u8, u64), usize> = FastMap::default();
/// pages.insert((1, 42), 7);
/// assert_eq!(pages[&(1, 42)], 7);
/// // Deterministic: the same key hashes the same in every process.
/// assert_eq!(FastState::default().hash_one(3u64), FastState::default().hash_one(3u64));
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct FastHasher(u64);

impl FastHasher {
    #[inline]
    fn step(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    /// Eight bytes a step, little endian; a short tail is one more step,
    /// zero-padded.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.step(u64::from_le_bytes(word.try_into().expect("eight bytes")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.step(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.step(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.step(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.step(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.step(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.step(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Builds [`FastHasher`]s; a zero-sized, process-independent state.
pub type FastState = BuildHasherDefault<FastHasher>;

/// A `HashMap` under [`FastHasher`]: the map type of every in-process
/// table. Make one with `FastMap::default()` (or `collect()`).
pub type FastMap<K, V> = HashMap<K, V, FastState>;

/// A `HashSet` under [`FastHasher`].
pub type FastSet<K> = HashSet<K, FastState>;

#[cfg(test)]
mod tests {
    use std::hash::{BuildHasher, Hash};

    use super::*;

    fn hash<T: Hash>(value: T) -> u64 {
        FastState::default().hash_one(value)
    }

    #[test]
    fn a_lone_u64_is_one_multiplication() {
        for key in [0u64, 1, 2, 0xFFFF_FFFF, u64::MAX, 0x0123_4567_89AB_CDEF] {
            assert_eq!(hash(key), key.wrapping_mul(K), "key {key:#x}");
        }
    }

    /// The shapes the workspace hashes, pinned: a changed value means a
    /// changed hasher, which moves every map's layout and host cost.
    #[test]
    fn hash_values_are_pinned() {
        #[derive(Hash)]
        struct PageShaped {
            dev: u8,
            page_no: u64,
        }
        assert_eq!(hash(0xDEAD_BEEF_u64), 0x00df_ed97_2ed2_6d9b);
        assert_eq!(hash((4u8, 1_000_042u64)), 0x4f09_0da2_198b_e6c9);
        assert_eq!(
            hash(PageShaped {
                dev: 2,
                page_no: 12_345
            }),
            hash((2u8, 12_345u64)),
        );
        assert_eq!(
            hash(PageShaped {
                dev: 2,
                page_no: 12_345
            }),
            0x894d_8b7e_5d64_6b56
        );
        // Two words of bytes (the second zero-padded), then str's 0xff.
        assert_eq!(hash(String::from("journal.db")), 0x8957_8c88_8600_0df0);
    }

    #[test]
    fn every_byte_of_a_string_counts() {
        let a = hash("abcdefgh-1");
        assert_ne!(a, hash("abcdefgh-2"));
        assert_ne!(a, hash("bbcdefgh-1"));
    }
}

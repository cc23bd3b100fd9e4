//! Packed Boolean words.
//!
//! The monitors' query hot path abstracts one feature vector into one bit
//! per monitored neuron and asks the pattern store for membership. The seed
//! implementation materialized a `Vec<bool>` per query — one heap
//! allocation plus byte-per-bit hashing on every monitored inference.
//! [`BitWord`] packs the word into `u64` limbs with inline storage for up
//! to [`INLINE_BITS`] bits, so on typical monitor widths (the paper
//! monitors tens of neurons) the whole membership path runs without
//! touching the heap, Hamming distances are popcounts, and hashing touches
//! one limb per 64 neurons instead of one byte per neuron.
//!

use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::fmt;
use std::hash::{Hash, Hasher};

/// Number of `u64` limbs stored inline (no heap) in a [`BitWord`].
pub const INLINE_WORDS: usize = 4;

/// Number of bits a [`BitWord`] can hold without heap allocation.
pub const INLINE_BITS: usize = INLINE_WORDS * 64;

#[derive(Clone)]
enum Limbs {
    Inline([u64; INLINE_WORDS]),
    Heap(Box<[u64]>),
}

/// A fixed-length packed bit vector — the query-pipeline replacement for
/// `Vec<bool>`.
///
/// Words up to [`INLINE_BITS`] bits (256 monitored neurons at 1 bit each,
/// 128 at 2 bits, …) live entirely on the stack; longer words spill to one
/// heap block. Equality, hashing, and Hamming distance operate on whole
/// limbs.
///
/// ```
/// use napmon_bdd::BitWord;
///
/// let w = BitWord::from_bools(&[true, false, true]);
/// assert_eq!(w.len(), 3);
/// assert!(w.get(0) && !w.get(1) && w.get(2));
/// let v = BitWord::from_bools(&[true, true, true]);
/// assert_eq!(w.hamming(&v), 1);
/// ```
#[derive(Clone)]
pub struct BitWord {
    len: usize,
    limbs: Limbs,
}

#[inline]
const fn limbs_for(bits: usize) -> usize {
    bits.div_ceil(64)
}

impl BitWord {
    /// An all-zero word of `len` bits.
    pub fn zeros(len: usize) -> Self {
        let limbs = if len <= INLINE_BITS {
            Limbs::Inline([0u64; INLINE_WORDS])
        } else {
            Limbs::Heap(vec![0u64; limbs_for(len)].into_boxed_slice())
        };
        Self { len, limbs }
    }

    /// Packs a `&[bool]` slice.
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut w = Self::zeros(bits.len());
        w.fill_with(bits.len(), |i| bits[i]);
        w
    }

    /// Builds a word of `len` bits by evaluating `f(i)` for every bit.
    pub fn from_fn(len: usize, f: impl FnMut(usize) -> bool) -> Self {
        let mut w = Self::zeros(len);
        w.fill_with(len, f);
        w
    }

    /// Resizes to `len` bits and sets every bit from `f(i)` — the packing
    /// primitive of the query hot path. Bits are accumulated limb-by-limb
    /// in a register and stored 64 at a time, an order of magnitude cheaper
    /// than per-bit [`BitWord::set`] calls.
    pub fn fill_with(&mut self, len: usize, mut f: impl FnMut(usize) -> bool) {
        self.reset(len);
        let mut start = 0usize;
        for limb in self.limbs_mut() {
            let end = (start + 64).min(len);
            let mut chunk = 0u64;
            for i in start..end {
                chunk |= u64::from(f(i)) << (i - start);
            }
            *limb = chunk;
            start = end;
        }
    }

    /// Like [`BitWord::fill_with`] but driven by an iterator, so zipped
    /// slice sources compile to bounds-check-free loops. Takes exactly
    /// `len` items from `bits`.
    ///
    /// # Panics
    ///
    /// Panics if `bits` yields fewer than `len` items.
    pub fn fill_from_iter(&mut self, len: usize, mut bits: impl Iterator<Item = bool>) {
        self.reset(len);
        let mut start = 0usize;
        for limb in self.limbs_mut() {
            let end = (start + 64).min(len);
            let mut chunk = 0u64;
            for off in 0..(end - start) {
                let bit = bits.next().expect("fill_from_iter: iterator too short");
                chunk |= u64::from(bit) << off;
            }
            *limb = chunk;
            start = end;
        }
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the word has zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the word fits in inline (stack) storage.
    #[inline]
    pub fn is_inline(&self) -> bool {
        matches!(self.limbs, Limbs::Inline(_))
    }

    /// Borrows the packed limbs (`len.div_ceil(64)` of them).
    #[inline]
    pub fn limbs(&self) -> &[u64] {
        match &self.limbs {
            Limbs::Inline(a) => &a[..limbs_for(self.len)],
            Limbs::Heap(b) => &b[..limbs_for(self.len)],
        }
    }

    #[inline]
    fn limbs_mut(&mut self) -> &mut [u64] {
        let n = limbs_for(self.len);
        match &mut self.limbs {
            Limbs::Inline(a) => &mut a[..n],
            Limbs::Heap(b) => &mut b[..n],
        }
    }

    /// Bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(
            i < self.len,
            "bit {i} out of range for {}-bit word",
            self.len
        );
        (self.limbs()[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets bit `i` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(
            i < self.len,
            "bit {i} out of range for {}-bit word",
            self.len
        );
        let limb = &mut self.limbs_mut()[i / 64];
        if value {
            *limb |= 1u64 << (i % 64);
        } else {
            *limb &= !(1u64 << (i % 64));
        }
    }

    /// Zeroes every bit, keeping the length (scratch-buffer reuse).
    #[inline]
    pub fn clear(&mut self) {
        for limb in self.limbs_mut() {
            *limb = 0;
        }
    }

    /// Resets the word to `len` zero bits, reusing the heap block when the
    /// capacity already suffices — the scratch-buffer primitive of the
    /// batched query API.
    pub fn reset(&mut self, len: usize) {
        let needed = limbs_for(len);
        match &mut self.limbs {
            Limbs::Inline(a) if len <= INLINE_BITS => a.fill(0),
            Limbs::Heap(b) if b.len() >= needed => b.fill(0),
            _ => *self = Self::zeros(len),
        }
        self.len = len;
    }

    /// Number of one bits.
    #[inline]
    pub fn count_ones(&self) -> u32 {
        self.limbs().iter().map(|l| l.count_ones()).sum()
    }

    /// Hamming distance to `other` (popcount of the XOR).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    #[inline]
    pub fn hamming(&self, other: &Self) -> u32 {
        assert_eq!(self.len, other.len, "hamming: word lengths differ");
        self.limbs()
            .iter()
            .zip(other.limbs())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum()
    }

    /// Unpacks to a `Vec<bool>` (cold paths: warnings, serialization).
    pub fn to_bools(&self) -> Vec<bool> {
        (0..self.len).map(|i| self.get(i)).collect()
    }

    /// Iterates over the bits in order.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }
}

impl Default for BitWord {
    /// An empty (0-bit) word; [`BitWord::reset`] grows it on first use.
    fn default() -> Self {
        Self::zeros(0)
    }
}

impl PartialEq for BitWord {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.limbs() == other.limbs()
    }
}

impl Eq for BitWord {}

impl Hash for BitWord {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.len);
        for &limb in self.limbs() {
            state.write_u64(limb);
        }
    }
}

impl fmt::Debug for BitWord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitWord(")?;
        for i in 0..self.len {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        write!(f, ")")
    }
}

impl From<&[bool]> for BitWord {
    fn from(bits: &[bool]) -> Self {
        Self::from_bools(bits)
    }
}

impl FromIterator<bool> for BitWord {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let bits: Vec<bool> = iter.into_iter().collect();
        Self::from_bools(&bits)
    }
}

/// Serialized as an array of booleans — byte-compatible with the previous
/// `Vec<bool>` representation, so existing monitor snapshots keep loading.
impl Serialize for BitWord {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.to_bools().serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for BitWord {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let bits: Vec<bool> = Deserialize::deserialize(deserializer)?;
        Ok(Self::from_bools(&bits))
    }
}

/// Read-only view of an assignment, so BDD walks accept packed words,
/// `bool` slices, and arrays interchangeably (and tests keep their literal
/// `&[true, false, …]` arguments).
pub trait AsBits {
    /// Number of bits.
    fn bit_len(&self) -> usize;
    /// Bit `i`.
    fn bit(&self, i: usize) -> bool;
}

impl AsBits for BitWord {
    #[inline]
    fn bit_len(&self) -> usize {
        self.len()
    }
    #[inline]
    fn bit(&self, i: usize) -> bool {
        self.get(i)
    }
}

impl AsBits for [bool] {
    #[inline]
    fn bit_len(&self) -> usize {
        self.len()
    }
    #[inline]
    fn bit(&self, i: usize) -> bool {
        self[i]
    }
}

impl AsBits for Vec<bool> {
    #[inline]
    fn bit_len(&self) -> usize {
        self.len()
    }
    #[inline]
    fn bit(&self, i: usize) -> bool {
        self[i]
    }
}

impl<const N: usize> AsBits for [bool; N] {
    #[inline]
    fn bit_len(&self) -> usize {
        N
    }
    #[inline]
    fn bit(&self, i: usize) -> bool {
        self[i]
    }
}

impl<T: AsBits + ?Sized> AsBits for &T {
    #[inline]
    fn bit_len(&self) -> usize {
        (**self).bit_len()
    }
    #[inline]
    fn bit(&self, i: usize) -> bool {
        (**self).bit(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    #[test]
    fn zeros_and_set_get_round_trip() {
        for len in [
            0usize,
            1,
            63,
            64,
            65,
            200,
            INLINE_BITS,
            INLINE_BITS + 1,
            1000,
        ] {
            let mut w = BitWord::zeros(len);
            assert_eq!(w.len(), len);
            assert_eq!(w.is_inline(), len <= INLINE_BITS);
            assert_eq!(w.count_ones(), 0);
            if len > 0 {
                w.set(len - 1, true);
                assert!(w.get(len - 1));
                assert_eq!(w.count_ones(), 1);
                w.set(len - 1, false);
                assert_eq!(w.count_ones(), 0);
            }
        }
    }

    #[test]
    fn from_bools_matches_bit_by_bit() {
        let bits: Vec<bool> = (0..150).map(|i| i % 3 == 0).collect();
        let w = BitWord::from_bools(&bits);
        for (i, &b) in bits.iter().enumerate() {
            assert_eq!(w.get(i), b, "bit {i}");
        }
        assert_eq!(w.to_bools(), bits);
    }

    #[test]
    fn equality_and_hash_agree_across_storage() {
        let bits: Vec<bool> = (0..80).map(|i| i % 7 == 0).collect();
        let a = BitWord::from_bools(&bits);
        let b: BitWord = bits.iter().copied().collect();
        assert_eq!(a, b);
        let hash = |w: &BitWord| {
            let mut h = DefaultHasher::new();
            w.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&b));
        let mut c = b.clone();
        c.set(41, !c.get(41));
        assert_ne!(a, c);
    }

    #[test]
    fn trailing_limb_bits_do_not_leak_into_eq() {
        // Same 3-bit word reached via different mutation histories.
        let mut a = BitWord::zeros(3);
        a.set(1, true);
        let b = BitWord::from_bools(&[false, true, false]);
        assert_eq!(a, b);
    }

    #[test]
    fn hamming_is_popcount_of_xor() {
        let a = BitWord::from_bools(&[true, false, true, true, false]);
        let b = BitWord::from_bools(&[true, true, true, false, false]);
        assert_eq!(a.hamming(&b), 2);
        assert_eq!(a.hamming(&a), 0);
        // Across the limb boundary.
        let long_a = BitWord::from_fn(130, |i| i % 2 == 0);
        let long_b = BitWord::from_fn(130, |i| i % 2 == 1);
        assert_eq!(long_a.hamming(&long_b), 130);
    }

    #[test]
    fn reset_reuses_capacity() {
        let mut w = BitWord::zeros(500);
        assert!(!w.is_inline());
        let heap_ptr = w.limbs().as_ptr();
        w.set(499, true);
        w.reset(300);
        assert_eq!(w.len(), 300);
        assert_eq!(w.count_ones(), 0);
        assert_eq!(
            w.limbs().as_ptr(),
            heap_ptr,
            "reset must reuse the heap block"
        );
        let mut small = BitWord::zeros(10);
        small.set(3, true);
        small.reset(8);
        assert_eq!(small.count_ones(), 0);
        assert!(small.is_inline());
    }

    #[test]
    fn serde_is_bool_array_compatible() {
        let w = BitWord::from_bools(&[true, false, true]);
        let json = serde_json::to_string(&w).unwrap();
        assert_eq!(json, "[true,false,true]");
        let back: BitWord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, w);
    }

    #[test]
    fn as_bits_covers_all_word_shapes() {
        fn total<W: AsBits + ?Sized>(w: &W) -> usize {
            (0..w.bit_len()).filter(|&i| w.bit(i)).count()
        }
        assert_eq!(total(&[true, false, true]), 2);
        assert_eq!(total(&vec![true, true]), 2);
        assert_eq!(total([true, false].as_slice()), 1);
        assert_eq!(total(&BitWord::from_bools(&[true, true, true])), 3);
    }
}

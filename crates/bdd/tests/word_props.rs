//! Property tests pinning the packed `BitWord` semantics to the unpacked
//! `Vec<bool>` reference it replaced.
//!
//! Widths are drawn across the inline/heap storage boundary
//! ([`INLINE_BITS`] = 256), so every property exercises both storage
//! variants and the partial trailing limb.

use napmon_bdd::{BitWord, INLINE_BITS};
use proptest::prelude::*;

/// Widths hugging the interesting boundaries: empty, one limb, the limb
/// seam, the inline/heap seam, and deep heap.
fn width_for(index: usize) -> usize {
    const SPECIAL: [usize; 10] = [
        0,
        1,
        63,
        64,
        65,
        INLINE_BITS - 1,
        INLINE_BITS,
        INLINE_BITS + 1,
        500,
        1000,
    ];
    SPECIAL[index % SPECIAL.len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn from_bools_get_roundtrip(raw in collection::vec(0u32..2, 0..600)) {
        let bits: Vec<bool> = raw.iter().map(|&b| b == 1).collect();
        let word = BitWord::from_bools(&bits);
        prop_assert_eq!(word.len(), bits.len());
        prop_assert_eq!(word.is_inline(), bits.len() <= INLINE_BITS);
        for (i, &b) in bits.iter().enumerate() {
            prop_assert!(word.get(i) == b, "bit {i} mismatch");
        }
        prop_assert_eq!(word.to_bools(), bits);
    }

    #[test]
    fn set_tracks_vec_bool_reference(
        width_index in 0usize..10,
        ops in collection::vec((0usize..1000, 0u32..2), 0..64),
    ) {
        let width = width_for(width_index).max(1);
        let mut reference = vec![false; width];
        let mut word = BitWord::zeros(width);
        for (pos, value) in ops {
            let (i, b) = (pos % width, value == 1);
            reference[i] = b;
            word.set(i, b);
        }
        prop_assert_eq!(word.to_bools(), reference.clone());
        prop_assert_eq!(
            word.count_ones() as usize,
            reference.iter().filter(|&&b| b).count()
        );
        // A fresh word packed from the reference is equal and hashes equal
        // (equality is limb-wise; stray trailing bits would break this).
        prop_assert_eq!(word, BitWord::from_bools(&reference));
    }

    #[test]
    fn hamming_matches_positionwise_reference(pairs in collection::vec(0u32..4, 1..600)) {
        // Each 2-bit draw feeds one position of two equal-length words.
        let a_bits: Vec<bool> = pairs.iter().map(|p| p & 1 == 1).collect();
        let b_bits: Vec<bool> = pairs.iter().map(|p| p & 2 == 2).collect();
        let a = BitWord::from_bools(&a_bits);
        let b = BitWord::from_bools(&b_bits);
        let expected = a_bits
            .iter()
            .zip(&b_bits)
            .filter(|(x, y)| x != y)
            .count() as u32;
        prop_assert_eq!(a.hamming(&b), expected);
        prop_assert_eq!(b.hamming(&a), expected);
        prop_assert_eq!(a.hamming(&a), 0);
        // Hamming distance zero iff equal.
        prop_assert_eq!(a == b, expected == 0);
    }

    #[test]
    fn fill_variants_agree_and_popcount_is_exact(raw in collection::vec(0u32..2, 0..600)) {
        let bits: Vec<bool> = raw.iter().map(|&b| b == 1).collect();
        let ones = bits.iter().filter(|&&b| b).count() as u32;

        let filled = BitWord::from_fn(bits.len(), |i| bits[i]);
        prop_assert_eq!(filled.count_ones(), ones);
        prop_assert_eq!(&filled, &BitWord::from_bools(&bits));

        let mut from_iter = BitWord::default();
        from_iter.fill_from_iter(bits.len(), bits.iter().copied());
        prop_assert_eq!(&from_iter, &filled);

        // Iteration round-trips.
        prop_assert_eq!(filled.iter().collect::<Vec<bool>>(), bits);
    }

    #[test]
    fn reset_clears_any_history(
        raw in collection::vec(0u32..2, 1..600),
        new_width_index in 0usize..10,
    ) {
        let bits: Vec<bool> = raw.iter().map(|&b| b == 1).collect();
        let mut word = BitWord::from_bools(&bits);
        let new_width = width_for(new_width_index);
        word.reset(new_width);
        prop_assert_eq!(word.len(), new_width);
        prop_assert_eq!(word.count_ones(), 0);
        // A reset word is indistinguishable from a fresh all-zero word.
        prop_assert_eq!(word, BitWord::zeros(new_width));
    }
}

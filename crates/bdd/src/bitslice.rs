//! Bit-sliced (block-transposed) pattern sets: the batch-query kernel.
//!
//! The packed query path ([`BitWord::hamming`]) answers one Hamming-ball
//! probe by XOR+popcount against every stored word — one word at a time,
//! one popcount per limb, with per-word loop and iterator overhead. At
//! operation scale the monitor answers *batches* of probes against a set
//! that changes rarely, which is exactly the shape a **bit-sliced**
//! (structure-of-arrays) layout serves: store bit `j` of 64 patterns in
//! one `u64`, and a whole 64-pattern block answers one query bit with a
//! single XOR — the classic bit-slicing trick from hardware-oriented
//! cryptography, applied to Hamming-ball membership.
//!
//! ## Layout
//!
//! Patterns are grouped into **superblocks** of `LANES × 64 = 256`
//! patterns. Within superblock `s`, the limb for query bit `j` and lane
//! `k` lives at `slices[(s · bits + j) · LANES + k]`; bit `p % 64` of that
//! limb is bit `j` of pattern `p = s·256 + k·64 + (p % 64)`. The four
//! lane limbs of one bit are contiguous, so the inner loop is four
//! independent 64-bit operations over adjacent memory — a shape the
//! compiler autovectorizes on stable Rust.
//!
//! ## Kernels
//!
//! - `tau = 0`: an accumulator of still-matching lanes,
//!   `acc &= !(slice ^ broadcast(q_j))`, with early exit when every lane
//!   has mismatched.
//! - `tau > 0`: per-lane mismatch *counter planes* — `K = ⌈log₂(tau+1)⌉`
//!   bit planes holding each pattern's running mismatch count, updated by
//!   a ripple-carry add of the mismatch mask. A carry out of the top
//!   plane marks the pattern dead (count > tau for sure); the final
//!   bitwise compare keeps patterns whose count is `≤ tau`.
//!
//! [`BitSliceSet::contains_within_batch`] iterates **blocks outer,
//! queries inner**, so one superblock (e.g. ~1.5 KiB at 48 bits) is
//! resident in L1 while every query in the batch probes it — the memory
//! access pattern behind the batch-throughput gain in `BENCH_query`.
//!
//! Every kernel is differential-pinned bit-identical to the naive
//! per-word [`BitWord::hamming`] scan by the tests below and by the
//! property suites in `napmon-core` / `napmon-store`.

use crate::word::BitWord;

/// Lanes per superblock: the kernels operate on `[u64; LANES]` at a time.
pub const LANES: usize = 4;

/// Patterns per superblock (`LANES` sub-blocks of 64).
pub const SUPERBLOCK_PATTERNS: usize = LANES * 64;

/// Four-lane limb operations, written as indexed loops that LLVM
/// autovectorizes.
mod lanes {
    use super::LANES;

    pub type V = [u64; LANES];

    pub const ZERO: V = [0; LANES];
    pub const ONES: V = [!0u64; LANES];

    #[inline(always)]
    pub fn splat(x: u64) -> V {
        [x; LANES]
    }

    #[inline(always)]
    pub fn xor(a: V, b: V) -> V {
        let mut out = [0u64; LANES];
        for k in 0..LANES {
            out[k] = a[k] ^ b[k];
        }
        out
    }

    #[inline(always)]
    pub fn and(a: V, b: V) -> V {
        let mut out = [0u64; LANES];
        for k in 0..LANES {
            out[k] = a[k] & b[k];
        }
        out
    }

    #[inline(always)]
    pub fn or(a: V, b: V) -> V {
        let mut out = [0u64; LANES];
        for k in 0..LANES {
            out[k] = a[k] | b[k];
        }
        out
    }

    #[inline(always)]
    pub fn andnot(a: V, b: V) -> V {
        // a & !b
        let mut out = [0u64; LANES];
        for k in 0..LANES {
            out[k] = a[k] & !b[k];
        }
        out
    }

    #[inline(always)]
    pub fn is_zero(a: V) -> bool {
        a.iter().fold(0u64, |acc, &lane| acc | lane) == 0
    }
}

use lanes::V;

/// A bit-sliced set of fixed-width patterns: the structure-of-arrays
/// counterpart of a `Vec<BitWord>`, optimized for answering Hamming-ball
/// membership over many queries at once.
///
/// Insert-only (matching the monitors' append-only pattern sets); the
/// width is adopted from the first inserted word when the set was created
/// with [`BitSliceSet::new`].
///
/// ```
/// use napmon_bdd::{BitSliceSet, BitWord};
///
/// let mut set = BitSliceSet::new();
/// set.insert(&BitWord::from_bools(&[true, false, true]));
/// let near = BitWord::from_bools(&[true, true, true]);
/// assert!(!set.contains_within(&near, 0));
/// assert!(set.contains_within(&near, 1));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitSliceSet {
    /// Pattern width in bits; `0` until the first insert fixes it.
    bits: usize,
    /// Number of inserted patterns.
    len: usize,
    /// `superblocks() · bits · LANES` limbs in the layout documented on
    /// the module.
    slices: Vec<u64>,
}

impl BitSliceSet {
    /// An empty set whose width is adopted from the first inserted word.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty set over `bits`-bit patterns.
    pub fn with_bits(bits: usize) -> Self {
        Self {
            bits,
            len: 0,
            slices: Vec::new(),
        }
    }

    /// Pattern width in bits (`0` for a fresh width-unset set).
    #[inline]
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// Number of inserted patterns.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set holds no patterns.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of superblocks currently allocated.
    #[inline]
    pub fn superblocks(&self) -> usize {
        self.len.div_ceil(SUPERBLOCK_PATTERNS)
    }

    /// Limbs per superblock.
    #[inline]
    fn superblock_limbs(&self) -> usize {
        self.bits * LANES
    }

    /// Inserts one pattern. Does **not** deduplicate — callers that need
    /// set semantics keep their own exact-membership index (a hash set or
    /// the store's Bloom + binary search) and only insert fresh words.
    ///
    /// # Panics
    ///
    /// Panics if the word's width disagrees with the set's (once fixed).
    pub fn insert(&mut self, word: &BitWord) {
        if self.len == 0 && self.bits == 0 {
            self.bits = word.len();
        }
        assert_eq!(
            word.len(),
            self.bits,
            "BitSliceSet::insert: word width differs from set width"
        );
        self.insert_limbs(word.limbs());
    }

    /// Inserts one pattern given as packed limbs (`bits.div_ceil(64)` of
    /// them, trailing bits zero) — the zero-copy path for sources that
    /// keep raw limb blocks (the persistent store's segments).
    ///
    /// # Panics
    ///
    /// Panics if the limb count disagrees with the set width, or if the
    /// width was never fixed ([`BitSliceSet::with_bits`]).
    pub fn insert_limbs(&mut self, limbs: &[u64]) {
        assert!(
            self.bits > 0,
            "BitSliceSet::insert_limbs: width not set (use with_bits)"
        );
        assert_eq!(
            limbs.len(),
            self.bits.div_ceil(64),
            "BitSliceSet::insert_limbs: limb count differs from set width"
        );
        let p = self.len;
        if p.is_multiple_of(SUPERBLOCK_PATTERNS) {
            let grown = self.slices.len() + self.superblock_limbs();
            self.slices.resize(grown, 0);
        }
        let s = p / SUPERBLOCK_PATTERNS;
        let k = (p % SUPERBLOCK_PATTERNS) / 64;
        let lane_bit = 1u64 << (p % 64);
        let base = s * self.superblock_limbs() + k;
        for (c, &limb) in limbs.iter().enumerate() {
            // Visit only the set bits: trailing-limb padding is zero, so
            // every visited position is a real bit index below `bits`.
            let mut l = limb;
            while l != 0 {
                let j = c * 64 + l.trailing_zeros() as usize;
                self.slices[base + j * LANES] |= lane_bit;
                l &= l - 1;
            }
        }
        self.len = p + 1;
    }

    /// Lane mask of the patterns that actually exist in superblock `s`
    /// (the last superblock is usually partial).
    #[inline]
    fn valid_mask(&self, s: usize) -> V {
        let start = s * SUPERBLOCK_PATTERNS;
        let mut mask = lanes::ZERO;
        for (k, m) in mask.iter_mut().enumerate() {
            let have = self.len.saturating_sub(start + k * 64).min(64);
            *m = if have == 64 {
                !0u64
            } else {
                (1u64 << have) - 1
            };
        }
        mask
    }

    /// Broadcast mask of query bit `j`: all-ones when set, all-zero when
    /// clear.
    #[inline]
    fn query_mask(query: &[u64], j: usize) -> u64 {
        0u64.wrapping_sub((query[j / 64] >> (j % 64)) & 1)
    }

    /// Exact-membership kernel over superblock `s`: the lane mask of
    /// patterns identical to `query`.
    #[inline]
    fn probe_exact(&self, s: usize, query: &[u64]) -> V {
        let base = s * self.superblock_limbs();
        let mut acc = lanes::ONES;
        for j in 0..self.bits {
            let qm = lanes::splat(Self::query_mask(query, j));
            let slice: V = self.slices[base + j * LANES..base + j * LANES + LANES]
                .try_into()
                .expect("LANES limbs");
            acc = lanes::andnot(acc, lanes::xor(slice, qm));
            if lanes::is_zero(acc) {
                return lanes::ZERO;
            }
        }
        acc
    }

    /// Hamming-ball kernel over superblock `s`: the lane mask of patterns
    /// within distance `tau` (`tau ≥ 1`) of `query`. `planes` is caller
    /// scratch of [`plane_count`](Self::plane_count)`(tau)` entries,
    /// reset here.
    fn probe_within(&self, s: usize, query: &[u64], tau: usize, planes: &mut [V]) -> V {
        let base = s * self.superblock_limbs();
        let valid = self.valid_mask(s);
        planes.fill(lanes::ZERO);
        let mut dead = lanes::ZERO;
        for j in 0..self.bits {
            let qm = lanes::splat(Self::query_mask(query, j));
            let slice: V = self.slices[base + j * LANES..base + j * LANES + LANES]
                .try_into()
                .expect("LANES limbs");
            // Ripple-carry add of the mismatch mask into the counter
            // planes; a carry out of the top plane means the count
            // exceeded what K bits can hold, i.e. is certainly > tau.
            let mut carry = lanes::xor(slice, qm);
            for plane in planes.iter_mut() {
                let spill = lanes::and(*plane, carry);
                *plane = lanes::xor(*plane, carry);
                carry = spill;
                if lanes::is_zero(carry) {
                    break;
                }
            }
            dead = lanes::or(dead, carry);
            // Every live pattern mismatching everywhere still costs the
            // full bit sweep; bail out once every *valid* lane is dead.
            if j % 16 == 15 && lanes::is_zero(lanes::andnot(valid, dead)) {
                return lanes::ZERO;
            }
        }
        // Keep lanes whose K-bit count is <= tau: scan planes high to low
        // tracking "strictly greater so far" / "equal prefix so far".
        let mut gt = lanes::ZERO;
        let mut eq = lanes::ONES;
        for (plane, &counter) in planes.iter().enumerate().rev() {
            let tau_bit = if (tau >> plane) & 1 == 1 {
                lanes::ONES
            } else {
                lanes::ZERO
            };
            gt = lanes::or(gt, lanes::andnot(lanes::and(eq, counter), tau_bit));
            eq = lanes::andnot(eq, lanes::xor(counter, tau_bit));
        }
        lanes::andnot(lanes::andnot(valid, gt), dead)
    }

    /// Counter planes needed to decide `count ≤ tau` (bits of `tau`).
    #[inline]
    fn plane_count(tau: usize) -> usize {
        (usize::BITS - tau.leading_zeros()) as usize
    }

    /// Whether some stored pattern is within Hamming distance `tau` of
    /// `query` — the single-probe entry point (a batch of one).
    ///
    /// # Panics
    ///
    /// Panics if `query.len()` differs from the set width (on a non-empty
    /// set).
    pub fn contains_within(&self, query: &BitWord, tau: usize) -> bool {
        self.contains_within_range(query, tau, 0, self.superblocks())
    }

    /// [`BitSliceSet::contains_within`] restricted to superblocks
    /// `sb_start..sb_end` — the partition-pruned entry point used by the
    /// store's segment index.
    ///
    /// # Panics
    ///
    /// Panics if `query.len()` differs from the set width (on a non-empty
    /// set) or the superblock range is out of bounds.
    pub fn contains_within_range(
        &self,
        query: &BitWord,
        tau: usize,
        sb_start: usize,
        sb_end: usize,
    ) -> bool {
        if self.len == 0 || sb_start >= sb_end {
            return false;
        }
        assert_eq!(
            query.len(),
            self.bits,
            "BitSliceSet: query width differs from set width"
        );
        assert!(
            sb_end <= self.superblocks(),
            "superblock range out of bounds"
        );
        if tau >= self.bits {
            // Every pattern is within distance `bits`; the range holds at
            // least one valid pattern (ranges are superblock-aligned and
            // only the final superblock is partial, never empty).
            return true;
        }
        let q = query.limbs();
        if tau == 0 {
            return (sb_start..sb_end)
                .any(|s| !lanes::is_zero(lanes::and(self.probe_exact(s, q), self.valid_mask(s))));
        }
        let mut planes = vec![lanes::ZERO; Self::plane_count(tau)];
        (sb_start..sb_end).any(|s| !lanes::is_zero(self.probe_within(s, q, tau, &mut planes)))
    }

    /// Answers a whole batch of Hamming-ball probes, writing
    /// `out[i] = contains_within(queries[i], tau)`.
    ///
    /// Iterates **superblocks outer, still-pending queries inner**, so
    /// each slice block is loaded once per batch rather than once per
    /// query — the cache shape that makes batched membership several
    /// times faster than a per-query loop (see `BENCH_query`).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() < queries.len()`, or if any query's width
    /// differs from the set width (on a non-empty set).
    pub fn contains_within_batch(&self, queries: &[BitWord], tau: usize, out: &mut [bool]) {
        assert!(
            out.len() >= queries.len(),
            "BitSliceSet::contains_within_batch: output slice too short"
        );
        out[..queries.len()].fill(false);
        if self.len == 0 || queries.is_empty() {
            return;
        }
        for query in queries {
            assert_eq!(
                query.len(),
                self.bits,
                "BitSliceSet: query width differs from set width"
            );
        }
        if tau >= self.bits {
            out[..queries.len()].fill(true);
            return;
        }
        let mut pending: Vec<usize> = (0..queries.len()).collect();
        let mut planes = vec![lanes::ZERO; Self::plane_count(tau.max(1))];
        for s in 0..self.superblocks() {
            let valid = self.valid_mask(s);
            let mut i = 0;
            while i < pending.len() {
                let qi = pending[i];
                let q = queries[qi].limbs();
                let hit = if tau == 0 {
                    !lanes::is_zero(lanes::and(self.probe_exact(s, q), valid))
                } else {
                    !lanes::is_zero(self.probe_within(s, q, tau, &mut planes))
                };
                if hit {
                    out[qi] = true;
                    pending.swap_remove(i);
                } else {
                    i += 1;
                }
            }
            if pending.is_empty() {
                return;
            }
        }
    }
}

impl Extend<BitWord> for BitSliceSet {
    fn extend<I: IntoIterator<Item = BitWord>>(&mut self, iter: I) {
        for word in iter {
            self.insert(&word);
        }
    }
}

impl<'a> Extend<&'a BitWord> for BitSliceSet {
    fn extend<I: IntoIterator<Item = &'a BitWord>>(&mut self, iter: I) {
        for word in iter {
            self.insert(word);
        }
    }
}

impl FromIterator<BitWord> for BitSliceSet {
    fn from_iter<I: IntoIterator<Item = BitWord>>(iter: I) -> Self {
        let mut set = Self::new();
        set.extend(iter);
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The naive oracle every kernel is pinned against.
    fn oracle(words: &[BitWord], query: &BitWord, tau: usize) -> bool {
        words.iter().any(|w| w.hamming(query) as usize <= tau)
    }

    fn pseudo_words(bits: usize, count: usize, seed: u64) -> Vec<BitWord> {
        let mut state = seed | 1;
        let mut step = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        (0..count)
            .map(|_| BitWord::from_fn(bits, |_| step() & 1 == 1))
            .collect()
    }

    #[test]
    fn empty_set_matches_nothing() {
        let set = BitSliceSet::new();
        assert!(set.is_empty());
        assert!(!set.contains_within(&BitWord::from_bools(&[true]), 5));
        let queries = vec![BitWord::from_bools(&[true, false])];
        let mut out = vec![true];
        set.contains_within_batch(&queries, 1, &mut out);
        assert!(!out[0]);
    }

    #[test]
    fn single_and_batch_agree_with_oracle_across_limb_boundaries() {
        for bits in [1usize, 3, 63, 64, 65, 127, 128, 129, 200, 300] {
            for count in [1usize, 5, 63, 64, 65, 255, 256, 257, 600] {
                let words = pseudo_words(bits, count, (bits * 1000 + count) as u64);
                let mut set = BitSliceSet::with_bits(bits);
                for w in &words {
                    set.insert(w);
                }
                assert_eq!(set.len(), count);
                let queries = pseudo_words(bits, 16, (bits + count) as u64 ^ 0xdead);
                // Mix in near-misses of stored words so hits at every tau
                // are exercised, not just random far misses.
                let mut probes = queries;
                let mut flipped = words[count / 2].clone();
                flipped.set(bits - 1, !flipped.get(bits - 1));
                probes.push(flipped);
                probes.push(words[0].clone());
                for tau in 0..4usize {
                    let mut out = vec![false; probes.len()];
                    set.contains_within_batch(&probes, tau, &mut out);
                    for (i, probe) in probes.iter().enumerate() {
                        let expect = oracle(&words, probe, tau);
                        assert_eq!(
                            set.contains_within(probe, tau),
                            expect,
                            "single bits={bits} count={count} tau={tau} probe={i}"
                        );
                        assert_eq!(
                            out[i], expect,
                            "batch bits={bits} count={count} tau={tau} probe={i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tau_at_or_above_width_accepts_everything_nonempty() {
        let mut set = BitSliceSet::with_bits(5);
        set.insert(&BitWord::from_fn(5, |i| i == 0));
        let q = BitWord::from_fn(5, |i| i != 0);
        assert!(set.contains_within(&q, 5));
        assert!(set.contains_within(&q, 100));
        // Distance between 10000 and 01111 is exactly 5: tau=4 misses.
        assert!(!set.contains_within(&q, 4));
    }

    #[test]
    fn range_probe_sees_only_its_superblocks() {
        let bits = 10;
        // Superblock 0 holds only the all-zero word (x256), superblock 1
        // only the all-one word (x256).
        let mut set = BitSliceSet::with_bits(bits);
        for _ in 0..SUPERBLOCK_PATTERNS {
            set.insert(&BitWord::zeros(bits));
        }
        for _ in 0..SUPERBLOCK_PATTERNS {
            set.insert(&BitWord::from_fn(bits, |_| true));
        }
        let ones = BitWord::from_fn(bits, |_| true);
        assert!(!set.contains_within_range(&ones, 1, 0, 1));
        assert!(set.contains_within_range(&ones, 1, 1, 2));
        assert!(set.contains_within_range(&ones, 1, 0, 2));
        let zeros = BitWord::zeros(bits);
        assert!(set.contains_within_range(&zeros, 0, 0, 1));
        assert!(!set.contains_within_range(&zeros, 0, 1, 2));
    }

    #[test]
    fn insert_adopts_width_from_first_word() {
        let mut set = BitSliceSet::new();
        assert_eq!(set.bits(), 0);
        set.insert(&BitWord::from_bools(&[true, false, true]));
        assert_eq!(set.bits(), 3);
        assert!(set.contains_within(&BitWord::from_bools(&[true, false, true]), 0));
    }

    #[test]
    #[should_panic(expected = "word width differs")]
    fn width_mismatch_on_insert_panics() {
        let mut set = BitSliceSet::with_bits(4);
        set.insert(&BitWord::from_bools(&[true, false]));
    }

    #[test]
    #[should_panic(expected = "query width differs")]
    fn width_mismatch_on_query_panics() {
        let mut set = BitSliceSet::with_bits(4);
        set.insert(&BitWord::zeros(4));
        set.contains_within(&BitWord::zeros(5), 1);
    }

    proptest! {
        #[test]
        fn kernels_match_naive_hamming_scan(
            bits in 1usize..140,
            count in 1usize..400,
            tau in 0usize..5,
            seed in 0u64..u64::MAX,
        ) {
            let words = pseudo_words(bits, count, seed | 1);
            let set: BitSliceSet = words.iter().collect::<Vec<_>>().into_iter().cloned().collect();
            let probes = pseudo_words(bits, 8, seed.rotate_left(17) | 1);
            let mut out = vec![false; probes.len()];
            set.contains_within_batch(&probes, tau, &mut out);
            for (i, probe) in probes.iter().enumerate() {
                let expect = oracle(&words, probe, tau);
                prop_assert_eq!(set.contains_within(probe, tau), expect);
                prop_assert_eq!(out[i], expect);
            }
        }
    }
}

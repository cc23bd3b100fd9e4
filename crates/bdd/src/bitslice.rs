//! Bit-sliced (block-transposed) pattern sets: the Hamming membership
//! kernel.
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
//! ## Kernel
//!
//! One loop answers every Hamming-ball probe, exact or tolerant, one query
//! or a batch. A batch is prepared once as [`QueryMasks`], one broadcast
//! mask per query bit. Per lane, `K = ⌈log₂(tau+1)⌉` *counter planes* hold
//! each pattern's running mismatch count: every query bit adds its mismatch
//! mask `slice ^ mask` by a ripple carry through all `K` planes, with no
//! branch on the carry, and a carry out of the top plane marks the pattern
//! dead (its count passed `2^K − 1 ≥ tau`). `K = 0` is exact match. The
//! planes are a fixed-size array chosen by a const generic: one instance
//! per `K ≤ 4` (`tau ≤ 15`) and one wide instance for any larger `tau`.
//! Every 16 bits the loop stops once every valid pattern is dead; at the
//! end, a bitwise compare of the planes against `tau` keeps the patterns
//! whose count is `≤ tau`.
//!
//! [`BitSliceSet::mark_within`] is the entry point. It iterates
//! **superblocks outer, pending queries inner**, so one superblock (about
//! 1.2 KiB at 39 bits) stays in L1 while every query probes it, and a
//! query leaves the batch at its first hit. `contains_within_batch` calls
//! it, and `contains_within` is a batch of one.
//!
//! The loop is compiled twice, portable and with AVX2 (a bit plane's four
//! lanes are one 256-bit register); `is_x86_feature_detected!` picks the
//! copy at run time. The tests below run both copies against a copy of the
//! earlier per-query kernels and a naive per-word [`BitWord::hamming`]
//! scan; the property suites in `napmon-core` and `napmon-store` pin the
//! monitors and the store.

use crate::word::BitWord;
use std::ops::Range;

/// Lanes per superblock: the kernels operate on `[u64; LANES]` at a time.
pub const LANES: usize = 4;

/// Patterns per superblock (`LANES` sub-blocks of 64).
pub const SUPERBLOCK_PATTERNS: usize = LANES * 64;

/// Counter planes of the kernel's wide instance: enough for any `tau`.
const WIDE: usize = usize::BITS as usize;

/// Four-lane limb operations on whole `[u64; LANES]` values, written as
/// indexed loops that LLVM turns into one vector operation each.
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

/// A batch of queries prepared for the kernel: bit `j` of every query as a
/// broadcast mask, all-ones where the bit is set and all-zero where it is
/// clear. Prepared once per batch, it serves every set the batch probes
/// (the store runs one batch over its tail and each segment).
#[derive(Debug, Clone)]
pub struct QueryMasks {
    bits: usize,
    /// `bits` masks per query, query-major.
    masks: Vec<u64>,
}

impl QueryMasks {
    /// Prepares `queries`, each `bits` wide.
    ///
    /// # Panics
    ///
    /// Panics if a query's width differs from `bits`.
    pub fn new(bits: usize, queries: &[BitWord]) -> Self {
        let mut masks = Vec::with_capacity(queries.len() * bits);
        for query in queries {
            assert_eq!(query.len(), bits, "QueryMasks: query width differs");
            let limbs = query.limbs();
            masks.extend((0..bits).map(|j| 0u64.wrapping_sub((limbs[j / 64] >> (j % 64)) & 1)));
        }
        Self { bits, masks }
    }

    /// The masks of query `i`, one per bit.
    #[inline]
    fn of(&self, i: usize) -> &[u64] {
        &self.masks[i * self.bits..(i + 1) * self.bits]
    }
}

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
    /// Panics if the limb count disagrees with the set width, if a bit at
    /// or past the width is set, or if the width was never fixed
    /// ([`BitSliceSet::with_bits`]). Sources that read limbs from disk
    /// check the padding first and refuse such a word themselves.
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
        let spare = self.bits % 64;
        assert!(
            spare == 0 || limbs[limbs.len() - 1] >> spare == 0,
            "BitSliceSet::insert_limbs: a bit past the set width is set"
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
            // Visit only the set bits: the padding is zero (asserted
            // above), so every visited position is below `bits`.
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

    /// Whether some stored pattern is within Hamming distance `tau` of
    /// `query` — the single-probe entry point (a batch of one).
    ///
    /// # Panics
    ///
    /// Panics if `query.len()` differs from the set width (on a non-empty
    /// set).
    pub fn contains_within(&self, query: &BitWord, tau: usize) -> bool {
        let mut hit = [false];
        self.contains_within_batch(std::slice::from_ref(query), tau, &mut hit);
        hit[0]
    }

    /// Answers a whole batch of Hamming-ball probes, writing
    /// `out[i] = contains_within(queries[i], tau)`.
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
        let mut pending = (0..queries.len()).collect();
        let queries = QueryMasks::new(self.bits, queries);
        self.mark_within(&queries, tau, 0..self.superblocks(), &mut pending, out);
    }

    /// The kernel: runs each query listed in `pending` over the
    /// `superblocks` range. A query with a stored pattern there within
    /// Hamming distance `tau` gets `out[i] = true` and leaves `pending`;
    /// every other entry of `out` is left as it was. So a caller that
    /// spreads one batch over several sets (the store's tail and
    /// segments) prepares the masks once and passes the survivors on.
    ///
    /// # Panics
    ///
    /// Panics if the queries' width differs from the set width (on a
    /// non-empty set), if the superblock range is out of bounds, or if a
    /// pending index is out of range of `queries` or `out`.
    pub fn mark_within(
        &self,
        queries: &QueryMasks,
        tau: usize,
        superblocks: Range<usize>,
        pending: &mut Vec<usize>,
        out: &mut [bool],
    ) {
        if self.len == 0 || superblocks.is_empty() || pending.is_empty() {
            return;
        }
        assert_eq!(
            queries.bits, self.bits,
            "BitSliceSet: query width differs from set width"
        );
        assert!(
            superblocks.end <= self.superblocks(),
            "superblock range out of bounds"
        );
        let probe = Probe {
            set: self,
            queries,
            tau,
            superblocks,
        };
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: `scan_avx2` enables no target feature but AVX2, and
            // the check just above found AVX2 on this CPU.
            unsafe { scan_avx2(&probe, pending, out) };
            return;
        }
        scan(&probe, pending, out);
    }
}

/// One kernel call: a prepared batch, its tolerance, and the superblocks
/// of the set it runs over.
struct Probe<'a> {
    set: &'a BitSliceSet,
    queries: &'a QueryMasks,
    tau: usize,
    superblocks: Range<usize>,
}

/// The kernel's AVX2 copy: a bit plane's four lanes are one 256-bit
/// register.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn scan_avx2(probe: &Probe<'_>, pending: &mut Vec<usize>, out: &mut [bool]) {
    scan(probe, pending, out);
}

/// The loop every copy compiles, instanced by the counter planes `tau`
/// needs.
#[inline(always)]
fn scan(probe: &Probe<'_>, pending: &mut Vec<usize>, out: &mut [bool]) {
    match plane_count(probe.tau) {
        0 => scan_planes::<0>(probe, pending, out),
        1 => scan_planes::<1>(probe, pending, out),
        2 => scan_planes::<2>(probe, pending, out),
        3 => scan_planes::<3>(probe, pending, out),
        4 => scan_planes::<4>(probe, pending, out),
        _ => scan_planes::<WIDE>(probe, pending, out),
    }
}

/// Counter planes needed to decide `count ≤ tau`: the bit length of `tau`.
#[inline]
fn plane_count(tau: usize) -> usize {
    (usize::BITS - tau.leading_zeros()) as usize
}

/// Superblocks outer, pending queries inner, on `K` counter planes.
#[inline(always)]
fn scan_planes<const K: usize>(probe: &Probe<'_>, pending: &mut Vec<usize>, out: &mut [bool]) {
    let (set, tau) = (probe.set, probe.tau);
    // The wide instance has room for any tau; only its low planes count.
    let live = if K == WIDE { plane_count(tau) } else { K };
    let limbs = set.superblock_limbs();
    for s in probe.superblocks.clone() {
        let (rows, _) = set.slices[s * limbs..(s + 1) * limbs].as_chunks::<LANES>();
        let valid = set.valid_mask(s);
        let mut i = 0;
        while i < pending.len() {
            let q = pending[i];
            if within::<K>(rows, probe.queries.of(q), valid, tau, live) {
                out[q] = true;
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

/// Whether some valid pattern of one superblock (`rows`: one lane vector
/// per bit) is within `tau` of one query (`masks`: one per bit), counting
/// on the low `live` of `K` planes.
#[inline(always)]
fn within<const K: usize>(rows: &[V], masks: &[u64], valid: V, tau: usize, live: usize) -> bool {
    let mut planes = [lanes::ZERO; K];
    let mut dead = lanes::ZERO;
    for (rows, masks) in rows.chunks(16).zip(masks.chunks(16)) {
        for (&row, &mask) in rows.iter().zip(masks) {
            // Ripple-carry add of the mismatch mask into the counter
            // planes; a carry out of the top plane means the count passed
            // what the planes hold, so it is certainly > tau.
            let mut carry = lanes::xor(row, lanes::splat(mask));
            for plane in &mut planes[..live] {
                let spill = lanes::and(*plane, carry);
                *plane = lanes::xor(*plane, carry);
                carry = spill;
            }
            dead = lanes::or(dead, carry);
        }
        // A pattern that mismatches everywhere still costs the full bit
        // sweep; bail out once every *valid* lane is dead.
        if lanes::is_zero(lanes::andnot(valid, dead)) {
            return false;
        }
    }
    // Keep lanes whose count is <= tau: scan planes high to low tracking
    // "strictly greater so far" / "equal prefix so far".
    let mut gt = lanes::ZERO;
    let mut eq = lanes::ONES;
    for (p, &plane) in planes[..live].iter().enumerate().rev() {
        let tau_bit = lanes::splat(0u64.wrapping_sub(((tau >> p) & 1) as u64));
        gt = lanes::or(gt, lanes::andnot(lanes::and(eq, plane), tau_bit));
        eq = lanes::andnot(eq, lanes::xor(plane, tau_bit));
    }
    !lanes::is_zero(lanes::andnot(lanes::andnot(valid, gt), dead))
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

    /// Words whose bits are an LCG's top bit (its low bit only alternates).
    fn pseudo_words(bits: usize, count: usize, seed: u64) -> Vec<BitWord> {
        let mut state = seed | 1;
        let mut step = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        (0..count)
            .map(|_| BitWord::from_fn(bits, |_| step() >> 63 == 1))
            .collect()
    }

    /// 17 probes: stored words at distance 0–20 (so every tau in 0–20
    /// both hits and misses), random words, and two duplicates.
    fn probes(words: &[BitWord], bits: usize, seed: u64) -> Vec<BitWord> {
        let mut probes = pseudo_words(bits, 5, seed);
        for (n, d) in [0usize, 1, 2, 3, 5, 8, 13, 16, 17, 20]
            .into_iter()
            .enumerate()
        {
            match words.len() {
                0 => probes.extend(pseudo_words(bits, 1, seed ^ n as u64)),
                len => {
                    let mut w = words[(n * 37) % len].clone();
                    for f in 0..d.min(bits) {
                        let j = (n + f) % bits;
                        w.set(j, !w.get(j));
                    }
                    probes.push(w);
                }
            }
        }
        probes.push(probes[5].clone());
        probes.push(probes[0].clone());
        probes
    }

    /// The kernels this one replaced, kept as the reference: per query
    /// and superblock, the exact-match accumulator (exit at the first
    /// all-mismatch bit) or `⌈log₂(tau+1)⌉` counter planes whose ripple
    /// carry stops at the first zero carry, with each query bit's mask
    /// recomputed from the limbs.
    fn reference_probe(set: &BitSliceSet, s: usize, query: &[u64], tau: usize) -> bool {
        let base = s * set.superblock_limbs();
        let valid = set.valid_mask(s);
        let slice = |j: usize| -> V {
            set.slices[base + j * LANES..base + j * LANES + LANES]
                .try_into()
                .expect("LANES limbs")
        };
        let mask = |j: usize| lanes::splat(0u64.wrapping_sub((query[j / 64] >> (j % 64)) & 1));
        if tau == 0 {
            let mut acc = lanes::ONES;
            for j in 0..set.bits {
                acc = lanes::andnot(acc, lanes::xor(slice(j), mask(j)));
                if lanes::is_zero(acc) {
                    return false;
                }
            }
            return !lanes::is_zero(lanes::and(acc, valid));
        }
        let mut planes = vec![lanes::ZERO; plane_count(tau)];
        let mut dead = lanes::ZERO;
        for j in 0..set.bits {
            let mut carry = lanes::xor(slice(j), mask(j));
            for plane in planes.iter_mut() {
                let spill = lanes::and(*plane, carry);
                *plane = lanes::xor(*plane, carry);
                carry = spill;
                if lanes::is_zero(carry) {
                    break;
                }
            }
            dead = lanes::or(dead, carry);
            if j % 16 == 15 && lanes::is_zero(lanes::andnot(valid, dead)) {
                return false;
            }
        }
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
        !lanes::is_zero(lanes::andnot(lanes::andnot(valid, gt), dead))
    }

    type Copy = fn(&Probe<'_>, &mut Vec<usize>, &mut [bool]);

    /// Every compiled copy of the kernel this CPU can run, by name.
    fn copies() -> Vec<(&'static str, Copy)> {
        let mut copies: Vec<(&'static str, Copy)> = vec![("portable", scan)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            copies.push(("avx2", |probe, pending, out| {
                // SAFETY: listed only when the CPU has AVX2, the one
                // target feature `scan_avx2` enables.
                unsafe { scan_avx2(probe, pending, out) }
            }));
        }
        copies
    }

    /// Runs every copy on `probes` over `superblocks` with the probes
    /// whose index is in `answered` already answered, and checks every
    /// answer and the pending list left behind against the reference.
    fn check(
        set: &BitSliceSet,
        probes: &[BitWord],
        tau: usize,
        superblocks: Range<usize>,
        answered: impl Fn(usize) -> bool,
    ) {
        let expect: Vec<bool> = probes
            .iter()
            .enumerate()
            .map(|(i, probe)| {
                answered(i)
                    || superblocks
                        .clone()
                        .any(|s| reference_probe(set, s, probe.limbs(), tau))
            })
            .collect();
        let queries = QueryMasks::new(set.bits(), probes);
        for (name, copy) in copies() {
            let mut out: Vec<bool> = (0..probes.len()).map(&answered).collect();
            let mut pending: Vec<usize> = (0..probes.len()).filter(|&i| !out[i]).collect();
            let probe = Probe {
                set,
                queries: &queries,
                tau,
                superblocks: superblocks.clone(),
            };
            copy(&probe, &mut pending, &mut out);
            let ctx = format!(
                "{name}: bits={} len={} tau={tau} superblocks={superblocks:?}",
                set.bits(),
                set.len()
            );
            assert_eq!(out, expect, "{ctx}");
            for (i, &hit) in out.iter().enumerate() {
                assert_eq!(pending.contains(&i), !hit, "{ctx}: pending probe {i}");
            }
        }
    }

    #[test]
    fn every_copy_matches_the_reference_kernel() {
        let widths = [
            1usize, 2, 3, 5, 15, 16, 17, 31, 39, 63, 64, 65, 100, 127, 128, 129, 200, 255, 256,
            257, 300,
        ];
        for (w, &bits) in widths.iter().enumerate() {
            for count in [0usize, 1, 63, 64, 65, 255, 256, 257, 600] {
                let seed = (bits * 1000 + count) as u64;
                let words = pseudo_words(bits, count, seed);
                let mut set = BitSliceSet::with_bits(bits);
                words.iter().for_each(|word| set.insert(word));
                let probes = probes(&words, bits, !seed);
                let all = set.superblocks();
                // Three widths run every tau in 0-20, the rest a stride
                // of it, so every width meets K = 0 and the wide instance.
                let stride = if [39, 65, 129].contains(&bits) { 1 } else { 4 };
                for tau in (0..=20).filter(|tau| tau % stride == w % stride || *tau == 0) {
                    check(&set, &probes, tau, 0..all, |i| i % 5 == 4);
                    if all > 1 {
                        for s in 0..all {
                            check(&set, &probes, tau, s..s + 1, |_| false);
                        }
                        check(&set, &probes, tau, 1..all, |i| i % 2 == 0);
                    }
                }
            }
        }
    }

    #[test]
    fn every_copy_answers_batches_of_every_size() {
        let bits = 39;
        let words = pseudo_words(bits, 600, 39);
        let set: BitSliceSet = words.iter().cloned().collect();
        let probes = probes(&words, bits, 0x5eed);
        for n in 0..=probes.len() {
            for tau in [0usize, 2, 15, 16] {
                check(&set, &probes[..n], tau, 0..3, |i| i % 4 == 1);
                // The entry point dispatches to one of the copies, and
                // the public batch agrees with the naive scan.
                let queries = QueryMasks::new(bits, &probes[..n]);
                let mut out = vec![false; n];
                let mut pending = (0..n).collect();
                set.mark_within(&queries, tau, 0..3, &mut pending, &mut out);
                let mut batch = vec![true; n];
                set.contains_within_batch(&probes[..n], tau, &mut batch);
                for (i, probe) in probes[..n].iter().enumerate() {
                    let expect = oracle(&words, probe, tau);
                    assert_eq!(out[i], expect, "mark_within n={n} tau={tau} probe {i}");
                    assert_eq!(batch[i], expect, "batch n={n} tau={tau} probe {i}");
                }
            }
        }
    }

    #[test]
    fn query_masks_broadcast_each_bit() {
        let word = BitWord::from_fn(70, |j| j % 3 == 0 || j == 69);
        let queries = QueryMasks::new(70, &[word.clone(), BitWord::zeros(70)]);
        assert_eq!(queries.masks.len(), 140);
        for j in 0..70 {
            assert_eq!(
                queries.of(0)[j],
                if word.get(j) { !0 } else { 0 },
                "bit {j}"
            );
            assert_eq!(queries.of(1)[j], 0, "bit {j}");
        }
        assert!(QueryMasks::new(70, &[]).masks.is_empty());
    }

    #[test]
    #[should_panic(expected = "a bit past the set width is set")]
    fn padding_bits_on_insert_limbs_panic() {
        let mut set = BitSliceSet::with_bits(39);
        set.insert_limbs(&[1 << 39]);
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
        let in_range = |query: BitWord, tau, superblocks| {
            let mut hit = [false];
            let queries = QueryMasks::new(bits, &[query]);
            set.mark_within(&queries, tau, superblocks, &mut vec![0], &mut hit);
            hit[0]
        };
        let ones = || BitWord::from_fn(bits, |_| true);
        assert!(!in_range(ones(), 1, 0..1));
        assert!(in_range(ones(), 1, 1..2));
        assert!(in_range(ones(), 1, 0..2));
        assert!(in_range(BitWord::zeros(bits), 0, 0..1));
        assert!(!in_range(BitWord::zeros(bits), 0, 1..2));
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
        fn every_copy_matches_the_reference_at_any_width(
            bits in 1usize..301,
            count in 0usize..700,
            tau in 0usize..21,
            n in 0usize..18,
            first in 0usize..3,
            answered in 0u64..u64::MAX,
            seed in 0u64..u64::MAX,
        ) {
            let words = pseudo_words(bits, count, seed);
            let mut set = BitSliceSet::with_bits(bits);
            words.iter().for_each(|word| set.insert(word));
            let probes = probes(&words, bits, seed.rotate_left(17));
            let superblocks = first.min(set.superblocks())..set.superblocks();
            check(&set, &probes[..n], tau, superblocks, |i| (answered >> i) & 1 == 1);
        }

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

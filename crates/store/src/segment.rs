//! Sealed segment files: immutable, sorted, checksummed word blocks.
//!
//! A segment is written once (by seal or compaction) and never modified.
//! Layout, all integers little-endian:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"NAPSEG01"
//! 8       4     word_bits (u32)
//! 12      4     bloom probe count k (u32)
//! 16      8     word_count (u64)
//! 24      8     bloom bit count m (u64)
//! 32      8·⌈m/64⌉           bloom bit words
//! …       8·word_count·limbs packed words, sorted ascending (limb-lex)
//! end−8   8     FNV-1a checksum of every preceding byte
//! ```
//!
//! Words are stored sorted so exact membership is one binary search; the
//! inline Bloom filter short-circuits the common negative case without
//! touching the word block at all.

use crate::bloom::BloomFilter;
use crate::checksum::{fnv1a, fnv1a_limbs};
use crate::error::StoreError;
use crate::faults::Faults;
use napmon_bdd::{BitSliceSet, BitWord, QueryMasks, SUPERBLOCK_PATTERNS};
use std::path::Path;

pub(crate) const SEGMENT_MAGIC: &[u8; 8] = b"NAPSEG01";

/// Words per prefix partition of the Hamming index: two bit-slice
/// superblocks, so a partition that survives mask pruning maps exactly
/// onto a superblock range of the sliced kernel.
pub(crate) const PARTITION_WORDS: usize = 2 * SUPERBLOCK_PATTERNS;

/// One sealed segment, fully resident: metadata, Bloom filter, and the
/// sorted packed word block.
#[derive(Debug, Clone)]
pub struct Segment {
    /// File name within the store directory.
    pub(crate) file: String,
    /// Number of words.
    pub(crate) count: usize,
    /// `u64` limbs per word.
    pub(crate) limbs: usize,
    /// The membership pre-filter.
    pub(crate) bloom: BloomFilter,
    /// `count · limbs` packed limbs, sorted ascending by word.
    pub(crate) words: Vec<u64>,
    /// Whole-file checksum, as recorded in the manifest.
    pub(crate) checksum: u64,
    /// Block-transposed mirror of `words` for the batch Hamming kernel.
    pub(crate) slices: BitSliceSet,
    /// Per-partition AND of every word's limbs: partition `p` owns
    /// `and_masks[p·limbs..(p+1)·limbs]`. Because `words` is sorted
    /// limb-lexicographically, consecutive words share leading-limb
    /// prefixes, which keeps these masks tight exactly where pruning pays.
    pub(crate) and_masks: Vec<u64>,
    /// Per-partition OR of every word's limbs, same layout.
    pub(crate) or_masks: Vec<u64>,
    /// FNV-1a over the partition masks, recorded in the manifest so a
    /// rebuilt index can be pinned against drift.
    pub(crate) masks_checksum: u64,
}

/// Builds the Hamming index over a sorted word block: the bit-sliced
/// mirror plus the per-partition AND/OR masks and their checksum.
fn build_index(
    word_bits: usize,
    limbs: usize,
    count: usize,
    words: &[u64],
) -> (BitSliceSet, Vec<u64>, Vec<u64>, u64) {
    let lw = limbs.max(1);
    debug_assert!(
        words.len().is_multiple_of(lw),
        "segment word block is not word-aligned"
    );
    let mut slices = BitSliceSet::with_bits(word_bits.max(1));
    let partitions = count.div_ceil(PARTITION_WORDS);
    let mut and_masks = vec![!0u64; partitions * lw];
    let mut or_masks = vec![0u64; partitions * lw];
    for i in 0..count {
        let word = &words[i * lw..(i + 1) * lw];
        slices.insert_limbs(word);
        let base = (i / PARTITION_WORDS) * lw;
        for (l, &limb) in word.iter().enumerate() {
            and_masks[base + l] &= limb;
            or_masks[base + l] |= limb;
        }
    }
    let mut checksum_input = Vec::with_capacity(and_masks.len() + or_masks.len());
    checksum_input.extend_from_slice(&and_masks);
    checksum_input.extend_from_slice(&or_masks);
    let masks_checksum = fnv1a_limbs(&checksum_input);
    (slices, and_masks, or_masks, masks_checksum)
}

impl Segment {
    /// Number of words in the segment.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the segment holds no words.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The word at `index` as a limb slice.
    #[inline]
    pub(crate) fn word(&self, index: usize) -> &[u64] {
        &self.words[index * self.limbs..(index + 1) * self.limbs]
    }

    /// Exact membership: Bloom pre-filter, then binary search over the
    /// sorted word block.
    #[inline]
    pub(crate) fn contains(&self, limbs: &[u64]) -> bool {
        if !self.bloom.might_contain(limbs) {
            #[cfg(feature = "obs")]
            crate::obs::metrics().bloom_misses.inc();
            return false;
        }
        #[cfg(feature = "obs")]
        crate::obs::metrics().bloom_hits.inc();
        let (mut lo, mut hi) = (0usize, self.count);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.word(mid).cmp(limbs) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return true,
            }
        }
        #[cfg(feature = "obs")]
        crate::obs::metrics().bloom_false_positives.inc();
        false
    }

    /// Hamming-ball membership over the sealed block for every query in
    /// `pending`, pruned by the partition index. In each partition the
    /// AND/OR masks pick the pending queries that can still hit; only
    /// those run the bit-sliced kernel, over exactly the partition's two
    /// superblocks. A hit sets `out[i]` and leaves `pending`. `words` and
    /// `queries` are the same batch, as limbs and as prepared masks.
    ///
    /// The mask bound is sound: for any stored word `w` in the partition,
    /// a query bit set where no word has it set (`q & !or`), or clear
    /// where every word has it set (`!q & and`), differs from `w` at that
    /// position, so the popcount of those two sets lower-bounds
    /// `hamming(q, w)`.
    pub(crate) fn mark_within(
        &self,
        words: &[BitWord],
        queries: &QueryMasks,
        tau: usize,
        pending: &mut Vec<usize>,
        out: &mut [bool],
    ) {
        let lw = self.limbs.max(1);
        let sb_per_partition = PARTITION_WORDS / SUPERBLOCK_PATTERNS;
        let sb_total = self.slices.superblocks();
        let mut candidates = Vec::with_capacity(pending.len());
        for p in 0..self.count.div_ceil(PARTITION_WORDS) {
            if pending.is_empty() {
                return;
            }
            let and = &self.and_masks[p * lw..(p + 1) * lw];
            let or = &self.or_masks[p * lw..(p + 1) * lw];
            candidates.clear();
            candidates.extend(pending.iter().copied().filter(|&i| {
                let mut lower_bound = 0usize;
                for ((&q, &a), &o) in words[i].limbs().iter().zip(and).zip(or) {
                    lower_bound += ((q & !o) | (!q & a)).count_ones() as usize;
                    if lower_bound > tau {
                        return false;
                    }
                }
                true
            }));
            let sb = p * sb_per_partition..((p + 1) * sb_per_partition).min(sb_total);
            self.slices
                .mark_within(queries, tau, sb, &mut candidates, out);
            pending.retain(|&i| !out[i]);
        }
    }

    /// Writes a segment atomically (`.tmp` + fsync + rename) and returns
    /// its in-memory form. `sorted_words` must be `count · limbs` limbs in
    /// ascending word order with no duplicates.
    pub(crate) fn write(
        dir: &Path,
        file: &str,
        word_bits: usize,
        limbs: usize,
        sorted_words: &[u64],
        bloom_bits_per_word: usize,
        faults: &Faults,
    ) -> Result<Self, StoreError> {
        debug_assert_eq!(sorted_words.len() % limbs.max(1), 0);
        let count = sorted_words.len().checked_div(limbs).unwrap_or(0);
        let mut bloom = BloomFilter::with_capacity(count, bloom_bits_per_word);
        for i in 0..count {
            bloom.insert(&sorted_words[i * limbs..(i + 1) * limbs]);
        }

        let mut bytes = Vec::with_capacity(32 + 8 * (bloom.words().len() + sorted_words.len()) + 8);
        bytes.extend_from_slice(SEGMENT_MAGIC);
        bytes.extend_from_slice(&(word_bits as u32).to_le_bytes());
        bytes.extend_from_slice(&bloom.k().to_le_bytes());
        bytes.extend_from_slice(&(count as u64).to_le_bytes());
        bytes.extend_from_slice(&bloom.m().to_le_bytes());
        for &w in bloom.words() {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        for &w in sorted_words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        let checksum = fnv1a(&bytes);
        bytes.extend_from_slice(&checksum.to_le_bytes());

        let path = dir.join(file);
        let tmp = dir.join(format!("{file}.tmp"));
        {
            let mut f = std::fs::File::create(&tmp)?;
            faults.write_all("segment.write", &mut f, &bytes)?;
            faults.check("segment.sync")?;
            f.sync_all()?;
        }
        faults.check("segment.rename")?;
        std::fs::rename(&tmp, &path)?;

        let (slices, and_masks, or_masks, masks_checksum) =
            build_index(word_bits, limbs, count, sorted_words);
        Ok(Self {
            file: file.to_string(),
            count,
            limbs,
            bloom,
            words: sorted_words.to_vec(),
            checksum,
            slices,
            and_masks,
            or_masks,
            masks_checksum,
        })
    }

    /// Loads and fully verifies a sealed segment. `expect_masks` is the
    /// manifest's recorded partition-index checksum; `None` (a pre-index
    /// manifest) accepts the freshly rebuilt index as-is.
    pub(crate) fn load(
        dir: &Path,
        file: &str,
        expect_bits: usize,
        limbs: usize,
        expect_checksum: u64,
        expect_masks: Option<u64>,
    ) -> Result<Self, StoreError> {
        let path = dir.join(file);
        let corrupt = |detail: String| StoreError::Corrupt {
            file: path.clone(),
            detail,
        };
        let bytes = std::fs::read(&path).map_err(|e| {
            if e.kind() == std::io::ErrorKind::NotFound {
                StoreError::Missing(path.clone())
            } else {
                StoreError::Io(e)
            }
        })?;
        if bytes.len() < 40 {
            return Err(corrupt(format!("file too short ({} bytes)", bytes.len())));
        }
        if &bytes[0..8] != SEGMENT_MAGIC {
            return Err(corrupt("bad magic".into()));
        }
        let body = &bytes[..bytes.len() - 8];
        let recorded = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8 bytes"));
        if fnv1a(body) != recorded {
            return Err(corrupt(
                "checksum mismatch (torn or bit-rotted write)".into(),
            ));
        }
        if recorded != expect_checksum {
            return Err(corrupt(format!(
                "checksum {recorded:#x} disagrees with manifest {expect_checksum:#x}"
            )));
        }
        let word_bits = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")) as usize;
        if word_bits != expect_bits {
            return Err(StoreError::Mismatch(format!(
                "segment {file} stores {word_bits}-bit words, store is {expect_bits}-bit"
            )));
        }
        let k = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes"));
        let count = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes")) as usize;
        let m = u64::from_le_bytes(bytes[24..32].try_into().expect("8 bytes"));
        let bloom_words = (m as usize).div_ceil(64);
        let expected_len = 32 + 8 * (bloom_words + count * limbs) + 8;
        if bytes.len() != expected_len {
            return Err(corrupt(format!(
                "length {} does not match header ({} expected)",
                bytes.len(),
                expected_len
            )));
        }
        let read_limbs = |range: std::ops::Range<usize>| -> Vec<u64> {
            bytes[range]
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
                .collect()
        };
        let bloom = BloomFilter::from_parts(read_limbs(32..32 + 8 * bloom_words), m, k);
        let words = read_limbs(32 + 8 * bloom_words..bytes.len() - 8);
        if let Some(i) = words
            .chunks_exact(limbs.max(1))
            .position(|word| !padding_clear(word, word_bits))
        {
            return Err(corrupt(format!(
                "word {i} sets a bit past the {word_bits}-bit width"
            )));
        }
        let (slices, and_masks, or_masks, masks_checksum) =
            build_index(word_bits, limbs, count, &words);
        if let Some(expected) = expect_masks {
            if masks_checksum != expected {
                return Err(corrupt(format!(
                    "partition index checksum {masks_checksum:#x} disagrees with \
                     manifest {expected:#x}"
                )));
            }
        }
        Ok(Self {
            file: file.to_string(),
            count,
            limbs,
            bloom,
            words,
            checksum: recorded,
            slices,
            and_masks,
            or_masks,
            masks_checksum,
        })
    }
}

/// Sorts and deduplicates a flat limb buffer of `limbs`-wide words in
/// place-ish, returning the canonical segment word block.
pub(crate) fn sort_dedup_words(words: &[u64], limbs: usize) -> Vec<u64> {
    if limbs == 0 || words.is_empty() {
        return Vec::new();
    }
    let mut index: Vec<usize> = (0..words.len() / limbs).collect();
    index.sort_unstable_by(|&a, &b| {
        words[a * limbs..(a + 1) * limbs].cmp(&words[b * limbs..(b + 1) * limbs])
    });
    let mut out: Vec<u64> = Vec::with_capacity(words.len());
    for &i in &index {
        let w = &words[i * limbs..(i + 1) * limbs];
        if out.len() >= limbs && &out[out.len() - limbs..] == w {
            continue;
        }
        out.extend_from_slice(w);
    }
    out
}

/// Whether a packed word leaves every bit at or past `word_bits` clear, as
/// the sliced mirror requires (see [`BitSliceSet::insert_limbs`]).
pub(crate) fn padding_clear(word: &[u64], word_bits: usize) -> bool {
    let spare = word_bits % 64;
    spare == 0 || word.last().is_none_or(|&limb| limb >> spare == 0)
}

/// The canonical file name of segment `id`.
pub(crate) fn segment_file_name(id: u64) -> String {
    format!("segment-{id:08}.seg")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("napmon_segment_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn write_load_round_trip() {
        let dir = tmp_dir("roundtrip");
        let words = sort_dedup_words(&[3, 1, 2, 1], 1);
        assert_eq!(words, vec![1, 2, 3]);
        let seg = Segment::write(
            &dir,
            "segment-00000000.seg",
            40,
            1,
            &words,
            10,
            &Faults::default(),
        )
        .unwrap();
        let loaded = Segment::load(
            &dir,
            "segment-00000000.seg",
            40,
            1,
            seg.checksum,
            Some(seg.masks_checksum),
        )
        .unwrap();
        assert_eq!(loaded.len(), 3);
        assert!(loaded.contains(&[2]));
        assert!(!loaded.contains(&[4]));
        // The rebuilt partition index matches the one computed at write.
        assert_eq!(loaded.masks_checksum, seg.masks_checksum);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wrong_masks_checksum_is_corrupt() {
        let dir = tmp_dir("maskdrift");
        let seg = Segment::write(&dir, "s.seg", 64, 1, &[5, 9], 10, &Faults::default()).unwrap();
        let err = Segment::load(
            &dir,
            "s.seg",
            64,
            1,
            seg.checksum,
            Some(seg.masks_checksum ^ 1),
        )
        .unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn partition_pruned_hamming_matches_linear_scan() {
        let dir = tmp_dir("hamming");
        // Enough words to span several partitions, clustered so the
        // AND/OR masks actually prune (sorted order groups the clusters).
        let bits = 100usize;
        let limbs = 2usize;
        let mut flat = Vec::new();
        for cluster in 0u64..5 {
            let hi = cluster << 30;
            for i in 0u64..300 {
                flat.extend_from_slice(&[hi | (i * 3), cluster]);
            }
        }
        let sorted = sort_dedup_words(&flat, limbs);
        let seg = Segment::write(
            &dir,
            "s.seg",
            bits as u32 as usize,
            limbs,
            &sorted,
            10,
            &Faults::default(),
        )
        .unwrap();
        let count = sorted.len() / limbs;
        let probe = |limb0: u64, limb1: u64| {
            BitWord::from_fn(bits, |i| {
                let l = [limb0, limb1][i / 64];
                (l >> (i % 64)) & 1 == 1
            })
        };
        let probes: Vec<BitWord> = [
            (0u64, 0u64),
            (3, 0),
            (7, 0),
            ((3 << 30) | 9, 3),
            ((3 << 30) | 8, 3),
            ((9 << 30) | 1, 9),
            (u64::MAX >> 10, 2),
        ]
        .iter()
        .map(|&(a, b)| probe(a, b))
        .collect();
        let queries = QueryMasks::new(bits, &probes);
        let mut checked = 0;
        for tau in 0..4usize {
            // The whole batch at once, then each probe as a batch of one.
            let mut pending: Vec<usize> = (0..probes.len()).collect();
            let mut out = vec![false; probes.len()];
            seg.mark_within(&probes, &queries, tau, &mut pending, &mut out);
            for (i, q) in probes.iter().enumerate() {
                let ql = q.limbs();
                let naive = (0..count).any(|i| {
                    let w = &sorted[i * limbs..(i + 1) * limbs];
                    let d: u32 = w.iter().zip(ql).map(|(x, y)| (x ^ y).count_ones()).sum();
                    d as usize <= tau
                });
                assert_eq!(out[i], naive, "probe {i} tau {tau}");
                assert_eq!(pending.contains(&i), !naive, "probe {i} tau {tau}");
                let mut one = [false];
                let single = QueryMasks::new(bits, std::slice::from_ref(q));
                seg.mark_within(
                    std::slice::from_ref(q),
                    &single,
                    tau,
                    &mut vec![0],
                    &mut one,
                );
                assert_eq!(one[0], naive, "single probe {i} tau {tau}");
                checked += 1;
            }
        }
        assert!(checked > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_byte_is_detected() {
        let dir = tmp_dir("corrupt");
        let seg = Segment::write(&dir, "s.seg", 64, 1, &[5, 9], 10, &Faults::default()).unwrap();
        let path = dir.join("s.seg");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let err = Segment::load(&dir, "s.seg", 64, 1, seg.checksum, None).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_segment_is_detected() {
        let dir = tmp_dir("truncated");
        let seg =
            Segment::write(&dir, "s.seg", 64, 1, &[5, 9, 11], 10, &Faults::default()).unwrap();
        let path = dir.join("s.seg");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();
        let err = Segment::load(&dir, "s.seg", 64, 1, seg.checksum, None).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn multi_limb_words_sort_lexicographically() {
        let flat = [
            1u64, 0, // word A = limbs [1, 0]
            0, 1, // word B = limbs [0, 1]
            1, 0, // duplicate of A
        ];
        let sorted = sort_dedup_words(&flat, 2);
        assert_eq!(sorted, vec![0, 1, 1, 0]);
    }
}

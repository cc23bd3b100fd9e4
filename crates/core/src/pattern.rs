//! Activation-pattern monitors: `B` bits per neuron, on-off at `B = 1`.
//!
//! Each monitored neuron `j` gets `2^B − 1` ascending thresholds `c_{j,i}`
//! and is abstracted to the *symbol* `#{ i : v_j > c_{j,i} }` — which of
//! the `2^B` value intervals it landed in — written as `B` bits, most
//! significant first. At `B = 1` the symbol is the on-off bit
//! `b_j = 1 ⇔ v_j > c_j` of Cheng et al. (DATE 2019; §III-A/B of the
//! paper); `B > 1` is the paper's multi-bit interval abstraction (§III-C),
//! and `B = 2` regenerates exactly the ten cases of its Figure 1.
//!
//! The robust construction maps the perturbation estimate `[l_j, u_j]` to
//! the *set* of symbols it touches — always a contiguous range, because the
//! symbol is monotone in the neuron value (at `B = 1`, a straddled
//! threshold is the paper's don't-care `-`) — and inserts the product of
//! the ranges (`word2set`).
//!
//! ## Boundary convention
//!
//! The uniform half-open rule `symbol(v) = #{ i : v > c_i }` coincides
//! with the paper's 2-bit table everywhere except the measure-zero boundary
//! `v = c_2` (the paper's table mixes strict and non-strict comparisons
//! between rows); the uniform rule is the one that agrees with the on-off
//! monitor at `B = 1`.
//!
//! ## Serialized layouts
//!
//! A 1-bit monitor writes the on-off layout (`thresholds` as one list,
//! `store` as a tagged backend, `hamming_tolerance`); a multi-bit monitor
//! writes the interval layout (`bits`, one threshold list per neuron, and
//! either `bdd` + `root` inline or an `external` descriptor). The reader
//! takes both.

use crate::error::MonitorError;
use crate::feature::FeatureExtractor;
use crate::monitor::{non_finite_warning, Monitor, QueryScratch, Verdict, Violation};
use crate::sliced::SlicedPatternSet;
use crate::source::{ExternalHandle, SharedPatternSource, SourceDescriptor};
use napmon_absint::BoxBounds;
use napmon_bdd::{Bdd, BitWord, NodeId};
use napmon_nn::Network;
use napmon_tensor::stats;
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::ops::RangeInclusive;

/// How per-neuron thresholds are chosen from the training features.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ThresholdPolicy {
    /// All thresholds at `0.0` (the DATE 2019 "sign of the neuron value");
    /// only meaningful for 1-bit monitors.
    Sign,
    /// A single threshold at the mean visited value (1-bit only).
    Mean,
    /// `2^B − 1` evenly spaced interior quantiles of the visited values —
    /// the natural generalization for multi-bit monitors.
    Quantiles,
    /// Explicit per-neuron threshold lists (each ascending, length
    /// `2^B − 1`).
    Explicit(Vec<Vec<f64>>),
}

impl ThresholdPolicy {
    /// Resolves the policy into per-neuron ascending threshold lists.
    ///
    /// `features` holds the training feature vectors (used by the
    /// data-dependent policies).
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::InvalidConfig`] when the policy does not
    /// support the requested bit width or the explicit thresholds are
    /// malformed.
    pub fn resolve(
        &self,
        dim: usize,
        bits: usize,
        features: &[Vec<f64>],
    ) -> Result<Vec<Vec<f64>>, MonitorError> {
        if matches!(self, ThresholdPolicy::Sign | ThresholdPolicy::Mean) && bits != 1 {
            return Err(MonitorError::InvalidConfig(format!(
                "{self:?} policy requires bits = 1, got {bits}"
            )));
        }
        let data_dependent = matches!(self, ThresholdPolicy::Mean | ThresholdPolicy::Quantiles);
        if data_dependent && features.is_empty() {
            return Err(MonitorError::EmptyTrainingSet);
        }
        let column = |j: usize| -> Vec<f64> { features.iter().map(|f| f[j]).collect() };
        match self {
            ThresholdPolicy::Sign => Ok(vec![vec![0.0]; dim]),
            ThresholdPolicy::Mean => Ok((0..dim).map(|j| vec![stats::mean(&column(j))]).collect()),
            ThresholdPolicy::Quantiles => Ok((0..dim)
                .map(|j| {
                    let mut qs = stats::interior_quantiles(&column(j), (1 << bits) - 1);
                    // Degenerate columns (constant activations) produce tied
                    // quantiles; nudge them apart so the list is ascending.
                    for i in 1..qs.len() {
                        if qs[i] <= qs[i - 1] {
                            qs[i] = qs[i - 1] + f64::EPSILON.max(qs[i - 1].abs() * 1e-12);
                        }
                    }
                    qs
                })
                .collect()),
            ThresholdPolicy::Explicit(lists) => {
                if lists.len() != dim {
                    return Err(MonitorError::DimensionMismatch {
                        context: "explicit thresholds".into(),
                        expected: dim,
                        actual: lists.len(),
                    });
                }
                check_threshold_lists(bits, lists.iter().map(Vec::as_slice))?;
                Ok(lists.clone())
            }
        }
    }
}

/// Bits per neuron must lie in `1..=8`.
pub(crate) fn check_bits(bits: usize) -> Result<(), MonitorError> {
    if bits == 0 || bits > 8 {
        return Err(MonitorError::InvalidConfig(format!(
            "bits per neuron must be in 1..=8, got {bits}"
        )));
    }
    Ok(())
}

/// The one threshold rule, for every bit width: each neuron's list holds
/// `2^bits − 1` finite, strictly ascending thresholds.
pub(crate) fn check_threshold_lists<'a>(
    bits: usize,
    lists: impl IntoIterator<Item = &'a [f64]>,
) -> Result<(), MonitorError> {
    let per_neuron = (1usize << bits) - 1;
    for (j, list) in lists.into_iter().enumerate() {
        if list.len() != per_neuron {
            return Err(MonitorError::InvalidConfig(format!(
                "neuron {j}: expected {per_neuron} thresholds for {bits}-bit patterns, got {}",
                list.len()
            )));
        }
        if list.iter().any(|c| !c.is_finite()) {
            return Err(MonitorError::InvalidConfig(format!(
                "neuron {j}: thresholds must be finite, got {list:?}"
            )));
        }
        if list.windows(2).any(|w| w[0] >= w[1]) {
            return Err(MonitorError::InvalidConfig(format!(
                "neuron {j}: thresholds not ascending: {list:?}"
            )));
        }
    }
    Ok(())
}

/// Storage backend for the pattern set.
///
/// The paper stores pattern sets in BDDs so that the robust construction's
/// `word2set` (don't-care expansion) stays linear; the hash-set backend
/// materializes every word and exists for the storage ablation (experiment
/// A5) and as a differential-testing oracle. The `Store` backend delegates
/// the word set to an external [`crate::PatternSource`] (e.g. the
/// persistent log-structured store in `napmon-store`), which is what lets
/// a monitor survive restarts and absorb operation-time patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PatternBackend {
    /// Binary decision diagram (default; matches the paper).
    Bdd,
    /// Explicit hash set of packed words.
    HashSet,
    /// An external pattern source attached at build/mount time
    /// ([`PatternMonitor::with_source`]); specs declaring this backend
    /// build via `MonitorSpec::build_with_sources`.
    Store,
}

/// Words are stored packed ([`BitWord`]) and hashed with the same FxHash
/// scheme as the BDD tables: membership hashes one `u64` limb per 64
/// encoded bits instead of SipHashing one byte per bit, and the query side
/// never materializes a `Vec<bool>`. The hash backend also keeps a
/// bit-sliced mirror of the set ([`SlicedPatternSet`]) so Hamming-tolerant
/// queries run the block-transposed kernel instead of a per-word scan; the
/// serialized shape is unchanged (a seq of words).
#[derive(Debug, Clone, Serialize, Deserialize)]
enum Store {
    Bdd {
        bdd: Bdd,
        root: NodeId,
    },
    Hash(SlicedPatternSet),
    /// Externally-held word set; serializes as a [`SourceDescriptor`]
    /// (the words stay in the store), so this variant is what makes
    /// store-backed artifacts small and warm-startable.
    External(ExternalHandle),
}

/// An activation-pattern monitor with `B` bits per monitored neuron: the
/// on-off monitor at `B = 1`, the multi-bit interval monitor of §III-C
/// above it. See the [module docs](self).
///
/// The set of words visited over the training set is the abstraction. A
/// query warns when its word is not in the set — or, with
/// [`PatternMonitor::set_hamming_tolerance`], not within the configured
/// Hamming distance of any stored word (the query-time enlargement studied
/// in the DATE 2019 paper; distances count encoded bits).
#[derive(Debug, Clone)]
pub struct PatternMonitor {
    extractor: FeatureExtractor,
    bits: usize,
    /// Neuron-major: `2^B − 1` ascending thresholds per neuron.
    thresholds: Vec<f64>,
    store: Store,
    hamming_tolerance: usize,
    samples: usize,
}

/// The multi-bit monitor's former name, kept only because the benchmark
/// package (`perfbench/`) still imports it; it goes when that package
/// next changes.
pub type IntervalPatternMonitor = PatternMonitor;

impl PatternMonitor {
    /// Creates an empty monitor with `bits` bits per neuron and, per
    /// monitored neuron, `2^bits − 1` ascending thresholds.
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::InvalidConfig`] for `bits` outside `1..=8`,
    /// malformed thresholds (wrong count, non-finite, not ascending) or
    /// [`PatternBackend::Store`] (which needs
    /// [`PatternMonitor::with_source`]), and
    /// [`MonitorError::DimensionMismatch`] if there is not one list per
    /// monitored neuron.
    pub fn empty(
        extractor: FeatureExtractor,
        bits: usize,
        thresholds: Vec<Vec<f64>>,
        backend: PatternBackend,
    ) -> Result<Self, MonitorError> {
        let thresholds = flatten_thresholds(&extractor, bits, thresholds)?;
        let store = match backend {
            PatternBackend::Bdd => Store::Bdd {
                bdd: Bdd::new(extractor.dim() * bits),
                root: Bdd::FALSE,
            },
            PatternBackend::HashSet => Store::Hash(SlicedPatternSet::default()),
            PatternBackend::Store => {
                return Err(MonitorError::InvalidConfig(
                    "the Store backend needs an attached source; build with \
                     PatternMonitor::with_source (or MonitorSpec::build_with_sources)"
                        .into(),
                ))
            }
        };
        Ok(Self {
            extractor,
            bits,
            thresholds,
            store,
            hamming_tolerance: 0,
            samples: 0,
        })
    }

    /// Creates a monitor whose word set lives in an external
    /// [`crate::PatternSource`] over the packed `B·d`-bit encoding
    /// (backend [`PatternBackend::Store`]).
    ///
    /// The source may already hold words (warm start from a store on
    /// disk); they become members immediately.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PatternMonitor::empty`], plus
    /// [`MonitorError::DimensionMismatch`] if the source's word width is
    /// not `extractor.dim() * bits`.
    pub fn with_source(
        extractor: FeatureExtractor,
        bits: usize,
        thresholds: Vec<Vec<f64>>,
        source: SharedPatternSource,
    ) -> Result<Self, MonitorError> {
        let thresholds = flatten_thresholds(&extractor, bits, thresholds)?;
        let handle = ExternalHandle::attached(source);
        let word_bits = extractor.dim() * bits;
        if handle.descriptor().word_bits != word_bits {
            return Err(MonitorError::DimensionMismatch {
                context: "pattern source word width".into(),
                expected: word_bits,
                actual: handle.descriptor().word_bits,
            });
        }
        Ok(Self {
            extractor,
            bits,
            thresholds,
            store: Store::External(handle),
            hamming_tolerance: 0,
            samples: 0,
        })
    }

    /// Bits per neuron `B`.
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// The thresholds, neuron-major: neuron `j` owns the `2^B − 1`
    /// ascending entries starting at `j · (2^B − 1)` (one per neuron at
    /// `B = 1`).
    pub fn thresholds(&self) -> &[f64] {
        &self.thresholds
    }

    /// Checks what construction guarantees and deserialization does not:
    /// `bits` in `1..=8` and `2^B − 1` finite ascending thresholds for
    /// each monitored neuron.
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::DimensionMismatch`] for a threshold count
    /// off the monitored width and [`MonitorError::InvalidConfig`] for
    /// anything else.
    pub fn check_thresholds(&self) -> Result<(), MonitorError> {
        check_bits(self.bits)?;
        let per_neuron = self.per_neuron();
        let expected = self.extractor.dim() * per_neuron;
        if self.thresholds.len() != expected {
            return Err(MonitorError::DimensionMismatch {
                context: format!("{}-bit pattern thresholds", self.bits),
                expected,
                actual: self.thresholds.len(),
            });
        }
        check_threshold_lists(self.bits, self.thresholds.chunks(per_neuron))
    }

    fn per_neuron(&self) -> usize {
        (1 << self.bits) - 1
    }

    fn neuron_thresholds(&self, j: usize) -> &[f64] {
        let per_neuron = self.per_neuron();
        &self.thresholds[j * per_neuron..(j + 1) * per_neuron]
    }

    /// The symbol of value `v` for neuron `j`: `#{ i : v > c_{j,i} }`, in
    /// `0..2^B`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn symbol(&self, j: usize, v: f64) -> u16 {
        symbol_of(v, self.neuron_thresholds(j))
    }

    /// The contiguous symbol set touched by `[l, u]` for neuron `j` — the
    /// robust encoding `ab_R` of the paper (Figure 1 for `B = 2`; at
    /// `B = 1`, `0..=1` is the don't-care). A NaN bound leaves its side of
    /// the range open.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn symbol_range(&self, j: usize, l: f64, u: f64) -> RangeInclusive<u16> {
        let cs = self.neuron_thresholds(j);
        let at_most_u = cs.iter().filter(|&&c| u <= c).count();
        symbol_of(l, cs)..=(cs.len() - at_most_u) as u16
    }

    /// The packed abstraction `ab` (neuron-major, most significant bit
    /// first). Stack-only for encodings up to [`napmon_bdd::INLINE_BITS`]
    /// bits.
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` differs from the monitor dimension.
    pub fn abstract_bitword(&self, features: &[f64]) -> BitWord {
        let mut word = BitWord::default();
        self.abstract_into(features, &mut word);
        word
    }

    /// Packs the abstraction into a caller-owned scratch word (resized as
    /// needed; zero allocation once grown): the query-path abstraction.
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` differs from the monitor dimension.
    pub fn abstract_into(&self, features: &[f64], word: &mut BitWord) {
        let (bits, per_neuron) = (self.bits, self.per_neuron());
        assert_eq!(
            features.len() * per_neuron,
            self.thresholds.len(),
            "abstract_into: dimension mismatch"
        );
        if bits == 1 {
            // One threshold per neuron: the symbol is the bit itself.
            let on = features.iter().zip(&self.thresholds).map(|(v, c)| v > c);
            word.fill_from_iter(features.len(), on);
            return;
        }
        let mut symbols = features
            .iter()
            .zip(self.thresholds.chunks_exact(per_neuron))
            .map(|(&v, cs)| symbol_of(v, cs));
        let mut symbol = 0u16;
        word.fill_with(features.len() * bits, |i| {
            let bit = i % bits;
            if bit == 0 {
                symbol = symbols.next().expect("one symbol per neuron");
            }
            (symbol >> (bits - 1 - bit)) & 1 == 1
        });
    }

    /// Folds one feature vector (standard construction, `⊎`).
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::ExternalSource`] if the backing store
    /// fails (in-memory backends are infallible).
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` differs from the monitor dimension.
    pub fn absorb_point(&mut self, features: &[f64]) -> Result<(), MonitorError> {
        let word = self.abstract_bitword(features);
        match &mut self.store {
            Store::Bdd { bdd, root } => *root = bdd.insert_word(*root, &word),
            Store::Hash(set) => {
                set.insert(word);
            }
            Store::External(handle) => {
                handle.insert(&word)?;
            }
        }
        self.samples += 1;
        Ok(())
    }

    /// Folds one perturbation estimate (robust construction, `⊎_R` with
    /// `word2set`): per neuron the contiguous [`PatternMonitor::symbol_range`],
    /// inserted as a product.
    ///
    /// With the BDD backend the product inserts in time linear in the word
    /// length no matter how many symbols each range holds; the hash and
    /// external backends must enumerate every word of the product — the
    /// blow-up the paper's footnote 2 warns about, reproduced here
    /// deliberately and capped at `2^24` words.
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::ExternalSource`] if the backing store
    /// fails.
    ///
    /// # Panics
    ///
    /// Panics if `bounds.dim()` differs from the monitor dimension or a
    /// non-BDD backend would expand more than `2^24` words.
    pub fn absorb_bounds(&mut self, bounds: &BoxBounds) -> Result<(), MonitorError> {
        assert_eq!(
            bounds.dim() * self.per_neuron(),
            self.thresholds.len(),
            "absorb_bounds: dimension mismatch"
        );
        let ranges: Vec<RangeInclusive<u16>> = (0..bounds.dim())
            .map(|j| self.symbol_range(j, bounds.lo()[j], bounds.hi()[j]))
            .collect();
        let bits = self.bits;
        match &mut self.store {
            Store::Bdd { bdd, root } => {
                let blocks: Vec<Vec<u16>> = ranges.into_iter().map(Iterator::collect).collect();
                let product = bdd.product_of_blocks(&blocks, bits);
                *root = bdd.or(*root, product);
            }
            Store::Hash(set) => for_each_word(&ranges, bits, |w| {
                set.insert(w);
                Ok(())
            })?,
            Store::External(handle) => {
                for_each_word(&ranges, bits, |w| handle.insert(&w).map(drop))?
            }
        }
        self.samples += 1;
        Ok(())
    }

    /// Absorbs one feature vector through `&self` — the operation-time
    /// enlargement path. Only external sources support this (their word
    /// set sits behind a shared lock, so every clone of the monitor — in
    /// particular every serving shard — observes the new pattern
    /// immediately); in-memory backends need `&mut` via
    /// [`PatternMonitor::absorb_point`].
    ///
    /// Does not bump [`PatternMonitor::samples`], which counts
    /// construction-time training samples only.
    ///
    /// Returns `true` if the pattern was new.
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::ExternalSource`] for a non-external backend
    /// or a failing store.
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` differs from the monitor dimension.
    pub fn absorb_features_shared(&self, features: &[f64]) -> Result<bool, MonitorError> {
        let Store::External(handle) = &self.store else {
            return Err(MonitorError::ExternalSource(
                "operation-time absorption needs a store-backed monitor \
                 (backend PatternBackend::Store)"
                    .into(),
            ));
        };
        handle.insert(&self.abstract_bitword(features))
    }

    /// Sets the query-time Hamming tolerance `τ`: a word is accepted when
    /// some stored word differs in at most `τ` encoded bits.
    pub fn set_hamming_tolerance(&mut self, tau: usize) {
        self.hamming_tolerance = tau;
    }

    /// The configured query-time Hamming tolerance `τ`.
    pub fn hamming_tolerance(&self) -> usize {
        self.hamming_tolerance
    }

    /// Exact membership of a packed word: the allocation-free hot path.
    ///
    /// # Panics
    ///
    /// Panics if `word.len()` is not the encoded width `B·d`.
    #[inline]
    pub fn contains_packed(&self, word: &BitWord) -> bool {
        match &self.store {
            Store::Bdd { bdd, root } => bdd.eval(*root, word),
            Store::Hash(set) => set.contains(word),
            Store::External(handle) => handle.contains(word),
        }
    }

    /// Whether some stored word is within Hamming distance `tau` of
    /// `word`. The hash backend runs the bit-sliced kernel (a batch of
    /// one); the BDD walk explores `O(nodes · tau)` states.
    ///
    /// # Panics
    ///
    /// Panics if `word.len()` is not the encoded width `B·d`.
    pub fn contains_within_packed(&self, word: &BitWord, tau: usize) -> bool {
        match &self.store {
            Store::Bdd { bdd, root } => bdd.contains_within_hamming(*root, word, tau),
            Store::Hash(set) => set.contains_within(word, tau),
            Store::External(handle) => handle.contains_within(word, tau),
        }
    }

    /// Number of absorbed samples.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Number of distinct words admitted by the monitor. For store-backed
    /// monitors this is a *live* figure: operation-time absorptions move
    /// it.
    pub fn pattern_count(&self) -> f64 {
        match &self.store {
            Store::Bdd { bdd, root } => bdd.satcount(*root),
            Store::Hash(set) => set.len() as f64,
            Store::External(handle) => handle.word_count() as f64,
        }
    }

    /// Fraction of the `2^{B·d}` pattern space the monitor admits — the
    /// "efficiency" measure from the paper's conclusion (a monitor covering
    /// almost everything raises almost no warnings).
    pub fn coverage(&self) -> f64 {
        self.pattern_count() / 2f64.powi((self.extractor.dim() * self.bits) as i32)
    }

    /// Memory proxy: BDD nodes, hash-set words, or external-store words
    /// currently stored.
    pub fn store_size(&self) -> usize {
        match &self.store {
            Store::Bdd { bdd, root } => bdd.reachable_nodes(*root),
            Store::Hash(set) => set.len(),
            Store::External(handle) => handle.store_size(),
        }
    }

    /// The storage backend the pattern set lives in.
    pub fn backend(&self) -> PatternBackend {
        match &self.store {
            Store::Bdd { .. } => PatternBackend::Bdd,
            Store::Hash(_) => PatternBackend::HashSet,
            Store::External(_) => PatternBackend::Store,
        }
    }

    /// The descriptor of the external source, if the monitor is
    /// store-backed.
    pub fn external_descriptor(&self) -> Option<&SourceDescriptor> {
        match &self.store {
            Store::External(handle) => Some(handle.descriptor()),
            _ => None,
        }
    }

    /// Whether the monitor is store-backed but its handle is detached
    /// (fresh from deserialization, awaiting
    /// [`PatternMonitor::attach_source`]).
    pub fn needs_source(&self) -> bool {
        matches!(&self.store, Store::External(h) if !h.is_attached())
    }

    /// Reattaches (or replaces) the external source behind a store-backed
    /// monitor — the deserialization counterpart of
    /// [`PatternMonitor::with_source`].
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::ExternalSource`] if the monitor is not
    /// store-backed, or [`MonitorError::DimensionMismatch`] if the
    /// source's word width disagrees with the recorded descriptor.
    pub fn attach_source(&mut self, source: SharedPatternSource) -> Result<(), MonitorError> {
        match &mut self.store {
            Store::External(handle) => handle.attach(source),
            _ => Err(MonitorError::ExternalSource(
                "monitor is not store-backed; nothing to attach".into(),
            )),
        }
    }

    /// Flushes the external source's buffered writes, if any (no-op for
    /// in-memory backends).
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::ExternalSource`] if the store fails.
    pub fn commit_source(&self) -> Result<(), MonitorError> {
        match &self.store {
            Store::External(handle) => handle.commit(),
            _ => Ok(()),
        }
    }
}

/// Checks per-neuron threshold lists against the extractor and the bit
/// width, and flattens them neuron-major.
fn flatten_thresholds(
    extractor: &FeatureExtractor,
    bits: usize,
    lists: Vec<Vec<f64>>,
) -> Result<Vec<f64>, MonitorError> {
    check_bits(bits)?;
    if lists.len() != extractor.dim() {
        return Err(MonitorError::DimensionMismatch {
            context: "pattern thresholds".into(),
            expected: extractor.dim(),
            actual: lists.len(),
        });
    }
    check_threshold_lists(bits, lists.iter().map(Vec::as_slice))?;
    Ok(lists.concat())
}

/// `#{ i : v > c_i }`.
fn symbol_of(v: f64, thresholds: &[f64]) -> u16 {
    thresholds.iter().filter(|&&c| v > c).count() as u16
}

/// Enumerates every word of the product of per-neuron symbol ranges into
/// `sink`, the first neuron varying fastest — the `word2set`
/// materialization non-BDD backends pay, capped at `2^24` words (the
/// paper's footnote-2 blow-up, reproduced deliberately). The cap check
/// cannot overflow: it bails out the moment the running product passes
/// the cap.
fn for_each_word(
    ranges: &[RangeInclusive<u16>],
    bits: usize,
    mut sink: impl FnMut(BitWord) -> Result<(), MonitorError>,
) -> Result<(), MonitorError> {
    let words = ranges
        .iter()
        .try_fold(1u64, |acc, r| {
            acc.checked_mul(u64::from(r.end() - r.start()) + 1)
        })
        .filter(|&n| n <= 1 << 24);
    assert!(
        words.is_some(),
        "word2set would expand more than 2^24 words; use the BDD backend"
    );
    let set_symbol = |word: &mut BitWord, j: usize, symbol: u16| {
        for bit in 0..bits {
            word.set(j * bits + bit, (symbol >> (bits - 1 - bit)) & 1 == 1);
        }
    };
    let varying: Vec<usize> = (0..ranges.len())
        .filter(|&j| ranges[j].start() < ranges[j].end())
        .collect();
    let mut symbols: Vec<u16> = ranges.iter().map(|r| *r.start()).collect();
    let mut word = BitWord::zeros(ranges.len() * bits);
    for (j, &symbol) in symbols.iter().enumerate() {
        set_symbol(&mut word, j, symbol);
    }
    loop {
        sink(word.clone())?;
        // Mixed-radix increment over the varying neurons: bump the first
        // one below its range end and reset every one before it.
        let Some(k) = varying.iter().position(|&j| symbols[j] < *ranges[j].end()) else {
            return Ok(());
        };
        for &j in &varying[..k] {
            symbols[j] = *ranges[j].start();
            set_symbol(&mut word, j, symbols[j]);
        }
        let j = varying[k];
        symbols[j] += 1;
        set_symbol(&mut word, j, symbols[j]);
    }
}

impl PatternMonitor {
    fn verdict_packed(&self, word: &BitWord) -> Verdict {
        let ok = if self.hamming_tolerance == 0 {
            self.contains_packed(word)
        } else {
            self.contains_within_packed(word, self.hamming_tolerance)
        };
        if ok {
            Verdict::ok()
        } else {
            // Warnings are the cold path; unpacking for the evidence is fine.
            Verdict::warn(vec![Violation::UnknownPattern {
                word: word.to_bools(),
            }])
        }
    }
}

impl Monitor for PatternMonitor {
    fn extractor(&self) -> &FeatureExtractor {
        &self.extractor
    }

    fn verdict_features_scratch(&self, features: &[f64], scratch: &mut QueryScratch) -> Verdict {
        self.abstract_into(features, &mut scratch.word);
        self.verdict_packed(&scratch.word)
    }

    /// The batched query path: abstract every input first, then answer all
    /// memberships together — the hash backend runs the bit-sliced batch
    /// kernel and store-backed monitors take one read lock for the whole
    /// batch. Verdicts are bit-identical to the per-input loop.
    fn verdict_batch_scratch(
        &self,
        net: &Network,
        inputs: &[Vec<f64>],
        scratch: &mut QueryScratch,
        out: &mut Vec<Verdict>,
    ) -> Result<(), MonitorError> {
        out.clear();
        scratch.abstract_batch(&self.extractor, net, inputs, |features, word| {
            self.abstract_into(features, word)
        })?;
        let words = &scratch.batch_words[..inputs.len()];
        scratch.batch_hits.clear();
        scratch.batch_hits.resize(inputs.len(), false);
        let tau = self.hamming_tolerance;
        match &self.store {
            // The BDD holds no sliced layout; its walk is already
            // sublinear in the set, so the batch is a plain loop.
            Store::Bdd { bdd, root } => {
                for (word, hit) in words.iter().zip(scratch.batch_hits.iter_mut()) {
                    *hit = if tau == 0 {
                        bdd.eval(*root, word)
                    } else {
                        bdd.contains_within_hamming(*root, word, tau)
                    };
                }
            }
            Store::Hash(set) => set.contains_within_batch(words, tau, &mut scratch.batch_hits),
            Store::External(handle) => {
                handle.contains_within_batch(words, tau, &mut scratch.batch_hits)
            }
        }

        out.reserve(inputs.len());
        for ((word, &hit), input) in words.iter().zip(&scratch.batch_hits).zip(inputs) {
            out.push(non_finite_warning(input).unwrap_or_else(|| {
                if hit {
                    Verdict::ok()
                } else {
                    Verdict::warn(vec![Violation::UnknownPattern {
                        word: word.to_bools(),
                    }])
                }
            }));
        }
        Ok(())
    }
}

/// Writes the on-off layout at `B = 1` and the interval layout above it
/// (see the [module docs](self)). Hand-written because the vendored serde
/// derive can express neither the two layouts nor optional fields.
impl Serialize for PatternMonitor {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::Error;
        let layout = self.layout().map_err(S::Error::custom)?;
        serializer.serialize_value(layout)
    }
}

impl PatternMonitor {
    fn layout(&self) -> Result<serde::Value, serde::ValueError> {
        let mut map = serde::Map::new();
        map.insert("extractor".into(), serde::to_value(&self.extractor)?);
        map.insert("samples".into(), serde::to_value(&self.samples)?);
        let tolerance = serde::to_value(&self.hamming_tolerance)?;
        if self.bits == 1 {
            map.insert("thresholds".into(), serde::to_value(&self.thresholds)?);
            map.insert("store".into(), serde::to_value(&self.store)?);
            map.insert("hamming_tolerance".into(), tolerance);
            return Ok(serde::Value::Object(map));
        }
        let lists: Vec<&[f64]> = self.thresholds.chunks(self.per_neuron()).collect();
        map.insert("bits".into(), serde::to_value(&self.bits)?);
        map.insert("thresholds".into(), serde::to_value(&lists)?);
        match &self.store {
            Store::Bdd { bdd, root } => {
                map.insert("bdd".into(), serde::to_value(bdd)?);
                map.insert("root".into(), serde::to_value(root)?)
            }
            Store::Hash(set) => map.insert("hash".into(), serde::to_value(set)?),
            Store::External(handle) => map.insert("external".into(), serde::to_value(handle)?),
        };
        if self.hamming_tolerance > 0 {
            map.insert("hamming_tolerance".into(), tolerance);
        }
        Ok(serde::Value::Object(map))
    }
}

impl<'de> Deserialize<'de> for PatternMonitor {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        use serde::de::Error;
        Self::from_layout(deserializer.deserialize_value()?).map_err(D::Error::custom)
    }
}

impl PatternMonitor {
    /// Reads either layout: the interval one is the one with `bits`.
    fn from_layout(value: serde::Value) -> Result<Self, serde::ValueError> {
        fn take<T: for<'a> Deserialize<'a>>(
            map: &mut serde::Map,
            key: &str,
        ) -> Result<T, serde::ValueError> {
            let value = map.remove(key).ok_or_else(|| {
                serde::ValueError(format!("missing field `{key}` in PatternMonitor"))
            })?;
            serde::from_value(value)
        }
        let serde::Value::Object(mut map) = value else {
            return Err(serde::ValueError(
                "expected object for PatternMonitor".into(),
            ));
        };
        let extractor = take(&mut map, "extractor")?;
        let samples = take(&mut map, "samples")?;
        let Some(bits) = map.remove("bits") else {
            return Ok(Self {
                extractor,
                bits: 1,
                thresholds: take(&mut map, "thresholds")?,
                store: take(&mut map, "store")?,
                hamming_tolerance: take(&mut map, "hamming_tolerance")?,
                samples,
            });
        };
        let bits = serde::from_value(bits)?;
        check_bits(bits).map_err(|e| serde::ValueError(e.to_string()))?;
        let lists: Vec<Vec<f64>> = take(&mut map, "thresholds")?;
        let store = match (map.remove("external"), map.remove("hash")) {
            (Some(external), _) => Store::External(serde::from_value(external)?),
            (None, Some(hash)) => Store::Hash(serde::from_value(hash)?),
            (None, None) => Store::Bdd {
                bdd: take(&mut map, "bdd")?,
                root: take(&mut map, "root")?,
            },
        };
        let tolerance = map.remove("hamming_tolerance").map(serde::from_value);
        Ok(Self {
            extractor,
            bits,
            thresholds: lists.concat(),
            store,
            hamming_tolerance: tolerance.transpose()?.unwrap_or(0),
            samples,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{shared_source, MemoryPatternSource};
    use napmon_nn::{Activation, LayerSpec, Network};

    fn extractor(width: usize) -> FeatureExtractor {
        let net = Network::seeded(3, 2, &[LayerSpec::dense(width, Activation::Relu)]);
        FeatureExtractor::new(&net, 2).unwrap()
    }

    /// A 1-bit monitor over four neurons, every threshold at `0`.
    fn setup(backend: PatternBackend) -> (Network, PatternMonitor) {
        let net = Network::seeded(3, 2, &[LayerSpec::dense(4, Activation::Relu)]);
        let fx = FeatureExtractor::new(&net, 2).unwrap();
        let m = PatternMonitor::empty(fx, 1, vec![vec![0.0]; 4], backend).unwrap();
        (net, m)
    }

    fn word(bits: &[bool]) -> BitWord {
        BitWord::from_bools(bits)
    }

    fn all_words(width: usize) -> impl Iterator<Item = BitWord> {
        (0..1u32 << width).map(move |bits| BitWord::from_fn(width, |i| (bits >> i) & 1 == 1))
    }

    #[test]
    fn threshold_arity_is_checked() {
        assert!(
            PatternMonitor::empty(extractor(4), 1, vec![vec![0.0]; 3], PatternBackend::Bdd)
                .is_err()
        );
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let thresholds = vec![vec![0.0], vec![bad], vec![0.0], vec![0.0]];
            let err = PatternMonitor::empty(extractor(4), 1, thresholds, PatternBackend::Bdd)
                .unwrap_err();
            assert!(matches!(err, MonitorError::InvalidConfig(_)), "{err}");
        }
    }

    #[test]
    fn abstraction_uses_strict_threshold() {
        let (_, m) = setup(PatternBackend::Bdd);
        assert_eq!(
            m.abstract_bitword(&[0.0, 0.1, -0.1, 5.0]).to_bools(),
            vec![false, true, false, true]
        );
    }

    #[test]
    fn robust_abstraction_emits_dont_cares() {
        let (_, m) = setup(PatternBackend::Bdd);
        let (lo, hi) = ([0.1, -0.5, -0.2, 0.0], [0.2, -0.1, 0.3, 0.0]);
        let ranges: Vec<_> = (0..4).map(|j| m.symbol_range(j, lo[j], hi[j])).collect();
        assert_eq!(ranges, vec![1..=1, 0..=0, 0..=1, 0..=0]);
        // NaN bounds leave their side open: a don't-care.
        assert_eq!(m.symbol_range(0, f64::NAN, f64::NAN), 0..=1);
    }

    #[test]
    fn absorbed_words_are_members_in_both_backends() {
        for backend in [PatternBackend::Bdd, PatternBackend::HashSet] {
            let (_, mut m) = setup(backend);
            m.absorb_point(&[1.0, -1.0, 1.0, -1.0]).unwrap();
            assert!(m.contains_packed(&word(&[true, false, true, false])));
            assert!(!m.contains_packed(&word(&[true, true, true, false])));
            assert_eq!(m.pattern_count(), 1.0);
            assert_eq!(m.samples(), 1);
        }
    }

    #[test]
    fn robust_insertion_expands_dont_cares() {
        for backend in [PatternBackend::Bdd, PatternBackend::HashSet] {
            let (_, mut m) = setup(backend);
            let b = BoxBounds::new(vec![0.5, -1.0, -0.1, -1.0], vec![1.0, -0.5, 0.1, -0.5]);
            m.absorb_bounds(&b).unwrap(); // word 1 0 - 0 -> two words
            assert_eq!(m.pattern_count(), 2.0);
            assert!(m.contains_packed(&word(&[true, false, false, false])));
            assert!(m.contains_packed(&word(&[true, false, true, false])));
        }
    }

    #[test]
    fn backends_agree_on_membership() {
        let (_, mut a) = setup(PatternBackend::Bdd);
        let (_, mut b) = setup(PatternBackend::HashSet);
        let boxes = [
            BoxBounds::new(vec![0.5, -1.0, -0.1, -1.0], vec![1.0, -0.5, 0.1, -0.5]),
            BoxBounds::new(vec![-0.5, 0.2, -0.1, -0.2], vec![0.5, 0.4, 0.1, 0.2]),
        ];
        for bx in &boxes {
            a.absorb_bounds(bx).unwrap();
            b.absorb_bounds(bx).unwrap();
        }
        assert_eq!(a.pattern_count(), b.pattern_count());
        for w in all_words(4) {
            assert_eq!(a.contains_packed(&w), b.contains_packed(&w), "word {w:?}");
        }
    }

    #[test]
    fn hamming_tolerance_accepts_near_misses() {
        for backend in [PatternBackend::Bdd, PatternBackend::HashSet] {
            let (_, mut m) = setup(backend);
            m.absorb_point(&[1.0, 1.0, 1.0, 1.0]).unwrap();
            let near = word(&[true, true, true, false]); // distance 1
            let far = word(&[false, false, true, false]); // distance 3
            assert!(!m.contains_packed(&near));
            assert!(m.contains_within_packed(&near, 1));
            assert!(!m.contains_within_packed(&far, 2));
            m.set_hamming_tolerance(1);
            let mut scratch = QueryScratch::new();
            assert!(
                !m.verdict_features_scratch(&[0.5, 0.5, 0.5, -0.5], &mut scratch)
                    .warning
            );
        }
    }

    #[test]
    fn verdict_carries_the_unknown_word() {
        let (_, mut m) = setup(PatternBackend::Bdd);
        m.absorb_point(&[1.0, 1.0, 1.0, 1.0]).unwrap();
        let v = m.verdict_features_scratch(&[-1.0, 1.0, 1.0, 1.0], &mut QueryScratch::new());
        assert!(v.warning);
        assert!(matches!(&v.violations[0], Violation::UnknownPattern { word } if !word[0]));
    }

    #[test]
    fn coverage_reflects_pattern_fraction() {
        let (_, mut m) = setup(PatternBackend::Bdd);
        m.absorb_point(&[1.0, 1.0, 1.0, 1.0]).unwrap();
        assert!((m.coverage() - 1.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn end_to_end_monitoring_through_network() {
        let (net, mut m) = setup(PatternBackend::Bdd);
        let train = vec![vec![0.2, 0.1], vec![-0.1, 0.3], vec![0.4, -0.2]];
        for x in &train {
            let f = m.extractor().features(&net, x).unwrap();
            m.absorb_point(&f).unwrap();
        }
        for x in &train {
            assert!(!m.warns(&net, x).unwrap());
        }
    }

    #[test]
    fn store_backend_requires_a_source() {
        let err = PatternMonitor::empty(extractor(4), 1, vec![vec![0.0]; 4], PatternBackend::Store)
            .unwrap_err();
        assert!(matches!(err, MonitorError::InvalidConfig(_)), "{err}");
    }

    fn external_setup() -> (Network, PatternMonitor) {
        let net = Network::seeded(3, 2, &[LayerSpec::dense(4, Activation::Relu)]);
        let fx = FeatureExtractor::new(&net, 2).unwrap();
        let source = shared_source(MemoryPatternSource::new(4));
        let m = PatternMonitor::with_source(fx, 1, vec![vec![0.0]; 4], source).unwrap();
        (net, m)
    }

    #[test]
    fn external_backend_matches_hash_semantics() {
        let (_, mut ext) = external_setup();
        let (_, mut hash) = setup(PatternBackend::HashSet);
        assert_eq!(ext.backend(), PatternBackend::Store);
        for m in [&mut ext, &mut hash] {
            m.absorb_point(&[1.0, -1.0, 1.0, -1.0]).unwrap();
            m.absorb_bounds(&BoxBounds::new(
                vec![0.5, -1.0, -0.1, -1.0],
                vec![1.0, -0.5, 0.1, -0.5],
            ))
            .unwrap();
        }
        assert_eq!(ext.pattern_count(), hash.pattern_count());
        assert_eq!(ext.samples(), hash.samples());
        for w in all_words(4) {
            assert_eq!(
                ext.contains_packed(&w),
                hash.contains_packed(&w),
                "word {w:?}"
            );
            assert_eq!(
                ext.contains_within_packed(&w, 1),
                hash.contains_within_packed(&w, 1)
            );
        }
    }

    #[test]
    fn shared_absorption_needs_external_backend() {
        let (_, m) = setup(PatternBackend::Bdd);
        assert!(m.absorb_features_shared(&[1.0, 1.0, 1.0, 1.0]).is_err());
        let (_, ext) = external_setup();
        assert!(ext.absorb_features_shared(&[1.0, 1.0, 1.0, 1.0]).unwrap());
        assert!(!ext.absorb_features_shared(&[1.0, 1.0, 1.0, 1.0]).unwrap());
        assert!(ext.contains_packed(&word(&[true, true, true, true])));
        assert_eq!(
            ext.samples(),
            0,
            "shared absorption is not a training sample"
        );
    }

    #[test]
    fn external_monitor_serializes_as_descriptor_and_reattaches() {
        let (_, ext) = external_setup();
        ext.absorb_features_shared(&[1.0, 1.0, -1.0, -1.0]).unwrap();
        let json = serde_json::to_string(&ext).unwrap();
        // The word set stays in the source: only the descriptor travels.
        assert!(json.contains("\"memory\""), "{json}");
        let mut back: PatternMonitor = serde_json::from_str(&json).unwrap();
        assert!(back.needs_source());
        assert!(back
            .attach_source(shared_source(MemoryPatternSource::new(4)))
            .is_ok());
        assert!(!back.needs_source());
        // The memory source is non-persistent, so the fresh one is empty —
        // persistence is napmon-store's job.
        assert_eq!(back.pattern_count(), 0.0);
        assert!(back
            .attach_source(shared_source(MemoryPatternSource::new(3)))
            .is_err());
    }

    /// Store-backed monitors as the on-off and interval writers of an
    /// earlier release serialized them, byte for byte.
    const STORED_ON_OFF: &str = r#"{"extractor":{"layer":2,"layer_dim":2,"neurons":null},"hamming_tolerance":0,"samples":0,"store":{"External":{"kind":"memory","path":"","word_bits":2}},"thresholds":[0.0,0.5]}"#;
    const STORED_INTERVAL: &str = r#"{"bits":2,"external":{"kind":"memory","path":"","word_bits":4},"extractor":{"layer":2,"layer_dim":2,"neurons":null},"samples":0,"thresholds":[[0.0,1.0,2.0],[-1.0,0.0,1.0]]}"#;

    #[test]
    fn committed_store_backed_layouts_parse_and_reattach() {
        for (json, bits) in [(STORED_ON_OFF, 1), (STORED_INTERVAL, 2)] {
            let mut back: PatternMonitor = serde_json::from_str(json).unwrap();
            assert_eq!((back.bits(), back.backend()), (bits, PatternBackend::Store));
            back.check_thresholds().unwrap();
            assert!(back.needs_source(), "{json}");
            let source = shared_source(MemoryPatternSource::new(2 * bits));
            back.attach_source(source).unwrap();
            assert!(!back.needs_source());
            assert!(back.absorb_features_shared(&[1.5, 0.5]).unwrap());
            assert!(back.contains_packed(&back.abstract_bitword(&[1.5, 0.5])));
            assert_eq!(back.pattern_count(), 1.0);
            // The writer reproduces the layout it read.
            let mut fresh: PatternMonitor = serde_json::from_str(json).unwrap();
            fresh
                .attach_source(shared_source(MemoryPatternSource::new(2 * bits)))
                .unwrap();
            assert_eq!(serde_json::to_string(&fresh).unwrap(), json);
        }
    }

    #[test]
    fn every_layout_round_trips_every_backend() {
        let thresholds = |bits| vec![(1..1 << bits).map(f64::from).collect::<Vec<f64>>(); 2];
        for bits in [1, 2] {
            for backend in [PatternBackend::Bdd, PatternBackend::HashSet] {
                let mut m =
                    PatternMonitor::empty(extractor(2), bits, thresholds(bits), backend).unwrap();
                m.set_hamming_tolerance(1);
                m.absorb_point(&[1.5, 0.5]).unwrap();
                m.absorb_bounds(&BoxBounds::new(vec![0.5, 2.5], vec![2.5, 3.5]))
                    .unwrap();
                let json = serde_json::to_string(&m).unwrap();
                assert_eq!(json.contains("\"bits\""), bits > 1, "{json}");
                let back: PatternMonitor = serde_json::from_str(&json).unwrap();
                assert_eq!(back.bits(), bits);
                assert_eq!(back.backend(), backend);
                assert_eq!(back.hamming_tolerance(), 1);
                assert_eq!(back.thresholds(), m.thresholds());
                assert_eq!(back.pattern_count(), m.pattern_count());
                for w in all_words(2 * bits) {
                    assert_eq!(
                        back.contains_within_packed(&w, 1),
                        m.contains_within_packed(&w, 1)
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "use the BDD backend")]
    fn hashset_expansion_has_a_safety_cap() {
        let mut m = PatternMonitor::empty(
            extractor(30),
            1,
            vec![vec![0.0]; 30],
            PatternBackend::HashSet,
        )
        .unwrap();
        // All 30 dims straddle the threshold: 2^30 words.
        let b = BoxBounds::new(vec![-1.0; 30], vec![1.0; 30]);
        m.absorb_bounds(&b).unwrap();
    }
}

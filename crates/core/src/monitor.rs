//! The common monitor interface and query verdicts.

use crate::error::MonitorError;
use crate::feature::{self, FeatureExtractor};
use napmon_bdd::BitWord;
use napmon_nn::{ForwardScratch, Network};

/// Why a monitor warned about one neuron (or the pattern as a whole).
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// A neuron value fell below the recorded minimum.
    BelowMin {
        /// Monitored-neuron index (position within the feature vector).
        neuron: usize,
        /// Observed value.
        value: f64,
        /// Recorded lower bound.
        bound: f64,
    },
    /// A neuron value rose above the recorded maximum.
    AboveMax {
        /// Monitored-neuron index.
        neuron: usize,
        /// Observed value.
        value: f64,
        /// Recorded upper bound.
        bound: f64,
    },
    /// The abstracted word was not in the recorded pattern set.
    UnknownPattern {
        /// The bit word the observation abstracted to (neuron-major,
        /// most-significant bit first for multi-bit monitors).
        word: Vec<bool>,
    },
    /// The network input held a NaN or infinite coordinate, so it is
    /// within `Δ` of no training point. The value itself is left out: a
    /// NaN field would make the verdict unequal to itself.
    NonFinite {
        /// Index of the first non-finite input coordinate.
        coordinate: usize,
    },
}

/// Outcome of one monitor query.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Whether the monitor raises a warning (the paper's `M(v_op) = true`).
    pub warning: bool,
    /// Supporting evidence; empty when no warning is raised.
    pub violations: Vec<Violation>,
}

impl Verdict {
    /// The all-clear verdict.
    pub fn ok() -> Self {
        Self {
            warning: false,
            violations: Vec::new(),
        }
    }

    /// A warning carrying its evidence.
    pub fn warn(violations: Vec<Violation>) -> Self {
        Self {
            warning: true,
            violations,
        }
    }
}

/// The warning every leaf monitor gives an input with a NaN or infinite
/// coordinate, or `None` for a finite input. The all-finite test is
/// branch-free over the row; the coordinate is looked up only for a
/// non-finite one.
pub(crate) fn non_finite_warning(input: &[f64]) -> Option<Verdict> {
    if input.iter().fold(true, |finite, v| finite & v.is_finite()) {
        return None;
    }
    let coordinate = input.iter().position(|v| !v.is_finite())?;
    Some(Verdict::warn(vec![Violation::NonFinite { coordinate }]))
}

/// Reusable per-thread buffers for the steady-state query path.
///
/// One scratch holds everything a query needs to touch the heap for:
/// the network's ping-pong forward buffers, the projected feature vectors,
/// and the packed abstraction words. A caller that keeps one scratch per
/// thread (as each `napmon-serve` shard does) and reuses it across
/// queries stops allocating once the buffers have grown — the
/// operational regime the paper's "operation time" monitors run in.
#[derive(Debug, Clone, Default)]
pub struct QueryScratch {
    pub(crate) forward: ForwardScratch,
    /// The projected feature vector of one query, or of a whole batch
    /// (row-major) on [`Monitor::verdict_batch_scratch`].
    pub(crate) features: Vec<f64>,
    pub(crate) word: BitWord,
    /// Per-input abstraction words for [`Monitor::verdict_batch_scratch`]:
    /// pattern monitors abstract the whole batch first, then answer all
    /// memberships against each pattern block while it is cache-hot.
    pub(crate) batch_words: Vec<BitWord>,
    /// Membership answers of the batched kernel, one per input.
    pub(crate) batch_hits: Vec<bool>,
}

impl QueryScratch {
    /// An empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// The first half of the pattern monitors' batch path: extracts the
    /// batch's features in one batched forward pass, then abstracts row
    /// `i` into `batch_words[i]` with `abstract_into`.
    ///
    /// # Errors
    ///
    /// Returns the errors of [`FeatureExtractor::features_batch_into`]; no
    /// word is written then.
    pub(crate) fn abstract_batch(
        &mut self,
        extractor: &FeatureExtractor,
        net: &Network,
        inputs: &[Vec<f64>],
        abstract_into: impl Fn(&[f64], &mut BitWord),
    ) -> Result<(), MonitorError> {
        extractor.features_batch_into(net, inputs, &mut self.forward, &mut self.features)?;
        if self.batch_words.len() < inputs.len() {
            self.batch_words.resize(inputs.len(), BitWord::default());
        }
        let rows = feature::rows(&self.features, extractor.dim(), inputs.len());
        for (features, word) in rows.zip(&mut self.batch_words) {
            abstract_into(features, word);
        }
        Ok(())
    }
}

/// A runtime monitor over one network boundary.
///
/// Implementations answer one *feature vector* (the projected neuron
/// values of the monitored boundary) through
/// [`Monitor::verdict_features_scratch`]; the provided methods run the
/// network first. Queries never mutate the monitor — in operation the
/// abstraction is frozen, exactly as in the paper.
pub trait Monitor {
    /// The feature extractor describing what this monitor watches.
    fn extractor(&self) -> &FeatureExtractor;

    /// Full verdict for an already-extracted feature vector, reusing the
    /// caller's scratch buffers so repeated queries stay allocation-free
    /// on the membership path.
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` differs from the monitor's feature
    /// dimension.
    fn verdict_features_scratch(&self, features: &[f64], scratch: &mut QueryScratch) -> Verdict;

    /// Runs `net` on `input` through the caller's scratch buffers and
    /// returns the full verdict. Steady state (buffers grown, verdict OK)
    /// performs no heap allocation for dense networks. This per-input loop
    /// is the reference every batch path is pinned against. An input with
    /// a NaN or infinite coordinate gets a [`Violation::NonFinite`]
    /// warning without a forward pass.
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::DimensionMismatch`] if `input` does not
    /// match the network, and [`MonitorError::NonFinite`] if the forward
    /// pass of a finite `input` overflows
    /// ([`FeatureExtractor::features_batch_into`]).
    fn verdict_scratch(
        &self,
        net: &Network,
        input: &[f64],
        scratch: &mut QueryScratch,
    ) -> Result<Verdict, MonitorError> {
        // Malformed before non-finite, as on the batch path.
        feature::check_input_dim(net, input, "feature extraction input")?;
        if let Some(warning) = non_finite_warning(input) {
            return Ok(warning);
        }
        // The feature buffer is taken out of the scratch for the duration
        // of the call so the monitor can borrow the rest of the scratch
        // mutably alongside it.
        let mut features = std::mem::take(&mut scratch.features);
        let result = self
            .extractor()
            .features_into(net, input, &mut scratch.forward, &mut features)
            .map(|()| self.verdict_features_scratch(&features, scratch));
        scratch.features = features;
        result
    }

    /// Verdicts for a whole batch of inputs through one scratch, appended
    /// to `out` (cleared first). This is the entry point that lets a
    /// monitor run the batch *together*: the default extracts every
    /// input's features in one batched forward pass
    /// ([`FeatureExtractor::features_batch_into`]) and then answers each
    /// row with [`Monitor::verdict_features_scratch`]; pattern monitors
    /// override it to abstract the whole batch and then run the bit-sliced
    /// batch kernel, which walks each pattern block once per batch instead
    /// of once per query.
    ///
    /// Verdicts are bit-identical to a [`Monitor::verdict_scratch`] loop
    /// for every monitor kind and backend (pinned by the differential
    /// suites in `tests/`).
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::DimensionMismatch`] for the first malformed
    /// input, and [`MonitorError::NonFinite`] for the first finite input
    /// whose forward pass overflows; `out` must not be interpreted then.
    fn verdict_batch_scratch(
        &self,
        net: &Network,
        inputs: &[Vec<f64>],
        scratch: &mut QueryScratch,
        out: &mut Vec<Verdict>,
    ) -> Result<(), MonitorError> {
        out.clear();
        // As in `verdict_scratch`, the feature buffer is taken out of the
        // scratch so each row can borrow the rest of it mutably.
        let mut features = std::mem::take(&mut scratch.features);
        let extracted =
            self.extractor()
                .features_batch_into(net, inputs, &mut scratch.forward, &mut features);
        if extracted.is_ok() {
            out.reserve(inputs.len());
            let rows = feature::rows(&features, self.extractor().dim(), inputs.len());
            for (row, input) in rows.zip(inputs) {
                out.push(
                    non_finite_warning(input)
                        .unwrap_or_else(|| self.verdict_features_scratch(row, scratch)),
                );
            }
        }
        scratch.features = features;
        extracted
    }

    /// [`Monitor::verdict_scratch`] through a fresh scratch.
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::DimensionMismatch`] if `input` does not
    /// match the network.
    fn verdict(&self, net: &Network, input: &[f64]) -> Result<Verdict, MonitorError> {
        self.verdict_scratch(net, input, &mut QueryScratch::new())
    }

    /// The qualitative decision of [`Monitor::verdict`].
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::DimensionMismatch`] if `input` does not
    /// match the network.
    fn warns(&self, net: &Network, input: &[f64]) -> Result<bool, MonitorError> {
        Ok(self.verdict(net, input)?.warning)
    }

    /// [`Monitor::verdict_batch_scratch`] through a fresh scratch, into a
    /// fresh vector.
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::DimensionMismatch`] on the first malformed
    /// input.
    fn query_batch(
        &self,
        net: &Network,
        inputs: &[Vec<f64>],
    ) -> Result<Vec<Verdict>, MonitorError> {
        let mut out = Vec::with_capacity(inputs.len());
        self.verdict_batch_scratch(net, inputs, &mut QueryScratch::new(), &mut out)?;
        Ok(out)
    }
}

/// Compile-time proof that every monitor (and the verdict machinery) can
/// be shared across the shard threads of a long-lived serving engine: the
/// `napmon-serve` workers hold monitors behind `Arc` and query them
/// concurrently, which is only sound because queries never mutate the
/// abstraction.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<crate::builder::AnyMonitor>();
    assert_send_sync::<crate::minmax::MinMaxMonitor>();
    assert_send_sync::<crate::pattern::PatternMonitor>();
    assert_send_sync::<crate::spec::ComposedMonitor>();
    assert_send_sync::<crate::spec::MonitorSpec>();
    assert_send_sync::<Verdict>();
    assert_send_sync::<QueryScratch>();
    assert_send_sync::<MonitorError>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_constructors() {
        assert!(!Verdict::ok().warning);
        assert!(Verdict::ok().violations.is_empty());
        let v = Verdict::warn(vec![Violation::BelowMin {
            neuron: 3,
            value: -1.0,
            bound: 0.0,
        }]);
        assert!(v.warning);
        assert_eq!(v.violations.len(), 1);
    }
}

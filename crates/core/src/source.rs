//! Pluggable pattern-set backends: the [`PatternSource`] abstraction.
//!
//! The paper's pattern monitors freeze their word set at construction time
//! and hold it in process RAM (a BDD or a hash table). Production
//! deployments need more freedom on both axes: the set may live *outside*
//! the process (a persistent store that survives restarts and scales past
//! RAM), and it may *grow at operation time* — the monitor-enlargement
//! idea of the original activation-pattern work, where newly observed
//! patterns are absorbed into the abstraction without a rebuild.
//!
//! A [`PatternSource`] is any object that can answer exact and Hamming-ball
//! membership over packed [`BitWord`]s and absorb new words. The in-memory
//! reference implementation is [`MemoryPatternSource`]; the persistent
//! log-structured store lives in the `napmon-store` crate and implements
//! the same trait. Pattern monitors hold external sources behind an
//! [`ExternalHandle`] — a shared, lock-guarded reference that serializes as
//! a [`SourceDescriptor`] (a *pointer* to the store, not its contents), so
//! a store-backed monitor artifact stays small and reattaches to its
//! segments on load.

use crate::error::MonitorError;
use napmon_bdd::{BitWord, FxBuildHasher};
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::collections::HashSet;
use std::sync::{Arc, PoisonError, RwLock};

/// A pattern-set backend a monitor can delegate its word set to.
///
/// Implementations must be shareable across the serving engine's shard
/// threads (hence the `Send + Sync` supertraits); mutation happens behind
/// the write half of an [`ExternalHandle`]'s lock.
pub trait PatternSource: std::fmt::Debug + Send + Sync {
    /// Width of every word in the set, in bits.
    fn word_bits(&self) -> usize;

    /// Absorbs one word. Returns `true` if the word was new, `false` if it
    /// was already present (sources deduplicate).
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::DimensionMismatch`] for a wrong-width word
    /// and [`MonitorError::ExternalSource`] if the backing medium fails.
    fn insert(&mut self, word: &BitWord) -> Result<bool, MonitorError>;

    /// Exact membership.
    fn contains(&self, word: &BitWord) -> bool;

    /// Hamming-ball membership: whether some stored word differs from
    /// `word` in at most `tau` positions.
    fn contains_within(&self, word: &BitWord, tau: usize) -> bool;

    /// Batched Hamming-ball membership:
    /// `out[i] = contains_within(&words[i], tau)`. The default loops the
    /// single-query form. The persistent store overrides it: it prepares
    /// the batch once for its bit-sliced kernel and runs every query still
    /// unanswered over each segment's surviving partitions, which is where
    /// the batch-query throughput comes from.
    ///
    /// # Panics
    ///
    /// May panic if `out.len() < words.len()`.
    fn contains_within_batch(&self, words: &[BitWord], tau: usize, out: &mut [bool]) {
        for (word, slot) in words.iter().zip(out.iter_mut()) {
            *slot = self.contains_within(word, tau);
        }
    }

    /// Number of distinct words stored.
    fn word_count(&self) -> u64;

    /// Memory/disk proxy (implementation-defined unit, e.g. stored words).
    fn store_size(&self) -> usize;

    /// Durability point: flushes any buffered writes to the backing
    /// medium. A no-op for in-memory sources.
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::ExternalSource`] if the backing medium
    /// fails.
    fn commit(&mut self) -> Result<(), MonitorError>;

    /// The serializable reference to this source (what an artifact embeds
    /// instead of the word set itself).
    fn descriptor(&self) -> SourceDescriptor;
}

/// A shared, lock-guarded pattern source: the form monitors hold external
/// backends in, so queries (read lock) and operation-time absorption
/// (write lock) can proceed concurrently across serving shards.
pub type SharedPatternSource = Arc<RwLock<dyn PatternSource>>;

/// Wraps a concrete source into the shared form monitors consume.
pub fn shared_source<S: PatternSource + 'static>(source: S) -> SharedPatternSource {
    Arc::new(RwLock::new(source))
}

/// A serializable *reference* to a pattern source: what a store-backed
/// monitor writes into an artifact file in place of its word set.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SourceDescriptor {
    /// Backend family, e.g. `"napmon-store"` or `"memory"`.
    pub kind: String,
    /// Location of the backing data (a store directory for persistent
    /// sources; empty for in-memory ones, which cannot be reattached).
    pub path: String,
    /// Width of every stored word, in bits. Cross-checked against both the
    /// monitor dimension and the reopened store on attach.
    pub word_bits: usize,
}

/// Supplies one [`SharedPatternSource`] per member monitor during a
/// store-backed spec build or mount (`member` is the member index: `0` for
/// single composition, the boundary index for multi-layer, the class index
/// for per-class).
pub trait SourceProvider {
    /// Opens (or creates) the source backing member `member`, whose words
    /// are `word_bits` wide.
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::ExternalSource`] if the source cannot be
    /// opened.
    fn open_source(
        &mut self,
        member: usize,
        word_bits: usize,
    ) -> Result<SharedPatternSource, MonitorError>;
}

impl<F> SourceProvider for F
where
    F: FnMut(usize, usize) -> Result<SharedPatternSource, MonitorError>,
{
    fn open_source(
        &mut self,
        member: usize,
        word_bits: usize,
    ) -> Result<SharedPatternSource, MonitorError> {
        self(member, word_bits)
    }
}

/// The in-memory reference [`PatternSource`]: a packed-word hash set using
/// the same FxHash scheme as the monitors' built-in tables. Exists as the
/// differential-testing oracle for external backends and as a cheap
/// source for tests; it serializes only as a descriptor, so it cannot be
/// reattached from disk.
#[derive(Debug, Clone)]
pub struct MemoryPatternSource {
    word_bits: usize,
    words: HashSet<BitWord, FxBuildHasher>,
}

impl MemoryPatternSource {
    /// An empty source over `word_bits`-bit words.
    pub fn new(word_bits: usize) -> Self {
        Self {
            word_bits,
            words: HashSet::default(),
        }
    }
}

impl PatternSource for MemoryPatternSource {
    fn word_bits(&self) -> usize {
        self.word_bits
    }

    fn insert(&mut self, word: &BitWord) -> Result<bool, MonitorError> {
        if word.len() != self.word_bits {
            return Err(MonitorError::DimensionMismatch {
                context: "memory pattern source insert".into(),
                expected: self.word_bits,
                actual: word.len(),
            });
        }
        Ok(self.words.insert(word.clone()))
    }

    fn contains(&self, word: &BitWord) -> bool {
        self.words.contains(word)
    }

    fn contains_within(&self, word: &BitWord, tau: usize) -> bool {
        if tau == 0 {
            return self.contains(word);
        }
        self.words.iter().any(|w| w.hamming(word) as usize <= tau)
    }

    fn word_count(&self) -> u64 {
        self.words.len() as u64
    }

    fn store_size(&self) -> usize {
        self.words.len()
    }

    fn commit(&mut self) -> Result<(), MonitorError> {
        Ok(())
    }

    fn descriptor(&self) -> SourceDescriptor {
        SourceDescriptor {
            kind: "memory".into(),
            path: String::new(),
            word_bits: self.word_bits,
        }
    }
}

/// A monitor's grip on an external pattern source.
///
/// The handle is either *attached* (holding a live [`SharedPatternSource`])
/// or *detached* (fresh from deserialization, holding only the
/// [`SourceDescriptor`]). Queries on a detached handle panic with
/// re-attachment guidance; `napmon-artifact` reattaches handles
/// automatically when loading store-backed artifacts, and
/// [`crate::PatternMonitor::attach_source`] /
/// [`crate::spec::ComposedMonitor::attach_external_sources`] do it
/// manually.
///
/// Cloning a handle clones the `Arc`, so clones share one underlying
/// store — intentionally: every serving shard must observe the same
/// operation-time absorptions.
#[derive(Clone)]
pub struct ExternalHandle {
    descriptor: SourceDescriptor,
    source: Option<SharedPatternSource>,
}

impl ExternalHandle {
    /// Wraps an attached source, capturing its descriptor.
    pub fn attached(source: SharedPatternSource) -> Self {
        let descriptor = read_lock(&source).descriptor();
        Self {
            descriptor,
            source: Some(source),
        }
    }

    /// A detached handle carrying only the reference (the deserialized
    /// form).
    pub fn detached(descriptor: SourceDescriptor) -> Self {
        Self {
            descriptor,
            source: None,
        }
    }

    /// The serializable reference to the source.
    pub fn descriptor(&self) -> &SourceDescriptor {
        &self.descriptor
    }

    /// Whether a live source is attached.
    pub fn is_attached(&self) -> bool {
        self.source.is_some()
    }

    /// Attaches (or replaces) the live source behind this handle.
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::DimensionMismatch`] if the source's word
    /// width disagrees with the recorded descriptor.
    pub fn attach(&mut self, source: SharedPatternSource) -> Result<(), MonitorError> {
        let bits = read_lock(&source).word_bits();
        if bits != self.descriptor.word_bits {
            return Err(MonitorError::DimensionMismatch {
                context: format!(
                    "attaching pattern source `{}`",
                    read_lock(&source).descriptor().path
                ),
                expected: self.descriptor.word_bits,
                actual: bits,
            });
        }
        self.descriptor = read_lock(&source).descriptor();
        self.source = Some(source);
        Ok(())
    }

    fn live(&self) -> &SharedPatternSource {
        self.source.as_ref().unwrap_or_else(|| {
            panic!(
                "detached external pattern source ({} at `{}`): load the monitor through \
                 napmon-artifact, or reattach with attach_source()/attach_external_sources()",
                self.descriptor.kind, self.descriptor.path
            )
        })
    }

    /// Exact membership (read lock).
    pub fn contains(&self, word: &BitWord) -> bool {
        read_lock(self.live()).contains(word)
    }

    /// Hamming-ball membership (read lock).
    pub fn contains_within(&self, word: &BitWord, tau: usize) -> bool {
        read_lock(self.live()).contains_within(word, tau)
    }

    /// Batched Hamming-ball membership — one read-lock acquisition for
    /// the whole batch, then the source's own
    /// [`PatternSource::contains_within_batch`].
    pub fn contains_within_batch(&self, words: &[BitWord], tau: usize, out: &mut [bool]) {
        read_lock(self.live()).contains_within_batch(words, tau, out);
    }

    /// Absorbs one word (write lock); shared absorption is what lets a
    /// serving engine enlarge the monitor without `&mut` access.
    ///
    /// # Errors
    ///
    /// Propagates the source's [`PatternSource::insert`] errors.
    pub fn insert(&self, word: &BitWord) -> Result<bool, MonitorError> {
        write_lock(self.live()).insert(word)
    }

    /// Flushes the source's buffered writes (write lock). A detached
    /// handle is a no-op rather than a panic: it has buffered nothing, so
    /// there is nothing to lose.
    ///
    /// # Errors
    ///
    /// Propagates the source's [`PatternSource::commit`] errors.
    pub fn commit(&self) -> Result<(), MonitorError> {
        match &self.source {
            Some(source) => write_lock(source).commit(),
            None => Ok(()),
        }
    }

    /// Number of distinct words stored (read lock).
    pub fn word_count(&self) -> u64 {
        read_lock(self.live()).word_count()
    }

    /// The source's size proxy (read lock).
    pub fn store_size(&self) -> usize {
        read_lock(self.live()).store_size()
    }
}

/// Lock helpers that shrug off poisoning: a panicking absorber must not
/// take the read-only query path down with it (the set is append-only, so
/// a half-applied insert is at worst a missing word).
fn read_lock(
    source: &SharedPatternSource,
) -> std::sync::RwLockReadGuard<'_, dyn PatternSource + 'static> {
    source.read().unwrap_or_else(PoisonError::into_inner)
}

fn write_lock(
    source: &SharedPatternSource,
) -> std::sync::RwLockWriteGuard<'_, dyn PatternSource + 'static> {
    source.write().unwrap_or_else(PoisonError::into_inner)
}

impl std::fmt::Debug for ExternalHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExternalHandle")
            .field("descriptor", &self.descriptor)
            .field("attached", &self.is_attached())
            .finish()
    }
}

/// Serializes as the descriptor only: the word set stays in the store.
impl Serialize for ExternalHandle {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.descriptor.serialize(serializer)
    }
}

/// Deserializes to a *detached* handle; see [`ExternalHandle::attach`].
impl<'de> Deserialize<'de> for ExternalHandle {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        Ok(Self::detached(SourceDescriptor::deserialize(deserializer)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn word(bits: &[bool]) -> BitWord {
        BitWord::from_bools(bits)
    }

    #[test]
    fn memory_source_inserts_and_dedupes() {
        let mut src = MemoryPatternSource::new(3);
        assert!(src.insert(&word(&[true, false, true])).unwrap());
        assert!(!src.insert(&word(&[true, false, true])).unwrap());
        assert_eq!(src.word_count(), 1);
        assert!(src.contains(&word(&[true, false, true])));
        assert!(!src.contains(&word(&[false, false, true])));
        assert!(src.insert(&word(&[true, true])).is_err());
    }

    #[test]
    fn memory_source_hamming_ball() {
        let mut src = MemoryPatternSource::new(4);
        src.insert(&word(&[true, true, true, true])).unwrap();
        let near = word(&[true, true, true, false]);
        assert!(!src.contains(&near));
        assert!(src.contains_within(&near, 1));
        assert!(!src.contains_within(&word(&[false, false, true, false]), 2));
    }

    #[test]
    fn handle_round_trips_as_descriptor_and_reattaches() {
        let src = shared_source(MemoryPatternSource::new(5));
        let handle = ExternalHandle::attached(Arc::clone(&src));
        let json = serde_json::to_string(&handle).unwrap();
        assert!(json.contains("\"memory\""), "{json}");
        let mut back: ExternalHandle = serde_json::from_str(&json).unwrap();
        assert!(!back.is_attached());
        assert_eq!(back.descriptor(), handle.descriptor());
        back.attach(src).unwrap();
        assert!(back.is_attached());
        // Width mismatch on attach is a typed error.
        let narrow = shared_source(MemoryPatternSource::new(3));
        assert!(back.attach(narrow).is_err());
    }

    #[test]
    #[should_panic(expected = "detached external pattern source")]
    fn detached_queries_panic_with_guidance() {
        let handle = ExternalHandle::detached(SourceDescriptor {
            kind: "memory".into(),
            path: String::new(),
            word_bits: 2,
        });
        handle.contains(&word(&[true, false]));
    }

    #[test]
    fn shared_absorption_is_visible_through_clones() {
        let handle = ExternalHandle::attached(shared_source(MemoryPatternSource::new(2)));
        let clone = handle.clone();
        assert!(handle.insert(&word(&[true, false])).unwrap());
        assert!(clone.contains(&word(&[true, false])));
        assert_eq!(clone.word_count(), 1);
    }
}

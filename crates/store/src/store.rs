//! The log-structured pattern store.

use crate::error::StoreError;
use crate::faults::Faults;
use crate::manifest::{Manifest, SegmentMeta, MANIFEST_VERSION};
use crate::segment::{segment_file_name, sort_dedup_words, Segment};
use crate::tail::{tail_path, TailLog};
use napmon_bdd::{BitSliceSet, BitWord, FxBuildHasher, QueryMasks};
use napmon_core::{MonitorError, PatternSource, SharedPatternSource, SourceDescriptor};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::{Arc, RwLock};

/// Sizing knobs of a store; see [`StoreConfig::new`] for the defaults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Width of every stored word, in bits (monitor dimension × bits per
    /// neuron).
    pub word_bits: usize,
    /// Words the tail may accumulate before it is sealed into a sorted
    /// segment automatically.
    pub segment_capacity: usize,
    /// Bloom filter budget per word in sealed segments (10 bits ≈ 1%
    /// false-positive rate).
    pub bloom_bits_per_word: usize,
}

impl StoreConfig {
    /// The default sizing for `word_bits`-bit words: 64 Ki-word segments,
    /// 10 Bloom bits per word.
    pub fn new(word_bits: usize) -> Self {
        Self {
            word_bits,
            segment_capacity: 1 << 16,
            bloom_bits_per_word: 10,
        }
    }

    /// Overrides the tail capacity that triggers auto-sealing.
    pub fn segment_capacity(mut self, words: usize) -> Self {
        self.segment_capacity = words.max(1);
        self
    }

    /// Overrides the per-word Bloom filter budget.
    pub fn bloom_bits_per_word(mut self, bits: usize) -> Self {
        self.bloom_bits_per_word = bits.max(1);
        self
    }
}

/// A live snapshot of a store's shape and history.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct StoreStats {
    /// Width of every stored word, in bits.
    pub word_bits: usize,
    /// Number of sealed segments.
    pub segments: usize,
    /// Distinct words across sealed segments.
    pub sealed_words: u64,
    /// Distinct words still in the unsealed tail.
    pub tail_words: u64,
    /// Appends accepted since the store was opened (new words only).
    pub appended: u64,
    /// Appends skipped as duplicates since the store was opened.
    pub deduplicated: u64,
    /// Bytes the store occupies on disk (manifest + segments + tail).
    pub disk_bytes: u64,
}

/// An append-only, log-structured, on-disk store of packed [`BitWord`]
/// patterns.
///
/// Layout of a store directory:
///
/// - `MANIFEST.json` — the atomic catalog of sealed segments
///   ([`crate::manifest::Manifest`]); replaced via tmp-file + rename, so
///   commits are crash-safe.
/// - `segment-NNNNNNNN.seg` — immutable sorted word blocks with inline
///   Bloom filters and whole-file checksums ([`crate::segment`]).
/// - `tail.log` — the active append log; fixed-width per-record checksums
///   let a torn final record be detected and dropped on open (see the
///   `tail` module).
///
/// Appends deduplicate against the whole store, buffer through the tail
/// log (write-batched; [`PatternStore::commit`] is the durability point),
/// and auto-seal into sorted segments at
/// [`StoreConfig::segment_capacity`]. [`PatternStore::compact`] merges all
/// segments plus the tail into one, dropping duplicates and dead bytes.
///
/// Queries serve from memory-resident structures loaded at open (Bloom
/// filters + sorted word blocks + a hash index over the tail), so exact
/// membership is `O(segments · log words)` with Bloom-filtered negatives.
/// Hamming-ball membership runs a prefix-partitioned bit-sliced kernel,
/// a batch at a time: each sealed segment carries per-partition AND/OR
/// masks that prune whole partitions by a distance lower bound, and
/// surviving partitions are scanned in the block-transposed layout of
/// [`napmon_bdd::BitSliceSet`] rather than word-at-a-time (see
/// [`PatternStore::contains_within_batch`]).
#[derive(Debug)]
pub struct PatternStore {
    dir: PathBuf,
    config: StoreConfig,
    limbs: usize,
    next_segment_id: u64,
    segments: Vec<Segment>,
    tail: TailLog,
    /// Flat packed limbs of the tail's words, in append order.
    tail_words: Vec<u64>,
    /// Exact-membership index over the tail.
    tail_index: HashSet<BitWord, FxBuildHasher>,
    /// Block-transposed mirror of the tail for the batch Hamming kernel;
    /// kept in lockstep with `tail_index` (fresh words only).
    tail_slices: BitSliceSet,
    appended: u64,
    deduplicated: u64,
    /// Held OS advisory lock on `LOCK`: opens are exclusive (see
    /// [`StoreError::Locked`]); released automatically on drop or process
    /// death.
    _lock: std::fs::File,
    /// Fault-injection hooks (inert unless the `fault-injection` feature
    /// is on and an injector was threaded in).
    faults: Faults,
}

#[inline]
const fn limbs_for(bits: usize) -> usize {
    bits.div_ceil(64)
}

impl PatternStore {
    /// Creates a fresh store at `dir` (creating the directory), failing if
    /// a store already exists there.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Mismatch`] if a manifest already exists, or
    /// [`StoreError::Io`] on filesystem failure.
    pub fn create(dir: impl Into<PathBuf>, config: StoreConfig) -> Result<Self, StoreError> {
        Self::create_inner(dir.into(), config, Faults::default())
    }

    fn create_inner(dir: PathBuf, config: StoreConfig, faults: Faults) -> Result<Self, StoreError> {
        if config.word_bits == 0 {
            return Err(StoreError::Mismatch("word_bits must be positive".into()));
        }
        std::fs::create_dir_all(&dir)?;
        if crate::manifest::manifest_path(&dir).exists() {
            return Err(StoreError::Mismatch(format!(
                "a store already exists at {}",
                dir.display()
            )));
        }
        let manifest = Manifest {
            format_version: MANIFEST_VERSION,
            word_bits: config.word_bits,
            segment_capacity: config.segment_capacity,
            bloom_bits_per_word: config.bloom_bits_per_word,
            next_segment_id: 0,
            segments: Vec::new(),
        };
        manifest.store(&dir, &faults)?;
        Self::from_manifest(dir, manifest, faults)
    }

    /// Opens the store at `dir`, verifying every sealed segment's checksum
    /// and recovering the tail log (torn trailing records are dropped).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Missing`] if no store exists at `dir`,
    /// [`StoreError::Corrupt`] for failed integrity checks on sealed
    /// files, and [`StoreError::Io`] on filesystem failure.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let dir = dir.into();
        let manifest = Manifest::load(&dir)?;
        Self::from_manifest(dir, manifest, Faults::default())
    }

    /// Like [`PatternStore::create`], with `injector` consulted at every
    /// named fault site of the durability path (see the site table in the
    /// crate's `faults` module docs). Test-only machinery behind the
    /// `fault-injection` feature.
    ///
    /// # Errors
    ///
    /// As [`PatternStore::create`], plus the injector's planned faults.
    #[cfg(feature = "fault-injection")]
    pub fn create_with_faults(
        dir: impl Into<PathBuf>,
        config: StoreConfig,
        injector: napmon_faultline::FaultInjector,
    ) -> Result<Self, StoreError> {
        Self::create_inner(dir.into(), config, Faults::new(injector))
    }

    /// Like [`PatternStore::open`], with `injector` consulted at every
    /// named fault site of the durability path. Test-only machinery behind
    /// the `fault-injection` feature.
    ///
    /// # Errors
    ///
    /// As [`PatternStore::open`], plus the injector's planned faults.
    #[cfg(feature = "fault-injection")]
    pub fn open_with_faults(
        dir: impl Into<PathBuf>,
        injector: napmon_faultline::FaultInjector,
    ) -> Result<Self, StoreError> {
        let dir = dir.into();
        let manifest = Manifest::load(&dir)?;
        Self::from_manifest(dir, manifest, Faults::new(injector))
    }

    /// Opens the store at `dir` if one exists, creating it with `config`
    /// otherwise. An existing store must match `config.word_bits`.
    ///
    /// # Errors
    ///
    /// Any [`PatternStore::open`] / [`PatternStore::create`] error, plus
    /// [`StoreError::Mismatch`] on word-width disagreement.
    pub fn open_or_create(
        dir: impl Into<PathBuf>,
        config: StoreConfig,
    ) -> Result<Self, StoreError> {
        let dir = dir.into();
        match Self::open(&dir) {
            Ok(store) => {
                if store.word_bits() != config.word_bits {
                    return Err(StoreError::Mismatch(format!(
                        "store at {} holds {}-bit words, caller wants {}-bit",
                        dir.display(),
                        store.word_bits(),
                        config.word_bits
                    )));
                }
                Ok(store)
            }
            Err(StoreError::Missing(_)) => Self::create(dir, config),
            Err(e) => Err(e),
        }
    }

    fn from_manifest(dir: PathBuf, manifest: Manifest, faults: Faults) -> Result<Self, StoreError> {
        let lock = acquire_lock(&dir)?;
        let limbs = limbs_for(manifest.word_bits);
        let mut segments = Vec::with_capacity(manifest.segments.len());
        for meta in &manifest.segments {
            segments.push(Segment::load(
                &dir,
                &meta.file,
                manifest.word_bits,
                limbs,
                meta.checksum,
                meta.masks_checksum,
            )?);
        }
        let (tail, recovered) =
            TailLog::open(tail_path(&dir), manifest.word_bits, limbs, faults.clone())?;
        let mut store = Self {
            dir,
            config: StoreConfig {
                word_bits: manifest.word_bits,
                segment_capacity: manifest.segment_capacity,
                bloom_bits_per_word: manifest.bloom_bits_per_word,
            },
            limbs,
            next_segment_id: manifest.next_segment_id,
            segments,
            tail,
            tail_words: Vec::new(),
            tail_index: HashSet::default(),
            tail_slices: BitSliceSet::with_bits(manifest.word_bits),
            appended: 0,
            deduplicated: 0,
            _lock: lock,
            faults,
        };
        // Rebuild the tail's in-memory index from the recovered records,
        // dropping words a sealed segment already holds: a crash between
        // seal()'s manifest swap and its tail reset leaves the sealed
        // words still in tail.log, and replaying them would double-count
        // the set (and re-seal the duplicates later).
        let mut stale = false;
        // The recovery buffer must hold whole words; a fractional trailing
        // chunk would otherwise vanish in `chunks_exact` below, silently
        // shrinking the recovered set.
        if !recovered.len().is_multiple_of(limbs.max(1)) {
            return Err(StoreError::Corrupt {
                file: tail_path(&store.dir),
                detail: format!(
                    "recovered tail block of {} limbs is not a multiple of the \
                     {}-limb word width",
                    recovered.len(),
                    limbs.max(1)
                ),
            });
        }
        for chunk in recovered.chunks_exact(limbs.max(1)) {
            if store.segments.iter().rev().any(|s| s.contains(chunk)) {
                stale = true;
                continue;
            }
            let word = word_from_limbs(chunk, store.config.word_bits);
            if store.tail_index.insert(word) {
                store.tail_words.extend_from_slice(chunk);
                store.tail_slices.insert_limbs(chunk);
            }
        }
        if stale {
            // Replace the log atomically with the reconciled view. The
            // surviving words were already durably committed, so the
            // rewrite must not pass through a truncated state a crash
            // could freeze — tmp file + rename, like the manifest.
            store
                .tail
                .rewrite(store.config.word_bits, &store.tail_words)?;
        }
        Ok(store)
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Width of every stored word, in bits.
    pub fn word_bits(&self) -> usize {
        self.config.word_bits
    }

    /// The sizing configuration the store runs with.
    pub fn config(&self) -> StoreConfig {
        self.config
    }

    /// Number of sealed segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Number of distinct words across segments and tail.
    pub fn len(&self) -> u64 {
        self.segments.iter().map(|s| s.len() as u64).sum::<u64>() + self.tail_index.len() as u64
    }

    /// Whether the store holds no words.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends one word. Returns `true` if the word was new; duplicates
    /// (anywhere in the store) are skipped without touching disk.
    ///
    /// The append lands in the buffered tail log; call
    /// [`PatternStore::commit`] to make a batch durable. When the tail
    /// reaches [`StoreConfig::segment_capacity`] words it is sealed into a
    /// sorted segment automatically (which is itself a durable commit).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Mismatch`] for a wrong-width word and
    /// [`StoreError::Io`] on filesystem failure.
    pub fn append(&mut self, word: &BitWord) -> Result<bool, StoreError> {
        if word.len() != self.config.word_bits {
            return Err(StoreError::Mismatch(format!(
                "append of a {}-bit word to a {}-bit store",
                word.len(),
                self.config.word_bits
            )));
        }
        #[cfg(feature = "obs")]
        let started = std::time::Instant::now();
        if self.contains(word) {
            self.deduplicated += 1;
            #[cfg(feature = "obs")]
            crate::obs::metrics().deduplicated.inc();
            return Ok(false);
        }
        self.tail.append(word.limbs())?;
        self.tail_words.extend_from_slice(word.limbs());
        self.tail_index.insert(word.clone());
        self.tail_slices.insert_limbs(word.limbs());
        self.appended += 1;
        if self.tail_index.len() >= self.config.segment_capacity {
            self.seal()?;
        }
        #[cfg(feature = "obs")]
        {
            let metrics = crate::obs::metrics();
            metrics.appended.inc();
            metrics
                .append_ns
                .record(started.elapsed().as_nanos() as u64);
        }
        Ok(true)
    }

    /// Appends a batch and commits once at the end (the write-batched
    /// path). Returns the number of new words.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PatternStore::append`].
    pub fn append_batch<'a>(
        &mut self,
        words: impl IntoIterator<Item = &'a BitWord>,
    ) -> Result<u64, StoreError> {
        #[cfg(feature = "obs")]
        let started_ns = napmon_obs::now_ns();
        let mut fresh = 0u64;
        for word in words {
            if self.append(word)? {
                fresh += 1;
            }
        }
        self.commit()?;
        #[cfg(feature = "obs")]
        crate::obs::maintenance_span(napmon_obs::SpanKind::StoreAppend, started_ns, fresh);
        Ok(fresh)
    }

    /// Flushes buffered appends and fsyncs the tail log: after this
    /// returns, every accepted append survives a crash.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on filesystem failure.
    pub fn commit(&mut self) -> Result<(), StoreError> {
        self.tail.commit()
    }

    /// Seals the tail into a sorted, Bloom-filtered segment and commits
    /// the manifest atomically. A no-op on an empty tail.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on filesystem failure.
    pub fn seal(&mut self) -> Result<(), StoreError> {
        if self.tail_index.is_empty() {
            return Ok(());
        }
        #[cfg(feature = "obs")]
        let (started, started_ns, sealed_words) = (
            std::time::Instant::now(),
            napmon_obs::now_ns(),
            self.tail_index.len() as u64,
        );
        let sorted = sort_dedup_words(&self.tail_words, self.limbs);
        let id = self.next_segment_id;
        let file = segment_file_name(id);
        let segment = Segment::write(
            &self.dir,
            &file,
            self.config.word_bits,
            self.limbs,
            &sorted,
            self.config.bloom_bits_per_word,
            &self.faults,
        )?;
        // Two-phase commit: the segment file exists but is invisible until
        // the manifest swap below; a crash in between leaves an ignored
        // orphan file (ids never repeat, so it can never be resurrected).
        self.next_segment_id = id + 1;
        let meta = SegmentMeta {
            file,
            words: segment.len() as u64,
            checksum: segment.checksum,
            masks_checksum: Some(segment.masks_checksum),
        };
        let mut manifest = self.manifest();
        manifest.segments.push(meta);
        manifest.next_segment_id = self.next_segment_id;
        manifest.store(&self.dir, &self.faults)?;
        self.segments.push(segment);
        self.tail.reset()?;
        self.tail_words.clear();
        self.tail_index.clear();
        self.tail_slices = BitSliceSet::with_bits(self.config.word_bits);
        #[cfg(feature = "obs")]
        {
            crate::obs::metrics()
                .seal_ns
                .record(started.elapsed().as_nanos() as u64);
            crate::obs::maintenance_span(napmon_obs::SpanKind::StoreSeal, started_ns, sealed_words);
        }
        Ok(())
    }

    /// Merges every sealed segment plus the tail into one sorted, deduped
    /// segment, commits the new manifest atomically, and deletes the
    /// replaced files. A no-op on an empty store.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on filesystem failure.
    pub fn compact(&mut self) -> Result<(), StoreError> {
        if self.is_empty() {
            return Ok(());
        }
        #[cfg(feature = "obs")]
        let (started, started_ns, live_words) =
            (std::time::Instant::now(), napmon_obs::now_ns(), self.len());
        let mut all: Vec<u64> = Vec::with_capacity((self.len() as usize) * self.limbs);
        for segment in &self.segments {
            all.extend_from_slice(&segment.words);
        }
        all.extend_from_slice(&self.tail_words);
        let sorted = sort_dedup_words(&all, self.limbs);
        let id = self.next_segment_id;
        let file = segment_file_name(id);
        let segment = Segment::write(
            &self.dir,
            &file,
            self.config.word_bits,
            self.limbs,
            &sorted,
            self.config.bloom_bits_per_word,
            &self.faults,
        )?;
        self.next_segment_id = id + 1;
        let manifest = Manifest {
            next_segment_id: self.next_segment_id,
            segments: vec![SegmentMeta {
                file,
                words: segment.len() as u64,
                checksum: segment.checksum,
                masks_checksum: Some(segment.masks_checksum),
            }],
            ..self.manifest()
        };
        manifest.store(&self.dir, &self.faults)?;
        // The old files are dead the moment the manifest swap lands;
        // removal is cleanup, not correctness.
        let old: Vec<String> = self.segments.iter().map(|s| s.file.clone()).collect();
        self.segments = vec![segment];
        self.tail.reset()?;
        self.tail_words.clear();
        self.tail_index.clear();
        self.tail_slices = BitSliceSet::with_bits(self.config.word_bits);
        for file in old {
            let _ = std::fs::remove_file(self.dir.join(file));
        }
        #[cfg(feature = "obs")]
        {
            crate::obs::metrics()
                .compact_ns
                .record(started.elapsed().as_nanos() as u64);
            crate::obs::maintenance_span(
                napmon_obs::SpanKind::StoreCompact,
                started_ns,
                live_words,
            );
        }
        Ok(())
    }

    fn manifest(&self) -> Manifest {
        Manifest {
            format_version: MANIFEST_VERSION,
            word_bits: self.config.word_bits,
            segment_capacity: self.config.segment_capacity,
            bloom_bits_per_word: self.config.bloom_bits_per_word,
            next_segment_id: self.next_segment_id,
            segments: self
                .segments
                .iter()
                .map(|s| SegmentMeta {
                    file: s.file.clone(),
                    words: s.len() as u64,
                    checksum: s.checksum,
                    masks_checksum: Some(s.masks_checksum),
                })
                .collect(),
        }
    }

    /// Every distinct word the store holds, sealed segments first (oldest
    /// to newest) then the tail in append order. Materializes the full
    /// set — meant for audits and recovery oracles, not the query path.
    pub fn words(&self) -> Vec<BitWord> {
        let limbs = self.limbs.max(1);
        debug_assert!(
            self.tail_words.len().is_multiple_of(limbs),
            "tail word block is not word-aligned"
        );
        let mut out = Vec::with_capacity(self.len() as usize);
        for segment in &self.segments {
            for chunk in segment.words.chunks_exact(limbs) {
                out.push(word_from_limbs(chunk, self.config.word_bits));
            }
        }
        for chunk in self.tail_words.chunks_exact(limbs) {
            out.push(word_from_limbs(chunk, self.config.word_bits));
        }
        out
    }

    /// Exact membership: the tail's hash index, then per segment (newest
    /// first) Bloom filter → binary search.
    pub fn contains(&self, word: &BitWord) -> bool {
        if self.tail_index.contains(word) {
            return true;
        }
        let limbs = word.limbs();
        self.segments.iter().rev().any(|s| s.contains(limbs))
    }

    /// Hamming-ball membership: whether some stored word differs from
    /// `word` in at most `tau` positions. A batch of one through
    /// [`PatternStore::contains_within_batch`].
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Mismatch`] if `word`'s width differs from the
    /// store's. (An earlier revision compared only the overlapping limbs
    /// of a wrong-width query — a silently-truncated answer; the width is
    /// now part of the contract.)
    pub fn contains_within(&self, word: &BitWord, tau: usize) -> Result<bool, StoreError> {
        let mut hit = [false];
        self.contains_within_batch(std::slice::from_ref(word), tau, &mut hit)?;
        Ok(hit[0])
    }

    /// Batched Hamming-ball membership:
    /// `out[i] = contains_within(&words[i], tau)`.
    ///
    /// `tau = 0` takes the exact path ([`PatternStore::contains`]) per
    /// word. Otherwise the batch is prepared once for the bit-sliced kernel
    /// ([`napmon_bdd::BitSliceSet::mark_within`]) and runs over the tail's
    /// mirror, then over each sealed segment for the queries still
    /// unanswered, where per-partition AND/OR masks pick the queries that
    /// can still hit each partition. It stops once every query has hit.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Mismatch`] if a word's width differs from the
    /// store's; `out` is then left unspecified.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() < words.len()`.
    pub fn contains_within_batch(
        &self,
        words: &[BitWord],
        tau: usize,
        out: &mut [bool],
    ) -> Result<(), StoreError> {
        if let Some(word) = words.iter().find(|w| w.len() != self.config.word_bits) {
            return Err(StoreError::Mismatch(format!(
                "Hamming query with a {}-bit word against a {}-bit store",
                word.len(),
                self.config.word_bits
            )));
        }
        let out = &mut out[..words.len()];
        if tau == 0 {
            for (word, slot) in words.iter().zip(out.iter_mut()) {
                *slot = self.contains(word);
            }
            return Ok(());
        }
        out.fill(false);
        let queries = QueryMasks::new(self.config.word_bits, words);
        let mut pending: Vec<usize> = (0..words.len()).collect();
        let tail = &self.tail_slices;
        tail.mark_within(&queries, tau, 0..tail.superblocks(), &mut pending, out);
        for segment in &self.segments {
            segment.mark_within(words, &queries, tau, &mut pending, out);
        }
        Ok(())
    }

    /// A live snapshot of the store's shape and history.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] if on-disk sizes cannot be read.
    pub fn stats(&mut self) -> Result<StoreStats, StoreError> {
        Ok(StoreStats {
            word_bits: self.config.word_bits,
            segments: self.segments.len(),
            sealed_words: self.segments.iter().map(|s| s.len() as u64).sum(),
            tail_words: self.tail_index.len() as u64,
            appended: self.appended,
            deduplicated: self.deduplicated,
            disk_bytes: self.disk_bytes()?,
        })
    }

    /// Bytes the store occupies on disk (manifest + sealed segments +
    /// tail log, including not-yet-committed buffered appends).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] if file sizes cannot be read.
    pub fn disk_bytes(&mut self) -> Result<u64, StoreError> {
        let mut total = self.tail.disk_bytes()?;
        total += std::fs::metadata(crate::manifest::manifest_path(&self.dir))?.len();
        for segment in &self.segments {
            total += std::fs::metadata(self.dir.join(&segment.file))?.len();
        }
        Ok(total)
    }

    /// Wraps the store into the shared, lock-guarded form monitors consume
    /// (see [`napmon_core::SharedPatternSource`]).
    pub fn into_shared(self) -> SharedPatternSource {
        Arc::new(RwLock::new(self))
    }
}

fn word_from_limbs(limbs: &[u64], bits: usize) -> BitWord {
    BitWord::from_fn(bits, |i| (limbs[i / 64] >> (i % 64)) & 1 == 1)
}

/// Takes the store's exclusive advisory lock (`LOCK` in the store
/// directory). The lock is tied to the returned file handle: dropping the
/// store — or the process dying — releases it, so crashes never wedge a
/// store.
fn acquire_lock(dir: &Path) -> Result<std::fs::File, StoreError> {
    let lock = std::fs::OpenOptions::new()
        .create(true)
        .truncate(false)
        .write(true)
        .open(dir.join("LOCK"))?;
    match lock.try_lock() {
        Ok(()) => Ok(lock),
        Err(std::fs::TryLockError::WouldBlock) => Err(StoreError::Locked(dir.to_path_buf())),
        Err(std::fs::TryLockError::Error(e)) => Err(StoreError::Io(e)),
    }
}

impl PatternSource for PatternStore {
    fn word_bits(&self) -> usize {
        self.config.word_bits
    }

    fn insert(&mut self, word: &BitWord) -> Result<bool, MonitorError> {
        if word.len() != self.config.word_bits {
            return Err(MonitorError::DimensionMismatch {
                context: "pattern store insert".into(),
                expected: self.config.word_bits,
                actual: word.len(),
            });
        }
        self.append(word).map_err(Into::into)
    }

    fn contains(&self, word: &BitWord) -> bool {
        PatternStore::contains(self, word)
    }

    fn contains_within(&self, word: &BitWord, tau: usize) -> bool {
        // The only failure mode is a width mismatch, and monitors validate
        // word width when the source is attached — reaching it here is a
        // bug in the caller, not a runtime condition.
        PatternStore::contains_within(self, word, tau)
            .expect("query width is validated when the source is attached to a monitor")
    }

    fn contains_within_batch(&self, words: &[BitWord], tau: usize, out: &mut [bool]) {
        PatternStore::contains_within_batch(self, words, tau, out)
            .expect("query width is validated when the source is attached to a monitor");
    }

    fn word_count(&self) -> u64 {
        self.len()
    }

    fn store_size(&self) -> usize {
        self.len() as usize
    }

    fn commit(&mut self) -> Result<(), MonitorError> {
        PatternStore::commit(self).map_err(Into::into)
    }

    fn descriptor(&self) -> SourceDescriptor {
        SourceDescriptor {
            kind: "napmon-store".into(),
            path: self.dir.display().to_string(),
            word_bits: self.config.word_bits,
        }
    }
}

/// A [`napmon_core::SourceProvider`] handing each member monitor its own
/// store under one root directory (`member-NNNN/`). The layout is what
/// multi-layer and per-class compositions persist as, and what
/// [`open_member_source`] reopens.
#[derive(Debug, Clone)]
pub struct StoreProvider {
    root: PathBuf,
    segment_capacity: Option<usize>,
}

impl StoreProvider {
    /// A provider that opens-or-creates member stores under `root`.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        Self {
            root: root.into(),
            segment_capacity: None,
        }
    }

    /// Overrides the segment capacity of newly created member stores.
    pub fn segment_capacity(mut self, words: usize) -> Self {
        self.segment_capacity = Some(words);
        self
    }

    /// The directory backing member `member` under `root`.
    pub fn member_dir(root: &Path, member: usize) -> PathBuf {
        root.join(format!("member-{member:04}"))
    }

    /// The store namespace for one mounted tenant version:
    /// `root/tenant-<id>/v<NNNN>/`, with the usual `member-NNNN/` layout
    /// nested underneath. Namespacing by *version* (not just tenant) is
    /// what lets a registry hot-swap a store-backed monitor: the candidate
    /// version's stores live in their own directory, so its advisory locks
    /// never alias the still-serving version's.
    pub fn tenant_dir(root: &Path, tenant: &str, version: u32) -> PathBuf {
        root.join(format!("tenant-{tenant}"))
            .join(format!("v{version:04}"))
    }
}

impl From<PathBuf> for StoreProvider {
    fn from(root: PathBuf) -> Self {
        Self::new(root)
    }
}

impl napmon_core::SourceProvider for StoreProvider {
    fn open_source(
        &mut self,
        member: usize,
        word_bits: usize,
    ) -> Result<SharedPatternSource, MonitorError> {
        let mut config = StoreConfig::new(word_bits);
        if let Some(capacity) = self.segment_capacity {
            config = config.segment_capacity(capacity);
        }
        let store = PatternStore::open_or_create(Self::member_dir(&self.root, member), config)?;
        Ok(store.into_shared())
    }
}

/// Reopens the existing member store under `root` for member `member`,
/// verifying it holds `word_bits`-bit words — the warm-start path
/// (`MonitorEngine::from_store` in `napmon-serve` resolves members through
/// this).
///
/// # Errors
///
/// Returns [`StoreError::Missing`] if the member store does not exist and
/// [`StoreError::Mismatch`] on word-width disagreement, both mapped into
/// [`MonitorError::ExternalSource`].
pub fn open_member_source(
    root: &Path,
    member: usize,
    word_bits: usize,
) -> Result<SharedPatternSource, MonitorError> {
    let dir = StoreProvider::member_dir(root, member);
    let store = PatternStore::open(&dir)?;
    if store.word_bits() != word_bits {
        return Err(MonitorError::DimensionMismatch {
            context: format!("member store {}", dir.display()),
            expected: word_bits,
            actual: store.word_bits(),
        });
    }
    Ok(store.into_shared())
}

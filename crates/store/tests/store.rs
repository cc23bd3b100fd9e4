//! Integration tests of the log-structured store: durability, crash
//! recovery, compaction, and differential equivalence against the
//! in-memory reference source.

use napmon_bdd::BitWord;
use napmon_core::{MemoryPatternSource, PatternSource};
use napmon_store::{PatternStore, StoreConfig, StoreError};
use napmon_tensor::Prng;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("napmon_store_it_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn random_words(seed: u64, n: usize, bits: usize) -> Vec<BitWord> {
    let mut rng = Prng::seed(seed);
    (0..n)
        .map(|_| {
            let v = rng.uniform_vec(bits, -1.0, 1.0);
            BitWord::from_fn(bits, |i| v[i] > 0.0)
        })
        .collect()
}

#[test]
fn append_commit_reopen_round_trip() {
    let dir = tmp("roundtrip");
    let words = random_words(7, 300, 90);
    let mut store = PatternStore::create(&dir, StoreConfig::new(90)).unwrap();
    let fresh = store.append_batch(&words).unwrap();
    assert!(fresh > 0 && fresh <= 300);
    assert_eq!(store.len(), fresh);
    drop(store);

    let store = PatternStore::open(&dir).unwrap();
    assert_eq!(store.len(), fresh);
    for w in &words {
        assert!(store.contains(w), "lost {w:?} across reopen");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn matches_memory_source_exactly_and_within_hamming() {
    let dir = tmp("differential");
    let bits = 70; // crosses the u64 limb boundary
    let mut store =
        PatternStore::create(&dir, StoreConfig::new(bits).segment_capacity(64)).unwrap();
    let mut memory = MemoryPatternSource::new(bits);
    for w in random_words(11, 500, bits) {
        let a = store.append(&w).unwrap();
        let b = memory.insert(&w).unwrap();
        assert_eq!(a, b, "dedup disagreement on {w:?}");
    }
    store.commit().unwrap();
    assert_eq!(store.len(), memory.word_count());

    // Sealing happened along the way (capacity 64), so probes hit sealed
    // segments, the tail, and misses.
    assert!(store.segment_count() >= 2);
    for probe in random_words(13, 400, bits) {
        assert_eq!(store.contains(&probe), memory.contains(&probe));
        for tau in [0usize, 1, 3, 8] {
            assert_eq!(
                store.contains_within(&probe, tau).unwrap(),
                memory.contains_within(&probe, tau),
                "tau={tau} probe={probe:?}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torn_tail_record_is_dropped_on_open() {
    let dir = tmp("torn_tail");
    let words = random_words(3, 20, 40);
    let mut store = PatternStore::create(&dir, StoreConfig::new(40)).unwrap();
    let fresh = store.append_batch(&words).unwrap();
    drop(store);

    // Simulate a crash mid-append: cut into the final tail record.
    let tail = dir.join("tail.log");
    let len = std::fs::metadata(&tail).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(&tail).unwrap();
    f.set_len(len - 3).unwrap();
    drop(f);

    let store = PatternStore::open(&dir).unwrap();
    assert_eq!(store.len(), fresh - 1, "exactly the torn word is dropped");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_sealed_segment_is_a_typed_error() {
    let dir = tmp("corrupt_segment");
    let mut store = PatternStore::create(&dir, StoreConfig::new(32)).unwrap();
    store.append_batch(&random_words(5, 50, 32)).unwrap();
    store.seal().unwrap();
    drop(store);

    let seg = dir.join("segment-00000000.seg");
    let mut bytes = std::fs::read(&seg).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&seg, &bytes).unwrap();

    let err = PatternStore::open(&dir).unwrap_err();
    assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn seal_and_compact_preserve_membership_and_shrink_files() {
    let dir = tmp("compact");
    let words = random_words(17, 400, 50);
    let mut store = PatternStore::create(&dir, StoreConfig::new(50).segment_capacity(32)).unwrap();
    store.append_batch(&words).unwrap();
    store.seal().unwrap();
    let segments_before = store.segment_count();
    assert!(
        segments_before > 1,
        "capacity 32 must produce many segments"
    );
    let len_before = store.len();

    store.compact().unwrap();
    assert_eq!(store.segment_count(), 1);
    assert_eq!(store.len(), len_before);
    for w in &words {
        assert!(store.contains(w));
    }
    // Dead segment files are gone from disk.
    let seg_files = std::fs::read_dir(&dir)
        .unwrap()
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .file_name()
                .to_string_lossy()
                .ends_with(".seg")
        })
        .count();
    assert_eq!(seg_files, 1);

    // And the compacted store still reopens identically.
    drop(store);
    let store = PatternStore::open(&dir).unwrap();
    assert_eq!(store.len(), len_before);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn uncommitted_appends_may_be_lost_but_committed_ones_never() {
    let dir = tmp("durability");
    let committed = random_words(21, 30, 24);
    let mut store = PatternStore::create(&dir, StoreConfig::new(24)).unwrap();
    for w in &committed {
        store.append(w).unwrap();
    }
    store.commit().unwrap();
    let durable = store.len();
    drop(store); // drop flushes best-effort, but commit is the guarantee

    let store = PatternStore::open(&dir).unwrap();
    assert!(store.len() >= durable);
    for w in &committed {
        assert!(store.contains(w));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn stats_track_shape_and_dedup() {
    let dir = tmp("stats");
    let mut store = PatternStore::create(&dir, StoreConfig::new(16).segment_capacity(8)).unwrap();
    let w = BitWord::from_fn(16, |i| i % 2 == 0);
    assert!(store.append(&w).unwrap());
    assert!(!store.append(&w).unwrap());
    let stats = store.stats().unwrap();
    assert_eq!(stats.word_bits, 16);
    assert_eq!(stats.appended, 1);
    assert_eq!(stats.deduplicated, 1);
    assert_eq!(stats.tail_words, 1);
    assert_eq!(stats.segments, 0);
    assert!(stats.disk_bytes > 0);
    // Stats serialize for ops scraping.
    let json = serde_json::to_string(&stats).unwrap();
    assert!(json.contains("\"disk_bytes\""));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn open_or_create_enforces_word_width() {
    let dir = tmp("open_or_create");
    let store = PatternStore::open_or_create(&dir, StoreConfig::new(12)).unwrap();
    drop(store);
    assert!(PatternStore::open_or_create(&dir, StoreConfig::new(12)).is_ok());
    let err = PatternStore::open_or_create(&dir, StoreConfig::new(13)).unwrap_err();
    assert!(matches!(err, StoreError::Mismatch(_)), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn missing_store_is_typed() {
    let dir = tmp("missing");
    assert!(matches!(
        PatternStore::open(&dir).unwrap_err(),
        StoreError::Missing(_)
    ));
}

#[test]
fn pattern_source_impl_round_trips_through_trait_object() {
    let dir = tmp("as_source");
    let store = PatternStore::create(&dir, StoreConfig::new(8)).unwrap();
    let shared = store.into_shared();
    {
        let mut guard = shared.write().unwrap();
        assert!(guard.insert(&BitWord::from_fn(8, |i| i == 3)).unwrap());
        assert!(
            guard.insert(&BitWord::from_fn(4, |_| true)).is_err(),
            "wrong width must be rejected"
        );
        guard.commit().unwrap();
        assert_eq!(guard.word_count(), 1);
        let descriptor = guard.descriptor();
        assert_eq!(descriptor.kind, "napmon-store");
        assert_eq!(descriptor.word_bits, 8);
        assert!(descriptor.path.contains("as_source"));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn opens_are_exclusive_until_drop() {
    let dir = tmp("exclusive");
    let store = PatternStore::create(&dir, StoreConfig::new(8)).unwrap();
    // A second handle on the live store is a typed error…
    let err = PatternStore::open(&dir).unwrap_err();
    assert!(matches!(err, StoreError::Locked(_)), "{err}");
    // …and the lock dies with the holder.
    drop(store);
    assert!(PatternStore::open(&dir).is_ok());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A crash between seal()'s manifest swap and its tail reset leaves the
/// freshly-sealed words still sitting in tail.log. Reopening must
/// reconcile: no double counting, no duplicate re-sealing.
#[test]
fn crashed_seal_does_not_double_count_words() {
    let dir = tmp("crashed_seal");
    let words = random_words(29, 60, 32);
    let mut store = PatternStore::create(&dir, StoreConfig::new(32)).unwrap();
    let fresh = store.append_batch(&words).unwrap();
    // Snapshot the pre-seal tail log, then seal normally.
    let tail_bytes = std::fs::read(dir.join("tail.log")).unwrap();
    store.seal().unwrap();
    assert_eq!(store.segment_count(), 1);
    drop(store);
    // "Crash before tail reset": restore the stale tail log.
    std::fs::write(dir.join("tail.log"), &tail_bytes).unwrap();

    let mut store = PatternStore::open(&dir).unwrap();
    assert_eq!(store.len(), fresh, "sealed words must not count twice");
    let stats = store.stats().unwrap();
    assert_eq!(stats.sealed_words, fresh);
    assert_eq!(stats.tail_words, 0, "stale tail reconciled away");
    // Sealing again must not duplicate anything on disk.
    store.append_batch(&words).unwrap(); // all duplicates
    store.seal().unwrap();
    assert_eq!(store.segment_count(), 1, "nothing new to seal");
    assert_eq!(store.len(), fresh);
    // And the reconciliation itself survives another reopen.
    drop(store);
    let store = PatternStore::open(&dir).unwrap();
    assert_eq!(store.len(), fresh);
    for w in &words {
        assert!(store.contains(w));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// 64-bit FNV-1a, the checksum every store record and file carries.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A 39-bit word with bit 63 of its one limb set, under a valid checksum,
/// is refused typed wherever recovery reads it: an intact tail record,
/// last or in the middle.
#[test]
fn tail_word_with_bits_past_the_width_is_refused_typed() {
    let bits = 39;
    for (case, record) in [("last", 299usize), ("middle", 10)] {
        let dir = tmp(&format!("padded_tail_{case}"));
        let mut store = PatternStore::create(&dir, StoreConfig::new(bits)).unwrap();
        // Distinct words, so all 300 land in the tail.
        let words: Vec<BitWord> = (0..300u64)
            .map(|i| BitWord::from_fn(bits, |j| ((i * 0x9e37) >> j) & 1 == 1))
            .collect();
        assert_eq!(store.append_batch(&words).unwrap(), 300);
        drop(store);

        // One limb per record: 8 word bytes, then their checksum.
        let path = dir.join("tail.log");
        let mut bytes = std::fs::read(&path).unwrap();
        let at = 16 + 16 * record;
        bytes[at + 7] |= 0x80;
        let sum = fnv1a(&bytes[at..at + 8]);
        bytes[at + 8..at + 16].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();

        match PatternStore::open(&dir) {
            Err(StoreError::Corrupt { file, detail }) => {
                assert_eq!(file, path, "{case}");
                assert!(detail.contains("past the 39-bit"), "{case}: {detail}");
            }
            other => panic!("{case}: expected a corrupt tail, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// The same word in a sealed segment whose file and manifest checksums
/// agree is refused typed at load, naming the segment.
#[test]
fn segment_word_with_bits_past_the_width_is_refused_typed() {
    let dir = tmp("padded_segment");
    let bits = 39;
    let mut store = PatternStore::create(&dir, StoreConfig::new(bits)).unwrap();
    store.append_batch(&random_words(17, 300, bits)).unwrap();
    store.seal().unwrap();
    drop(store);

    let manifest_path = dir.join("MANIFEST.json");
    let mut manifest: napmon_store::Manifest =
        serde_json::from_str(&std::fs::read_to_string(&manifest_path).unwrap()).unwrap();
    let seg = dir.join(&manifest.segments[0].file);
    let mut bytes = std::fs::read(&seg).unwrap();
    // The header's bloom bit count locates the word block; pad word 5.
    let bloom_bits = u64::from_le_bytes(bytes[24..32].try_into().unwrap()) as usize;
    let at = 32 + 8 * bloom_bits.div_ceil(64) + 8 * 5;
    bytes[at + 7] |= 0x80;
    let body = bytes.len() - 8;
    let sum = fnv1a(&bytes[..body]);
    bytes[body..].copy_from_slice(&sum.to_le_bytes());
    std::fs::write(&seg, &bytes).unwrap();
    manifest.segments[0].checksum = sum;
    manifest.segments[0].masks_checksum = None;
    std::fs::write(&manifest_path, serde_json::to_string(&manifest).unwrap()).unwrap();

    match PatternStore::open(&dir) {
        Err(StoreError::Corrupt { file, detail }) => {
            assert_eq!(file, seg);
            assert!(detail.contains("past the 39-bit"), "{detail}");
        }
        other => panic!("expected a corrupt segment, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

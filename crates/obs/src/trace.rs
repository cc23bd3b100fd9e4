//! Bounded per-thread ring-buffer event tracer.
//!
//! Each recording thread owns a fixed-capacity ring of seqlock-style
//! slots: a writer claims a slot with one `fetch_add` on its own ring's
//! head (uncontended — no other thread writes that ring), marks the
//! slot's sequence odd while the fields land, then publishes it even.
//! Readers ([`recent_spans`]) sample every registered ring without
//! stopping writers, discarding slots whose sequence moved mid-read.
//! When a ring wraps, the oldest events are overwritten: drop-oldest,
//! never block, never allocate on the record path (the ring itself is
//! allocated once on a thread's first span — steady state is zero-alloc,
//! pinned by this crate's counting-allocator test).
//!
//! ## Probes
//!
//! The free functions ([`record_span`], [`now_ns`], [`tracing_enabled`],
//! …) are the *probe surface* hot paths call unconditionally. With the
//! `probes` cargo feature off (the default) they are `#[inline(always)]`
//! no-op shims — `tracing_enabled()` is a compile-time `false`, so guarded
//! instrumentation folds away entirely. With `probes` on, recording is
//! still gated behind a runtime switch ([`set_tracing`]) so one binary can
//! measure instrumented and uninstrumented throughput back to back.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// What a span measured. Codes are stable wire/ring values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SpanKind {
    /// Wire server: reading + decoding one request frame.
    WireDecode,
    /// Wire server: encoding + writing one response frame.
    WireRespond,
    /// Serve engine: a job's wait in a shard queue before pickup.
    QueueWait,
    /// Serve engine: a shard serving one micro-batch of verdicts.
    Verdict,
    /// Monitor internals: the network forward pass.
    Forward,
    /// Monitor internals: abstracting activations to a pattern word.
    Abstraction,
    /// Monitor internals: the pattern-set membership query.
    Membership,
    /// Store: appending a record to the tail segment.
    StoreAppend,
    /// Store: sealing the tail into an immutable segment.
    StoreSeal,
    /// Store: compacting sealed segments.
    StoreCompact,
    /// Registry: an atomic active-version flip (hot swap).
    HotSwapFlip,
}

impl SpanKind {
    /// Stable numeric code (used in ring slots).
    #[must_use]
    pub fn code(self) -> u64 {
        match self {
            SpanKind::WireDecode => 1,
            SpanKind::WireRespond => 2,
            SpanKind::QueueWait => 3,
            SpanKind::Verdict => 4,
            SpanKind::Forward => 5,
            SpanKind::Abstraction => 6,
            SpanKind::Membership => 7,
            SpanKind::StoreAppend => 9,
            SpanKind::StoreSeal => 10,
            SpanKind::StoreCompact => 11,
            SpanKind::HotSwapFlip => 12,
        }
    }

    /// Inverse of [`code`](Self::code).
    #[must_use]
    pub fn from_code(code: u64) -> Option<SpanKind> {
        Some(match code {
            1 => SpanKind::WireDecode,
            2 => SpanKind::WireRespond,
            3 => SpanKind::QueueWait,
            4 => SpanKind::Verdict,
            5 => SpanKind::Forward,
            6 => SpanKind::Abstraction,
            7 => SpanKind::Membership,
            9 => SpanKind::StoreAppend,
            10 => SpanKind::StoreSeal,
            11 => SpanKind::StoreCompact,
            12 => SpanKind::HotSwapFlip,
            _ => return None,
        })
    }
}

/// One recorded span. `trace_id == 0` means "not attached to a trace".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// The request trace this span belongs to (0: unattached).
    pub trace_id: u64,
    /// What was measured.
    pub kind: SpanKind,
    /// Start time, nanoseconds since the process clock origin.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Kind-specific payload (shard index, batch size, byte count, …).
    pub detail: u64,
}

struct Slot {
    seq: AtomicU64,
    trace_id: AtomicU64,
    kind: AtomicU64,
    start_ns: AtomicU64,
    dur_ns: AtomicU64,
    detail: AtomicU64,
}

impl Slot {
    fn empty() -> Self {
        Slot {
            seq: AtomicU64::new(0),
            trace_id: AtomicU64::new(0),
            kind: AtomicU64::new(0),
            start_ns: AtomicU64::new(0),
            dur_ns: AtomicU64::new(0),
            detail: AtomicU64::new(0),
        }
    }
}

/// A bounded, drop-oldest span ring. One per recording thread in the
/// global tracer; also constructible standalone (tests, embedding).
pub struct TraceRing {
    mask: usize,
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl TraceRing {
    /// A ring holding up to `capacity` events (rounded up to a power of
    /// two, minimum 8).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(8).next_power_of_two();
        TraceRing {
            mask: capacity - 1,
            head: AtomicU64::new(0),
            slots: (0..capacity).map(|_| Slot::empty()).collect(),
        }
    }

    /// Slots in the ring.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Events recorded over the ring's lifetime (recorded, not retained).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Records one event, overwriting the oldest if the ring is full.
    /// Never blocks, never allocates.
    #[inline]
    pub fn record(&self, event: TraceEvent) {
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[ticket as usize & self.mask];
        // Seqlock write protocol: odd while in flight, even when
        // published. Readers discard slots whose sequence moved.
        slot.seq.store(ticket * 2 + 1, Ordering::Release);
        slot.trace_id.store(event.trace_id, Ordering::Relaxed);
        slot.kind.store(event.kind.code(), Ordering::Relaxed);
        slot.start_ns.store(event.start_ns, Ordering::Relaxed);
        slot.dur_ns.store(event.dur_ns, Ordering::Relaxed);
        slot.detail.store(event.detail, Ordering::Relaxed);
        slot.seq.store(ticket * 2 + 2, Ordering::Release);
    }

    /// The currently retained events, oldest first, skipping any slot a
    /// concurrent writer had in flight.
    #[must_use]
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let mut out: Vec<(u64, TraceEvent)> = Vec::with_capacity(self.capacity());
        for slot in self.slots.iter() {
            for _attempt in 0..2 {
                let seq_before = slot.seq.load(Ordering::Acquire);
                if seq_before == 0 || seq_before % 2 == 1 {
                    break; // never written, or mid-write: skip
                }
                let trace_id = slot.trace_id.load(Ordering::Relaxed);
                let kind = slot.kind.load(Ordering::Relaxed);
                let start_ns = slot.start_ns.load(Ordering::Relaxed);
                let dur_ns = slot.dur_ns.load(Ordering::Relaxed);
                let detail = slot.detail.load(Ordering::Relaxed);
                let seq_after = slot.seq.load(Ordering::Acquire);
                if seq_before == seq_after {
                    if let Some(kind) = SpanKind::from_code(kind) {
                        out.push((
                            seq_before,
                            TraceEvent {
                                trace_id,
                                kind,
                                start_ns,
                                dur_ns,
                                detail,
                            },
                        ));
                    }
                    break;
                }
            }
        }
        out.sort_by_key(|(seq, _)| *seq);
        out.into_iter().map(|(_, event)| event).collect()
    }
}

impl std::fmt::Debug for TraceRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRing")
            .field("capacity", &self.capacity())
            .field("recorded", &self.recorded())
            .finish()
    }
}

/// Mints a process-unique non-zero trace id (splitmix64 over a counter).
///
/// Always available — servers mint ids for requests that arrive without
/// one; clients may instead supply their own (e.g. seeded, for
/// reproducible traces).
#[must_use]
pub fn mint_trace_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0x9E37_79B9_7F4A_7C15);
    let mut z = NEXT.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    z.max(1)
}

#[cfg(feature = "probes")]
mod live {
    use super::{TraceEvent, TraceRing};
    use std::cell::OnceCell;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex, OnceLock};
    use std::time::Instant;

    /// Capacity of each thread's span ring.
    pub const PER_THREAD_RING_CAPACITY: usize = 1024;

    /// Registered rings are kept alive past thread exit so spans from
    /// short-lived threads (per-connection handlers) survive until
    /// scraped; this caps how many orphaned rings are retained.
    const MAX_RINGS: usize = 512;

    static TRACING: AtomicBool = AtomicBool::new(false);
    static RINGS: Mutex<Vec<Arc<TraceRing>>> = Mutex::new(Vec::new());

    thread_local! {
        static LOCAL_RING: OnceCell<Arc<TraceRing>> = const { OnceCell::new() };
    }

    fn clock_origin() -> &'static Instant {
        static ORIGIN: OnceLock<Instant> = OnceLock::new();
        ORIGIN.get_or_init(Instant::now)
    }

    pub fn set_tracing(enabled: bool) {
        // Pin the clock origin before the first span so timestamps are
        // comparable across threads.
        let _ = clock_origin();
        TRACING.store(enabled, Ordering::SeqCst);
    }

    #[inline]
    pub fn tracing_enabled() -> bool {
        TRACING.load(Ordering::Relaxed)
    }

    #[inline]
    pub fn now_ns() -> u64 {
        clock_origin().elapsed().as_nanos() as u64
    }

    #[inline]
    pub fn record_event(event: TraceEvent) {
        if !tracing_enabled() {
            return;
        }
        LOCAL_RING.with(|cell| {
            let ring = cell.get_or_init(|| {
                let ring = Arc::new(TraceRing::with_capacity(PER_THREAD_RING_CAPACITY));
                let mut rings = RINGS
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                if rings.len() >= MAX_RINGS {
                    // Evict the oldest orphaned ring (its thread exited:
                    // only the registry still holds it).
                    if let Some(pos) = rings.iter().position(|r| Arc::strong_count(r) == 1) {
                        rings.remove(pos);
                    }
                }
                rings.push(Arc::clone(&ring));
                ring
            });
            ring.record(event);
        });
    }

    pub fn recent_spans() -> Vec<TraceEvent> {
        let rings: Vec<Arc<TraceRing>> = RINGS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        let mut out = Vec::new();
        for ring in rings {
            out.extend(ring.snapshot());
        }
        out.sort_by_key(|event| (event.start_ns, event.kind.code()));
        out
    }
}

// --- probe surface ---------------------------------------------------------

/// Turns span recording on or off at runtime. No-op without `probes`.
#[cfg(feature = "probes")]
pub fn set_tracing(enabled: bool) {
    live::set_tracing(enabled);
}

/// Whether spans are currently being recorded. Compile-time `false`
/// without `probes`, so `if tracing_enabled() { … }` folds away.
#[cfg(feature = "probes")]
#[inline]
#[must_use]
pub fn tracing_enabled() -> bool {
    live::tracing_enabled()
}

/// Nanoseconds since the process trace-clock origin.
#[cfg(feature = "probes")]
#[inline]
#[must_use]
pub fn now_ns() -> u64 {
    live::now_ns()
}

/// Records one span into the calling thread's ring (drop-oldest).
#[cfg(feature = "probes")]
#[inline]
pub fn record_span(trace_id: u64, kind: SpanKind, start_ns: u64, dur_ns: u64, detail: u64) {
    live::record_event(TraceEvent {
        trace_id,
        kind,
        start_ns,
        dur_ns,
        detail,
    });
}

/// Every retained span across all threads, ordered by start time.
#[cfg(feature = "probes")]
#[must_use]
pub fn recent_spans() -> Vec<TraceEvent> {
    live::recent_spans()
}

/// No-op shim: probes are compiled out (`probes` feature off).
#[cfg(not(feature = "probes"))]
#[inline(always)]
pub fn set_tracing(_enabled: bool) {}

/// No-op shim: always `false` (a compile-time constant) without `probes`.
#[cfg(not(feature = "probes"))]
#[inline(always)]
#[must_use]
pub fn tracing_enabled() -> bool {
    false
}

/// No-op shim: always `0` without `probes`.
#[cfg(not(feature = "probes"))]
#[inline(always)]
#[must_use]
pub fn now_ns() -> u64 {
    0
}

/// No-op shim: discards the span without `probes`.
#[cfg(not(feature = "probes"))]
#[inline(always)]
pub fn record_span(_trace_id: u64, _kind: SpanKind, _start_ns: u64, _dur_ns: u64, _detail: u64) {}

/// No-op shim: always empty without `probes`.
#[cfg(not(feature = "probes"))]
#[inline(always)]
#[must_use]
pub fn recent_spans() -> Vec<TraceEvent> {
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_retains_newest_and_drops_oldest() {
        let ring = TraceRing::with_capacity(8);
        for i in 0..20u64 {
            ring.record(TraceEvent {
                trace_id: 1,
                kind: SpanKind::Verdict,
                start_ns: i,
                dur_ns: 1,
                detail: i,
            });
        }
        let events = ring.snapshot();
        assert_eq!(events.len(), 8);
        // Oldest first, and exactly the last 8 recorded survive.
        let details: Vec<u64> = events.iter().map(|e| e.detail).collect();
        assert_eq!(details, (12..20).collect::<Vec<u64>>());
        assert_eq!(ring.recorded(), 20);
    }

    #[test]
    fn span_kind_codes_round_trip() {
        for kind in [
            SpanKind::WireDecode,
            SpanKind::WireRespond,
            SpanKind::QueueWait,
            SpanKind::Verdict,
            SpanKind::Forward,
            SpanKind::Abstraction,
            SpanKind::Membership,
            SpanKind::StoreAppend,
            SpanKind::StoreSeal,
            SpanKind::StoreCompact,
            SpanKind::HotSwapFlip,
        ] {
            assert_eq!(SpanKind::from_code(kind.code()), Some(kind), "{kind:?}");
        }
        assert_eq!(SpanKind::from_code(0), None);
        // Code 8 belonged to a store span kind nothing ever emitted; it
        // stays unassigned so codes 9-12 keep their meaning.
        assert_eq!(SpanKind::from_code(8), None);
        assert_eq!(SpanKind::from_code(999), None);
    }

    #[test]
    fn trace_ids_are_unique_and_nonzero() {
        let ids: std::collections::HashSet<u64> = (0..1000).map(|_| mint_trace_id()).collect();
        assert_eq!(ids.len(), 1000);
        assert!(!ids.contains(&0));
    }

    #[test]
    fn trace_event_serde_round_trips() {
        let event = TraceEvent {
            trace_id: 42,
            kind: SpanKind::QueueWait,
            start_ns: 100,
            dur_ns: 7,
            detail: 3,
        };
        let back: TraceEvent = serde::from_value(serde::to_value(&event).unwrap()).unwrap();
        assert_eq!(back, event);
    }

    // The no-op shim contract: with `probes` off, the probe surface is
    // inert — nothing records, the runtime switch has no effect, and the
    // clock reads zero. This is the test the feature-matrix CI leg runs
    // with the feature off to prove instrumented call sites cost nothing.
    #[cfg(not(feature = "probes"))]
    #[test]
    fn shims_are_no_ops_without_probes() {
        set_tracing(true);
        assert!(!tracing_enabled());
        assert_eq!(now_ns(), 0);
        record_span(1, SpanKind::Verdict, 0, 1, 0);
        assert!(recent_spans().is_empty());
    }

    #[cfg(feature = "probes")]
    #[test]
    fn live_probes_record_across_threads() {
        set_tracing(true);
        let t0 = now_ns();
        record_span(77, SpanKind::WireDecode, t0, 5, 0);
        let handle = std::thread::spawn(move || {
            record_span(77, SpanKind::Verdict, t0 + 10, 5, 1);
        });
        handle.join().unwrap();
        let spans: Vec<TraceEvent> = recent_spans()
            .into_iter()
            .filter(|e| e.trace_id == 77)
            .collect();
        let kinds: Vec<SpanKind> = spans.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&SpanKind::WireDecode));
        assert!(kinds.contains(&SpanKind::Verdict));
    }
}

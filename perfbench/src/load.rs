//! The load generator: closed and open loops over loopback connections,
//! with every attempted frame accounted and every verdict checked.

use crate::deploy::Versions;
use crate::stats::quantile;
use napmon_core::Verdict;
use napmon_wire::{TenantRoute, WireClient, WireError};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// What happened to the frames one phase attempted.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ledger {
    /// Frames sent (queries, absorbs and admin requests alike).
    pub attempted: u64,
    /// Frames that failed or were refused (Busy, shed, evicted, timeout,
    /// error).
    pub failed: u64,
    /// Wire verdicts matching no allowed version's reference.
    pub mismatches: u64,
    /// Verdicts received.
    pub verdicts: u64,
    /// Deepest engine backlog seen by a frame about to be sent.
    pub depth_max: u64,
}

impl Ledger {
    pub fn add(&mut self, other: Ledger) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
        self.verdicts += other.verdicts;
        self.depth_max = self.depth_max.max(other.depth_max);
    }
}

/// One routed connection that survives failures: a refused (`Busy`) frame
/// keeps the connection, any other failure reconnects before the next one.
pub struct Conn {
    addr: SocketAddr,
    route: TenantRoute,
    client: Option<WireClient>,
    /// Index of the next frame this connection sends.
    next: usize,
}

impl Conn {
    /// A connection to `tenant` whose first frame is frame `first`.
    pub fn new(addr: SocketAddr, tenant: &str, first: usize) -> Self {
        Self {
            addr,
            route: TenantRoute::active(tenant),
            client: None,
            next: first,
        }
    }

    /// `n` connections starting at evenly spaced frames of a pool of
    /// `pool` frames.
    pub fn spread(addr: SocketAddr, tenant: &str, n: usize, pool: usize) -> Vec<Self> {
        (0..n)
            .map(|t| Self::new(addr, tenant, t * pool / n))
            .collect()
    }

    fn client(&mut self) -> Result<&mut WireClient, WireError> {
        if self.client.is_none() {
            let client = WireClient::connect(self.addr)?.with_route(self.route.clone());
            self.client = Some(client);
        }
        Ok(self.client.as_mut().expect("connected above"))
    }

    fn settle<T>(&mut self, result: Result<T, WireError>) -> Option<T> {
        match result {
            Ok(value) => Some(value),
            Err(WireError::Busy { .. }) => None,
            Err(_) => {
                self.client = None;
                None
            }
        }
    }

    /// One `query_batch` frame; `None` if it failed or was refused.
    pub fn query(&mut self, frame: &[Vec<f64>]) -> Option<Vec<Verdict>> {
        let result = self.client().and_then(|c| c.query_batch(frame));
        self.settle(result)
    }

    /// One `absorb_batch` frame; `false` if it failed or was refused.
    pub fn absorb(&mut self, frame: &[Vec<f64>]) -> bool {
        let result = self.client().and_then(|c| c.absorb_batch(frame));
        self.settle(result).is_some()
    }
}

/// The frames a phase sends and the versions that may answer them.
#[derive(Clone, Copy)]
pub struct Target<'a> {
    pub frames: &'a [Vec<Vec<f64>>],
    pub versions: &'a Versions,
    /// Samples the engine's backlog before each frame, when set.
    pub depth: Option<&'a (dyn Fn() -> u64 + Sync)>,
}

impl Target<'_> {
    /// Sends `conn`'s next frame and checks the answer; `true` when a
    /// verdict came back.
    pub fn send(&self, conn: &mut Conn, ledger: &mut Ledger) -> bool {
        let frame = conn.next % self.frames.len();
        conn.next += 1;
        let oldest = self.versions.active();
        if let Some(depth) = self.depth {
            ledger.depth_max = ledger.depth_max.max(depth());
        }
        ledger.attempted += 1;
        let Some(verdicts) = conn.query(&self.frames[frame]) else {
            ledger.failed += 1;
            return false;
        };
        let newest = self.versions.newest();
        if !self.versions.matches(oldest, newest, frame, &verdicts) {
            ledger.mismatches += 1;
        }
        ledger.verdicts += verdicts.len() as u64;
        true
    }
}

/// Closed loop for `secs`: each connection sends its next frame as soon as
/// the previous one is answered. Returns verdicts/s.
pub fn closed_loop(target: Target<'_>, conns: &mut [Conn], secs: f64) -> (f64, Ledger) {
    let end = Instant::now() + Duration::from_secs_f64(secs);
    let started = Instant::now();
    let ledgers: Vec<Ledger> = std::thread::scope(|s| {
        let workers: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                s.spawn(move || {
                    let mut ledger = Ledger::default();
                    while Instant::now() < end {
                        target.send(conn, &mut ledger);
                    }
                    ledger
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("closed-loop worker"))
            .collect()
    });
    let elapsed = started.elapsed().as_secs_f64();
    let mut ledger = Ledger::default();
    for l in ledgers {
        ledger.add(l);
    }
    (ledger.verdicts as f64 / elapsed, ledger)
}

/// What an open loop measured.
pub struct OpenLoop {
    /// Frame latency percentiles (µs; failed frames count as infinitely
    /// late).
    pub p50_us: f64,
    pub p90_us: f64,
    pub p99_us: f64,
    /// Frames timed.
    pub samples: usize,
    /// Generator lateness: how far past its due time the generator sent a
    /// frame it was free to send on time (µs).
    pub lag_us: Vec<f64>,
    /// How far behind schedule the last frame of each connection went out
    /// (µs); a backlog that keeps growing shows here.
    pub final_behind_us: f64,
    pub ledger: Ledger,
}

/// Open loop at `rate_fps` frames/s spread over the connections, for
/// `secs` or until `until` is raised. Each frame is timed from its due
/// time, so a stall also charges the frames queued behind it.
pub fn open_loop(
    target: Target<'_>,
    conns: &mut [Conn],
    rate_fps: f64,
    secs: f64,
    until: Option<&AtomicBool>,
) -> OpenLoop {
    let n = conns.len();
    let period = Duration::from_secs_f64(n as f64 / rate_fps);
    let started = Instant::now() + Duration::from_millis(1);
    let end = started.checked_add(Duration::from_secs_f64(secs.min(3600.0)));
    let raised = || until.is_some_and(|flag| flag.load(Ordering::SeqCst));
    type Worker = (Vec<f64>, Vec<f64>, f64, Ledger);
    let results: Vec<Worker> = std::thread::scope(|s| {
        let workers: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(t, conn)| {
                s.spawn(move || {
                    let mut latencies = Vec::new();
                    let mut lags = Vec::new();
                    let mut ledger = Ledger::default();
                    let mut behind = 0.0;
                    let offset = period.mul_f64(t as f64 / n as f64);
                    for k in 0u32.. {
                        let due = started + offset + period * k;
                        if end.is_some_and(|end| due >= end) || raised() {
                            break;
                        }
                        let now = Instant::now();
                        let idle = now < due;
                        if idle {
                            std::thread::sleep(due - now);
                        }
                        behind = due.elapsed().as_secs_f64() * 1e6;
                        if idle {
                            lags.push(behind);
                        }
                        latencies.push(if target.send(conn, &mut ledger) {
                            due.elapsed().as_secs_f64() * 1e6
                        } else {
                            f64::INFINITY
                        });
                    }
                    (latencies, lags, behind, ledger)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("open-loop worker"))
            .collect()
    });
    let mut latencies = Vec::new();
    let mut lag_us = Vec::new();
    let mut final_behind_us = 0.0f64;
    let mut ledger = Ledger::default();
    for (part, lags, behind, l) in results {
        latencies.extend(part);
        lag_us.extend(lags);
        final_behind_us = final_behind_us.max(behind);
        ledger.add(l);
    }
    OpenLoop {
        p50_us: quantile(&latencies, 0.5),
        p90_us: quantile(&latencies, 0.9),
        p99_us: quantile(&latencies, 0.99),
        samples: latencies.len(),
        lag_us,
        final_behind_us,
        ledger,
    }
}

/// Streams `absorb_batch` frames to `tenant` at `rate_fps` frames/s until
/// `stop` is raised. A fixed rate keeps the write load the same from run
/// to run, whatever the host's speed.
pub fn absorb_stream(
    addr: SocketAddr,
    tenant: &str,
    frames: &[Vec<Vec<f64>>],
    rate_fps: f64,
    stop: &AtomicBool,
) -> Ledger {
    let mut conn = Conn::new(addr, tenant, 0);
    let mut ledger = Ledger::default();
    let period = Duration::from_secs_f64(1.0 / rate_fps);
    let started = Instant::now();
    for (k, frame) in (0u32..).zip(frames.iter().cycle()) {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let due = started + period * k;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        ledger.attempted += 1;
        if !conn.absorb(frame) {
            ledger.failed += 1;
        }
    }
    ledger
}

/// Sends `probes` through `conn` in frames of 64 and counts warnings: the
/// Lemma 1 check, since every probe lies inside the Δ-ball of a training
/// point.
pub fn lemma_warnings(conn: &mut Conn, probes: &[Vec<f64>], ledger: &mut Ledger) -> u64 {
    let mut warnings = 0;
    for chunk in probes.chunks(64) {
        ledger.attempted += 1;
        let Some(verdicts) = conn.query(chunk) else {
            ledger.failed += 1;
            continue;
        };
        warnings += verdicts.iter().filter(|v| v.warning).count() as u64;
    }
    warnings
}

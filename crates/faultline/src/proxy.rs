//! A socket-level fault proxy for end-to-end network-fault tests.
//!
//! [`FaultProxy`] listens on an ephemeral local port and forwards every
//! accepted connection to a real upstream server, byte-for-byte — except
//! where its seeded [`ProxyPlan`] says otherwise. Faults are scheduled on
//! **byte offsets**, not wall-clock time: "kill this connection after
//! forwarding N bytes client→server" is deterministic no matter how the
//! kernel chunks the stream, so a failing schedule replays exactly from
//! its seed. Three fault shapes:
//!
//! - **kills** — the proxy forwards a prefix of the stream (possibly
//!   tearing mid-frame) and then drops both sides of the connection;
//! - **truncations** — a kill whose offset lands inside a frame, which is
//!   how a reader observes a truncated stream (no separate mechanism);
//! - **delays** — the proxy stalls at scheduled byte marks, long enough
//!   to exercise client deadlines without being survivable-schedule
//!   breaking.
//!
//! Survivability is guaranteed by construction: [`ProxyPlan::max_kills`]
//! caps total kills across the proxy's lifetime, so a client that
//! reconnects and retries eventually gets a clean channel.

use crate::rng::SplitMix64;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// A seeded schedule of network faults.
///
/// All probabilities and offsets are drawn from [`SplitMix64`] substreams
/// keyed by `(seed, connection index, direction)`, so the n-th accepted
/// connection always receives the same fate for a given seed.
#[derive(Debug, Clone)]
pub struct ProxyPlan {
    /// Seed for every randomized decision.
    pub seed: u64,
    /// Per-connection probability of being scheduled for a kill.
    pub kill_chance: f64,
    /// Hard cap on kills across the proxy's lifetime; once reached, all
    /// further connections pass clean. This is what makes every seeded
    /// schedule survivable for a reconnecting client.
    pub max_kills: u32,
    /// Byte window within which a scheduled kill offset is drawn; small
    /// values tear early frames, large values tear mid-pipeline.
    pub kill_window: u64,
    /// Per-connection probability of carrying delay marks.
    pub delay_chance: f64,
    /// Stall applied at each delay mark.
    pub delay: Duration,
}

impl ProxyPlan {
    /// A plan that forwards everything untouched (wiring check).
    pub fn passthrough() -> Self {
        Self {
            seed: 0,
            kill_chance: 0.0,
            max_kills: 0,
            kill_window: 0,
            delay_chance: 0.0,
            delay: Duration::ZERO,
        }
    }

    /// The standard chaos profile used by the seeded e2e suite: frequent
    /// early-offset kills (capped) plus occasional short stalls.
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            kill_chance: 0.5,
            max_kills: 4,
            kill_window: 8 * 1024,
            delay_chance: 0.25,
            delay: Duration::from_millis(20),
        }
    }
}

/// Counters describing what the proxy actually did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProxyStats {
    /// Connections accepted and forwarded.
    pub connections: u64,
    /// Connections killed mid-stream.
    pub kills: u64,
    /// Delay marks honored.
    pub delays: u64,
    /// Bytes handed to the peer socket (both directions, after any
    /// truncation).
    pub bytes_forwarded: u64,
}

#[derive(Debug, Default)]
struct StatsInner {
    connections: AtomicU64,
    kills: AtomicU64,
    delays: AtomicU64,
    bytes_forwarded: AtomicU64,
}

/// Per-direction fate of one connection: forward clean, or forward a
/// prefix and then kill.
#[derive(Debug, Clone)]
struct DirectionSchedule {
    kill_after: Option<u64>,
    delay_marks: Vec<u64>,
}

fn connection_schedule(
    plan: &ProxyPlan,
    conn_index: u64,
    kills_used: &AtomicU32,
) -> [DirectionSchedule; 2] {
    let mut schedules = [
        DirectionSchedule {
            kill_after: None,
            delay_marks: Vec::new(),
        },
        DirectionSchedule {
            kill_after: None,
            delay_marks: Vec::new(),
        },
    ];
    // Substream 2k decides this connection's kill; 2k+1 its delays. The
    // kill cap is claimed up front so a capped plan stays survivable.
    let mut kill_rng = SplitMix64::substream(plan.seed, conn_index * 2);
    if plan.kill_chance > 0.0 && kill_rng.chance(plan.kill_chance) {
        let claimed = kills_used
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |used| {
                (used < plan.max_kills).then_some(used + 1)
            })
            .is_ok();
        if claimed {
            let direction = kill_rng.below(2) as usize;
            schedules[direction].kill_after = Some(kill_rng.below(plan.kill_window.max(1)));
        }
    }
    let mut delay_rng = SplitMix64::substream(plan.seed, conn_index * 2 + 1);
    if plan.delay_chance > 0.0 && delay_rng.chance(plan.delay_chance) {
        for schedule in &mut schedules {
            let marks = delay_rng.below(3);
            for _ in 0..marks {
                schedule
                    .delay_marks
                    .push(delay_rng.below(plan.kill_window.max(1024)));
            }
            schedule.delay_marks.sort_unstable();
        }
    }
    schedules
}

/// A running fault proxy; dropping it (or calling
/// [`FaultProxy::shutdown`]) stops the listener and tears down pumps.
#[derive(Debug)]
pub struct FaultProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    stats: Arc<StatsInner>,
    accept_thread: Option<thread::JoinHandle<()>>,
}

impl FaultProxy {
    /// Starts a proxy on an ephemeral localhost port, forwarding to
    /// `upstream` under `plan`.
    ///
    /// # Errors
    ///
    /// Propagates listener-bind failures.
    pub fn spawn(upstream: SocketAddr, plan: ProxyPlan) -> std::io::Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(StatsInner::default());
        let accept_thread = {
            let stop = Arc::clone(&stop);
            let stats = Arc::clone(&stats);
            thread::Builder::new()
                .name("faultline-proxy".into())
                .spawn(move || accept_loop(listener, upstream, plan, stop, stats))
                .expect("spawn proxy accept thread")
        };
        Ok(Self {
            addr,
            stop,
            stats,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A snapshot of what the proxy has done so far.
    pub fn stats(&self) -> ProxyStats {
        ProxyStats {
            connections: self.stats.connections.load(Ordering::Acquire),
            kills: self.stats.kills.load(Ordering::Acquire),
            delays: self.stats.delays.load(Ordering::Acquire),
            bytes_forwarded: self.stats.bytes_forwarded.load(Ordering::Acquire),
        }
    }

    /// Stops accepting and unwinds the accept thread. Pump threads for
    /// live connections notice within one read-timeout tick.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: TcpListener,
    upstream: SocketAddr,
    plan: ProxyPlan,
    stop: Arc<AtomicBool>,
    stats: Arc<StatsInner>,
) {
    let kills_used = Arc::new(AtomicU32::new(0));
    let mut conn_index = 0u64;
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((client, _)) => {
                stats.connections.fetch_add(1, Ordering::AcqRel);
                let Ok(server) = TcpStream::connect_timeout(&upstream, Duration::from_secs(5))
                else {
                    // Upstream gone: drop the client; it sees a reset.
                    continue;
                };
                let schedules = connection_schedule(&plan, conn_index, &kills_used);
                conn_index += 1;
                spawn_pumps(client, server, schedules, plan.delay, &stop, &stats);
            }
            Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
    }
}

fn spawn_pumps(
    client: TcpStream,
    server: TcpStream,
    schedules: [DirectionSchedule; 2],
    delay: Duration,
    stop: &Arc<AtomicBool>,
    stats: &Arc<StatsInner>,
) {
    let dead = Arc::new(AtomicBool::new(false));
    let [to_server, to_client] = schedules;
    let pairs = [
        (client.try_clone(), server.try_clone(), to_server),
        (server.try_clone(), client.try_clone(), to_client),
    ];
    for (from, to, schedule) in pairs {
        let (Ok(from), Ok(to)) = (from, to) else {
            return;
        };
        let stop = Arc::clone(stop);
        let dead = Arc::clone(&dead);
        let stats = Arc::clone(stats);
        thread::Builder::new()
            .name("faultline-pump".into())
            .spawn(move || pump(from, to, schedule, delay, stop, dead, stats))
            .expect("spawn proxy pump thread");
    }
}

/// Forwards `from` → `to` under one direction's schedule. On a kill, the
/// scheduled byte prefix is flushed through first — that is what makes a
/// kill double as a deterministic truncation — then both sockets go down.
fn pump(
    mut from: TcpStream,
    mut to: TcpStream,
    schedule: DirectionSchedule,
    delay: Duration,
    stop: Arc<AtomicBool>,
    dead: Arc<AtomicBool>,
    stats: Arc<StatsInner>,
) {
    let _ = from.set_read_timeout(Some(Duration::from_millis(25)));
    let mut forwarded = 0u64;
    let mut marks = schedule.delay_marks.into_iter().peekable();
    let mut buf = [0u8; 4096];
    loop {
        if stop.load(Ordering::Acquire) || dead.load(Ordering::Acquire) {
            kill_both(&from, &to);
            return;
        }
        let n = match from.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(err)
                if matches!(
                    err.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue;
            }
            Err(_) => break,
        };
        let end = forwarded + n as u64;
        while marks.peek().is_some_and(|&mark| mark < end) {
            marks.next();
            stats.delays.fetch_add(1, Ordering::AcqRel);
            thread::sleep(delay);
        }
        if let Some(kill_after) = schedule.kill_after {
            if end >= kill_after {
                let keep = (kill_after - forwarded) as usize;
                if keep > 0 {
                    // Counted before the write, so a reader that sees the
                    // bytes arrive also sees them counted.
                    stats
                        .bytes_forwarded
                        .fetch_add(keep as u64, Ordering::AcqRel);
                    let _ = to.write_all(&buf[..keep]);
                }
                stats.kills.fetch_add(1, Ordering::AcqRel);
                dead.store(true, Ordering::Release);
                kill_both(&from, &to);
                return;
            }
        }
        stats.bytes_forwarded.fetch_add(n as u64, Ordering::AcqRel);
        if to.write_all(&buf[..n]).is_err() {
            break;
        }
        forwarded = end;
    }
    // Clean EOF (or peer error): propagate the half-close downstream so
    // the other end observes an orderly shutdown, and let the opposite
    // pump keep draining until its own EOF.
    let _ = to.shutdown(Shutdown::Write);
}

fn kill_both(a: &TcpStream, b: &TcpStream) {
    let _ = a.shutdown(Shutdown::Both);
    let _ = b.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    /// A tiny upstream echo server: reads until EOF, echoing every chunk.
    fn echo_server() -> (SocketAddr, thread::JoinHandle<()>) {
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind echo");
        let addr = listener.local_addr().expect("echo addr");
        let handle = thread::spawn(move || {
            // One connection per test is enough.
            if let Ok((mut conn, _)) = listener.accept() {
                let mut buf = [0u8; 1024];
                loop {
                    match conn.read(&mut buf) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => {
                            if conn.write_all(&buf[..n]).is_err() {
                                break;
                            }
                        }
                    }
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn passthrough_forwards_bytes_unchanged() {
        let (upstream, echo) = echo_server();
        let mut proxy = FaultProxy::spawn(upstream, ProxyPlan::passthrough()).expect("proxy");
        let mut conn = TcpStream::connect(proxy.addr()).expect("connect");
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let payload = b"hello through the proxy";
        conn.write_all(payload).expect("write");
        let mut back = vec![0u8; payload.len()];
        conn.read_exact(&mut back).expect("read echo");
        assert_eq!(&back, payload);
        drop(conn);
        echo.join().expect("echo thread");
        let stats = proxy.stats();
        assert_eq!(stats.connections, 1);
        assert_eq!(stats.kills, 0);
        assert!(stats.bytes_forwarded >= 2 * payload.len() as u64);
        proxy.shutdown();
    }

    #[test]
    fn scheduled_kill_truncates_the_stream() {
        let (upstream, _echo) = echo_server();
        // kill_chance 1.0 with a tiny window kills connection 0 almost
        // immediately in whichever direction the seed picks.
        let plan = ProxyPlan {
            seed: 11,
            kill_chance: 1.0,
            max_kills: 1,
            kill_window: 8,
            delay_chance: 0.0,
            delay: Duration::ZERO,
        };
        let mut proxy = FaultProxy::spawn(upstream, plan).expect("proxy");
        let mut conn = TcpStream::connect(proxy.addr()).expect("connect");
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // Push enough bytes to cross any offset in the window; the
        // connection must die rather than echo everything back.
        let payload = vec![0xAB; 4096];
        let write_err = conn.write_all(&payload).and_then(|()| {
            conn.write_all(&payload)?;
            let mut back = vec![0u8; 2 * payload.len()];
            conn.read_exact(&mut back)
        });
        assert!(write_err.is_err(), "killed connection must not echo fully");
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while proxy.stats().kills == 0 && std::time::Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(proxy.stats().kills, 1);
        proxy.shutdown();
    }

    #[test]
    fn kill_cap_keeps_later_connections_clean() {
        let plan = ProxyPlan {
            seed: 3,
            kill_chance: 1.0,
            max_kills: 2,
            kill_window: 4,
            delay_chance: 0.0,
            delay: Duration::ZERO,
        };
        let kills_used = AtomicU32::new(0);
        let mut killed = 0;
        for conn_index in 0..10 {
            let schedules = connection_schedule(&plan, conn_index, &kills_used);
            if schedules.iter().any(|s| s.kill_after.is_some()) {
                killed += 1;
            }
        }
        assert_eq!(killed, 2, "cap must bound scheduled kills");
    }

    #[test]
    fn schedules_replay_from_seed() {
        let plan = ProxyPlan::seeded(42);
        let a: Vec<_> = (0..16)
            .map(|i| {
                let cap = AtomicU32::new(0);
                let [s0, s1] = connection_schedule(&plan, i, &cap);
                (s0.kill_after, s0.delay_marks, s1.kill_after, s1.delay_marks)
            })
            .collect();
        let b: Vec<_> = (0..16)
            .map(|i| {
                let cap = AtomicU32::new(0);
                let [s0, s1] = connection_schedule(&plan, i, &cap);
                (s0.kill_after, s0.delay_marks, s1.kill_after, s1.delay_marks)
            })
            .collect();
        assert_eq!(a, b);
    }
}

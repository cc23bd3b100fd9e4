//! The readiness-loop I/O core: one reactor thread owns every
//! connection on nonblocking sockets and hands each decoded frame one hop
//! on — to the engine's shards, or to the control thread.
//!
//! ```text
//!                    ┌───────────────────────────────────┐
//!   accept ──────────▶              reactor              │
//!   conn 0 ──▶ inbuf ─▶ frame state machine ─┐           │ Query/QueryBatch
//!   conn 1 ──▶ inbuf ─▶ frame state machine ─┼─ dispatch ─┼──▶ engine shards
//!   conn N ──▶ inbuf ─▶ frame state machine ─┘ (admission)│──▶ control thread
//!          ◀── outbuf ◀── completions ◀── wake pipe ◀─────┼─── encoded replies
//!                    └───────────────────────────────────┘
//! ```
//!
//! The reactor never blocks on a peer: reads accumulate into a
//! per-connection buffer that a frame-reassembly state machine consumes
//! (incremental header, then payload), and writes drain a per-connection
//! outbound queue with partial-write resumption. Parsed frames are
//! dispatched **one per connection at a time**, which preserves the
//! protocol's ordering contract: responses on a connection come back in
//! the order its requests arrived. A frame the reactor answers itself
//! (`Shutdown`, `Busy`, a routing miss, a decode error) goes straight to
//! the outbound queue; a frame handed on comes back as an encoded reply
//! on a completion queue, with a wake-pipe nudge so response latency is
//! not quantized by the poll tick.
//!
//! Deadlines — idle eviction, the slow-loris frame deadline, write
//! stalls, the error-path read-drain, and the shutdown drain grace — all
//! live on one hashed timer wheel: each connection keeps a generation
//! counter so a superseded deadline is cancelled lazily when its stale
//! wheel entry pops.

use crate::codec::Response;
use crate::error::WireError;
use crate::frame::{Frame, FrameHeader, Opcode, HEADER_LEN, MAGIC};
use crate::poll::{self, PollFd, POLLIN, POLLOUT};
use crate::server::{ControlJob, Shared, WireConfig};
use napmon_obs::SpanKind;
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// The poll timeout: the latency bound on timer-wheel firings and
/// shutdown-flag observation, and the sleep between the owner-side
/// shutdown-flag checks of `WireServer::wait`. I/O readiness and
/// completed replies interrupt the poll, so this does not quantize
/// request latency.
pub(crate) const POLL_TICK: Duration = Duration::from_millis(5);

/// Per-connection outbound-queue high-water mark, in bytes: while a peer
/// has this much unflushed response data, the reactor stops reading new
/// frames from it (backpressure instead of unbounded buffering).
const WRITE_HIGH_WATER: usize = 1 << 20;

/// Accepts processed per tick, bounding how long one accept storm can
/// monopolize the loop.
const MAX_ACCEPTS_PER_TICK: usize = 1024;

/// Frames a connection may hold parsed-but-undispatched before the
/// reactor stops reading from it (per-peer pipelining bound; the
/// byte-level bound is [`WRITE_HIGH_WATER`]).
const PENDING_CAP: usize = 128;

/// Read syscalls per connection per tick — a firehose peer yields the
/// loop to its neighbors and picks up next tick (the readiness report is
/// level-triggered, so nothing is lost).
const MAX_READS_PER_TICK: usize = 8;

/// How long the error path keeps a half-closed connection open to drain
/// the peer's already-sent bytes, so the typed error frame survives
/// instead of being torn down by a reset.
const ERROR_DRAIN_LINGER: Duration = Duration::from_secs(1);

/// Everything a reply needs to find its way back: the connection, the
/// request it answers, and the request's trace and timing context. Small
/// and `Copy`, so a shard's reply closure carries it for free.
#[derive(Clone, Copy)]
pub(crate) struct Tag {
    pub(crate) conn: u64,
    pub(crate) request_id: u64,
    /// Request opcode, for the per-opcode slow-log naming.
    pub(crate) opcode: Opcode,
    /// The request's trace id (0: untraced), echoed on the reply.
    pub(crate) trace_id: u64,
    /// Obs clock at header completion — the start of the end-to-end
    /// latency measurement.
    pub(crate) decode_started: u64,
    /// The request holds an in-flight budget slot until its reply is
    /// queued.
    pub(crate) admitted: bool,
}

impl Tag {
    /// Encodes `response` as the reply to this tag's request.
    pub(crate) fn reply(self, response: Response) -> Completion {
        let respond_started = napmon_obs::now_ns();
        let opcode = response.opcode();
        let bytes = response
            .into_frame(self.request_id)
            .map(|f| f.traced((self.trace_id != 0).then_some(self.trace_id)))
            .and_then(|f| f.encode())
            .ok();
        Completion {
            tag: self,
            opcode,
            respond_started,
            bytes,
        }
    }
}

/// One encoded reply on its way to its connection's outbound queue.
pub(crate) struct Completion {
    tag: Tag,
    /// The reply's opcode (the respond span's detail).
    opcode: Opcode,
    respond_started: u64,
    /// `None` if the reply failed to encode: the connection then closes.
    bytes: Option<Vec<u8>>,
}

/// A frame parsed off a connection, waiting its turn: the frame to
/// dispatch, or the typed rejection of a frame that completed on the wire
/// but failed assembly (bad route or trace block). The stream stays
/// aligned either way, so a rejection rides the ordered reply pipeline
/// like any other reply.
struct Parsed {
    tag: Tag,
    frame: Result<Frame, Response>,
}

/// The shard and control-thread → reactor return path: a locked queue
/// plus a wake pipe so a reply interrupts the reactor's poll instead of
/// waiting out the tick. The queue owns both ends of the pipe, so a
/// reply posted after the reactor has exited is simply never read.
pub(crate) struct CompletionQueue {
    items: Mutex<Vec<Completion>>,
    wake: UnixStream,
    woken: UnixStream,
}

impl CompletionQueue {
    pub(crate) fn new() -> std::io::Result<Arc<Self>> {
        let (wake, woken) = UnixStream::pair()?;
        wake.set_nonblocking(true)?;
        woken.set_nonblocking(true)?;
        Ok(Arc::new(Self {
            items: Mutex::new(Vec::new()),
            wake,
            woken,
        }))
    }

    /// Queues a reply and wakes the reactor. Never blocks for long and
    /// never panics: it may run on a shard unwinding from a panic.
    pub(crate) fn post(&self, completion: Completion) {
        self.items
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(completion);
        // A full pipe means wake bytes are already pending — the reactor
        // will drain the queue on that wake; dropping this byte is fine.
        let _ = (&self.wake).write(&[1]);
    }

    fn drain_into(&self, out: &mut Vec<Completion>) {
        out.append(&mut self.items.lock().unwrap_or_else(PoisonError::into_inner));
    }
}

/// Timer wheel slot count. Power of two so the modulo is cheap; the
/// width of one lap is `slots × slot_width`, and deadlines beyond a lap
/// cascade by re-queueing when their slot comes around early.
const WHEEL_SLOTS: u64 = 64;

struct TimerEntry {
    deadline: Instant,
    conn: u64,
    gen: u64,
}

/// A hashed timer wheel: entries land in `deadline_tick % WHEEL_SLOTS`,
/// and advancing the cursor drains passed slots — popping entries whose
/// deadline arrived and re-queueing the future laps. Cancellation is
/// lazy: the connection's generation counter invalidates stale entries.
struct TimerWheel {
    slots: Vec<Vec<TimerEntry>>,
    slot_width: Duration,
    epoch: Instant,
    cursor_tick: u64,
}

impl TimerWheel {
    fn new(slot_width: Duration, now: Instant) -> Self {
        Self {
            slots: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            slot_width: slot_width.max(Duration::from_millis(1)),
            epoch: now,
            cursor_tick: 0,
        }
    }

    fn tick_of(&self, t: Instant) -> u64 {
        (t.saturating_duration_since(self.epoch).as_nanos() / self.slot_width.as_nanos().max(1))
            as u64
    }

    fn schedule(&mut self, deadline: Instant, conn: u64, gen: u64) {
        // Never into the cursor's own slot: an already-due deadline pops
        // on the next advance instead of waiting a whole lap.
        let tick = self.tick_of(deadline).max(self.cursor_tick + 1);
        let slot = (tick % WHEEL_SLOTS) as usize;
        self.slots[slot].push(TimerEntry {
            deadline,
            conn,
            gen,
        });
    }

    /// Advances to `now`, pushing `(conn, gen)` for every entry whose
    /// deadline has passed.
    fn advance(&mut self, now: Instant, expired: &mut Vec<(u64, u64)>) {
        let target = self.tick_of(now);
        if target <= self.cursor_tick {
            return;
        }
        // A jump past a full lap visits every slot exactly once.
        let steps = (target - self.cursor_tick).min(WHEEL_SLOTS);
        let mut requeue = Vec::new();
        for step in 1..=steps {
            let slot = ((self.cursor_tick + step) % WHEEL_SLOTS) as usize;
            for entry in self.slots[slot].drain(..) {
                if entry.deadline <= now {
                    expired.push((entry.conn, entry.gen));
                } else {
                    requeue.push(entry);
                }
            }
        }
        self.cursor_tick = target;
        for entry in requeue {
            self.schedule(entry.deadline, entry.conn, entry.gen);
        }
    }
}

/// Connection lifecycle. `Serving` runs the frame state machine;
/// `Closing` has its final bytes queued (typed error, eviction notice,
/// refusal, or a post-`Shutdown` reply) and half-closes once they flush.
enum ConnState {
    Serving,
    /// `drain_reads` keeps the socket open after the half-close,
    /// discarding the peer's in-flight bytes until EOF or the linger
    /// deadline — closing with unread bytes would reset the connection
    /// and could destroy the error frame before the peer reads it.
    Closing {
        drain_reads: bool,
    },
}

/// Why a connection is being evicted; selects the counter and the typed
/// message (both part of the degradation contract).
pub(crate) enum EvictKind {
    Idle,
    Stalled,
}

struct Conn {
    stream: TcpStream,
    state: ConnState,
    /// Inbound accumulation: bytes in, frames out.
    inbuf: Vec<u8>,
    /// Header already validated for the frame being accumulated.
    header: Option<FrameHeader>,
    /// Obs clock when `header` completed.
    decode_started: u64,
    /// Outbound queue with partial-write resumption (`outpos` is the
    /// flushed prefix).
    outbuf: Vec<u8>,
    outpos: usize,
    /// A frame of this connection is at a shard or the control thread.
    inflight: bool,
    /// Parsed frames waiting for the in-flight frame's reply.
    pending: VecDeque<Parsed>,
    /// Peer half-closed its write side.
    read_closed: bool,
    /// We half-closed our write side.
    half_closed: bool,
    /// An unframed-stream error waiting for the response pipeline to
    /// drain before it is emitted (ordering: replies first, then the
    /// error, then the close).
    poisoned: Option<Vec<u8>>,
    last_read: Instant,
    last_write: Instant,
    last_activity: Instant,
    drain_deadline: Option<Instant>,
    close_deadline: Option<Instant>,
    /// Timer generation; stale wheel entries carry an older value.
    gen: u64,
}

impl Conn {
    fn new(stream: TcpStream, state: ConnState, now: Instant) -> Self {
        Self {
            stream,
            state,
            inbuf: Vec::new(),
            header: None,
            decode_started: 0,
            outbuf: Vec::new(),
            outpos: 0,
            inflight: false,
            pending: VecDeque::new(),
            read_closed: false,
            half_closed: false,
            poisoned: None,
            last_read: now,
            last_write: now,
            last_activity: now,
            drain_deadline: None,
            close_deadline: None,
            gen: 0,
        }
    }

    fn unflushed(&self) -> usize {
        self.outbuf.len() - self.outpos
    }

    /// A frame has started but not finished on the inbound side.
    fn mid_frame(&self) -> bool {
        self.header.is_some() || !self.inbuf.is_empty()
    }

    /// Nothing started, nothing owed: the state idle eviction and the
    /// drain guarantee are defined over.
    fn quiescent(&self) -> bool {
        !self.mid_frame()
            && !self.inflight
            && self.pending.is_empty()
            && self.outbuf.is_empty()
            && self.poisoned.is_none()
    }

    /// Backpressure gate: stop reading while the peer owes us drains.
    fn paused(&self) -> bool {
        self.pending.len() >= PENDING_CAP || self.unflushed() >= WRITE_HIGH_WATER
    }

    fn wants_read(&self) -> bool {
        match self.state {
            ConnState::Serving => !self.read_closed && self.poisoned.is_none() && !self.paused(),
            ConnState::Closing { drain_reads } => drain_reads,
        }
    }

    /// The earliest deadline the timer wheel must fire for, given the
    /// current state; `None` when only external events can matter.
    fn next_deadline(&self, config: &WireConfig, draining: bool) -> Option<Instant> {
        match self.state {
            ConnState::Closing { .. } => self.close_deadline,
            ConnState::Serving => {
                let mut next = self.drain_deadline;
                if !self.outbuf.is_empty() {
                    next = min_deadline(next, self.last_write.checked_add(config.frame_deadline));
                }
                if !draining {
                    if self.mid_frame() {
                        next =
                            min_deadline(next, self.last_read.checked_add(config.frame_deadline));
                    } else if self.quiescent() && !self.read_closed {
                        next =
                            min_deadline(next, self.last_activity.checked_add(config.idle_timeout));
                    }
                }
                next
            }
        }
    }
}

fn min_deadline(a: Option<Instant>, b: Option<Instant>) -> Option<Instant> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (x, None) | (None, x) => x,
    }
}

/// What one connection's I/O handler decided.
enum Io {
    Live,
    Close,
}

pub(crate) struct Reactor {
    listener: Option<TcpListener>,
    shared: Arc<Shared>,
    control: Sender<ControlJob>,
    completions: Arc<CompletionQueue>,
    conns: HashMap<u64, Conn>,
    next_id: u64,
    wheel: TimerWheel,
    drain_started: bool,
    /// Whether this tick moved any bytes or frames — feeds the adaptive
    /// backoff on platforms where readiness is speculative.
    progressed: bool,
}

impl Reactor {
    pub(crate) fn new(
        listener: TcpListener,
        shared: Arc<Shared>,
        control: Sender<ControlJob>,
        completions: Arc<CompletionQueue>,
    ) -> Self {
        let now = Instant::now();
        Self {
            listener: Some(listener),
            shared,
            control,
            completions,
            conns: HashMap::new(),
            next_id: 0,
            wheel: TimerWheel::new(POLL_TICK, now),
            drain_started: false,
            progressed: false,
        }
    }

    /// The event loop. Returns once a shutdown has been observed and
    /// every connection is gone; dropping `self` then hangs up the
    /// control channel, which is the control thread's exit signal.
    pub(crate) fn run(mut self) {
        let mut fds: Vec<PollFd> = Vec::new();
        let mut tokens: Vec<Token> = Vec::new();
        let mut scratch = vec![0u8; 64 * 1024];
        let mut completions: Vec<Completion> = Vec::new();
        let mut expired: Vec<(u64, u64)> = Vec::new();
        let mut backoff = Duration::from_micros(200);
        loop {
            if self.shared.shutting_down() && !self.drain_started {
                self.begin_drain();
            }
            if self.drain_started && self.conns.is_empty() {
                return;
            }

            fds.clear();
            tokens.clear();
            fds.push(PollFd::new(self.completions.woken.as_raw_fd(), POLLIN));
            tokens.push(Token::Wake);
            if let Some(listener) = &self.listener {
                fds.push(PollFd::new(listener.as_raw_fd(), POLLIN));
                tokens.push(Token::Listener);
            }
            for (&id, conn) in &self.conns {
                let mut events = 0;
                if conn.wants_read() {
                    events |= POLLIN;
                }
                if !conn.outbuf.is_empty() {
                    events |= POLLOUT;
                }
                fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
                tokens.push(Token::Conn(id));
            }

            // On Linux `poll` blocks until real readiness; elsewhere the
            // shim speculates, so the timeout doubles as backoff.
            let timeout = if cfg!(target_os = "linux") {
                POLL_TICK
            } else {
                backoff
            };
            self.progressed = false;
            let _ = poll::wait(&mut fds, timeout);
            let now = Instant::now();

            // Completions first: they free dispatch slots and queue
            // response bytes ahead of this tick's write pass.
            if fds[0].readable() {
                while let Ok(n) = (&self.completions.woken).read(&mut scratch) {
                    if n == 0 || n < scratch.len() {
                        break;
                    }
                }
            }
            self.completions.drain_into(&mut completions);
            for completion in completions.drain(..) {
                self.on_completion(completion, now);
            }

            for (i, fd) in fds.iter().enumerate() {
                match tokens[i] {
                    Token::Wake => {}
                    Token::Listener => {
                        if fd.readable() {
                            self.accept_ready(now);
                        }
                    }
                    Token::Conn(id) => {
                        if fd.readable() {
                            self.on_readable(id, now, &mut scratch);
                        }
                        if fd.writable() {
                            self.flush(id, now);
                        }
                    }
                }
            }

            self.wheel.advance(now, &mut expired);
            for (id, gen) in expired.drain(..) {
                if self.conns.get(&id).is_some_and(|c| c.gen == gen) {
                    self.check_deadlines(id, now);
                }
            }
            // During a drain the population only shrinks; a sweep per
            // tick guarantees the grace bound even if a wheel entry was
            // lost, so `drain()` can never hang on a forgotten timer.
            if self.drain_started {
                let ids: Vec<u64> = self.conns.keys().copied().collect();
                for id in ids {
                    self.check_deadlines(id, now);
                }
            }

            backoff = if self.progressed {
                Duration::from_micros(200)
            } else {
                (backoff * 2).min(POLL_TICK)
            };
        }
    }

    /// Shutdown observed: stop accepting and stamp every connection's
    /// drain grace. Idle connections close now (EOF is their typed
    /// signal); connections with work started get to finish it.
    fn begin_drain(&mut self) {
        self.drain_started = true;
        self.listener = None;
        let now = Instant::now();
        let grace = self.shared.config.drain_grace;
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            let Some(conn) = self.conns.get_mut(&id) else {
                continue;
            };
            conn.drain_deadline = now.checked_add(grace);
            if matches!(conn.state, ConnState::Serving) && conn.quiescent() {
                self.close(id);
            } else {
                self.rearm(id, now);
            }
        }
    }

    fn serving_count(&self) -> usize {
        self.conns
            .values()
            .filter(|c| matches!(c.state, ConnState::Serving))
            .count()
    }

    fn accept_ready(&mut self, now: Instant) {
        for _ in 0..MAX_ACCEPTS_PER_TICK {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _peer)) => {
                    self.progressed = true;
                    self.admit_or_refuse(stream, now);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                // A failed accept (fd pressure, transient network error)
                // affects that one attempt, not the server.
                Err(_) => return,
            }
        }
    }

    fn admit_or_refuse(&mut self, stream: TcpStream, now: Instant) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let id = self.next_id;
        self.next_id += 1;
        let serving = self.serving_count();
        let cap = self.shared.config.max_connections;
        if serving >= cap {
            // Refusal at accept time: one typed Busy frame through the
            // nonblocking write path, counted exactly once, then the
            // polite hangup (flush → half-close → read-drain).
            self.shared.degraded.refused_connections.inc();
            let refusal = Response::Busy {
                in_flight: serving.min(u32::MAX as usize) as u32,
                budget: cap.min(u32::MAX as usize) as u32,
            };
            let mut conn = Conn::new(stream, ConnState::Closing { drain_reads: true }, now);
            match refusal.into_frame(0).and_then(|f| f.encode()) {
                Ok(bytes) => conn.outbuf = bytes,
                Err(_) => return, // unencodable refusal: plain close
            }
            conn.close_deadline = now.checked_add(ERROR_DRAIN_LINGER);
            self.conns.insert(id, conn);
        } else {
            let mut conn = Conn::new(stream, ConnState::Serving, now);
            if self.drain_started {
                // Raced the shutdown flag through the accept queue.
                conn.drain_deadline = now.checked_add(self.shared.config.drain_grace);
            }
            self.conns.insert(id, conn);
        }
        self.flush(id, now);
    }

    fn on_readable(&mut self, id: u64, now: Instant, scratch: &mut [u8]) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let io = match conn.state {
            ConnState::Closing { drain_reads: true } => loop {
                match conn.stream.read(scratch) {
                    Ok(0) => break Io::Close,
                    Ok(_) => self.progressed = true, // discard: draining
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break Io::Live,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => break Io::Close,
                }
            },
            ConnState::Closing { drain_reads: false } => Io::Live,
            ConnState::Serving => {
                let mut reads = 0;
                loop {
                    if conn.read_closed
                        || conn.poisoned.is_some()
                        || conn.paused()
                        || reads >= MAX_READS_PER_TICK
                    {
                        break Io::Live;
                    }
                    match conn.stream.read(scratch) {
                        Ok(0) => {
                            conn.read_closed = true;
                            conn.last_activity = now;
                            break Io::Live;
                        }
                        Ok(n) => {
                            reads += 1;
                            self.progressed = true;
                            conn.inbuf.extend_from_slice(&scratch[..n]);
                            conn.last_read = now;
                            conn.last_activity = now;
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break Io::Live,
                        Err(e) if e.kind() == ErrorKind::Interrupted => {}
                        // The transport failed under us; there is no
                        // deliverable reply, so the close is silent.
                        Err(_) => break Io::Close,
                    }
                }
            }
        };
        match io {
            Io::Close => self.close(id),
            Io::Live => self.pump(id, now),
        }
    }

    /// Runs a connection's frame state machine to quiescence: parse
    /// whatever frames the inbound buffer holds, dispatch one job if the
    /// slot is free, flush the outbound queue, and settle the lifecycle.
    fn pump(&mut self, id: u64, now: Instant) {
        loop {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            if !matches!(conn.state, ConnState::Serving)
                || conn.poisoned.is_some()
                || conn.pending.len() >= PENDING_CAP
            {
                break;
            }
            if conn.header.is_none() {
                if conn.inbuf.len() < HEADER_LEN {
                    // EOF mid-header is a truncation the peer should
                    // hear about; mid-payload (below) has no readable
                    // peer state to correlate an answer to.
                    if conn.read_closed && !conn.inbuf.is_empty() {
                        self.poison(id, 0, &WireError::Truncated, now);
                    }
                    break;
                }
                let header: [u8; HEADER_LEN] =
                    conn.inbuf[..HEADER_LEN].try_into().expect("length checked");
                match Frame::decode_header(&header, self.shared.config.max_payload) {
                    Ok(parsed) => {
                        conn.header = Some(parsed);
                        conn.decode_started = napmon_obs::now_ns();
                    }
                    Err(e) => {
                        // The stream is unframed from here. The request
                        // id at its fixed offset still correlates the
                        // error — unless the magic itself is wrong, in
                        // which case the offset means nothing.
                        let raw_id = if header[0..4] == MAGIC {
                            u64::from_le_bytes(header[8..16].try_into().expect("fixed slice"))
                        } else {
                            0
                        };
                        // Frames parsed ahead of the bad header are
                        // still served below; the error follows them.
                        self.poison(id, raw_id, &e, now);
                        break;
                    }
                }
            }
            let header = conn.header.expect("just parsed");
            let total = HEADER_LEN + header.payload_len as usize;
            if conn.inbuf.len() < total {
                if conn.read_closed {
                    // Peer died mid-payload; nothing to answer.
                    self.close(id);
                    return;
                }
                break;
            }
            let payload = conn.inbuf[HEADER_LEN..total].to_vec();
            conn.inbuf.drain(..total);
            conn.header = None;
            let mut tag = Tag {
                conn: id,
                request_id: header.request_id,
                opcode: header.opcode,
                trace_id: 0,
                decode_started: conn.decode_started,
                admitted: false,
            };
            let frame = match Frame::assemble(header, payload) {
                Ok(frame) => {
                    // The request's trace id: carried by the client, or
                    // minted here when tracing is armed and the frame
                    // came untraced — the wire server is where ids are
                    // born.
                    tag.trace_id = match frame.trace_id {
                        Some(id) => id,
                        None if napmon_obs::tracing_enabled() => napmon_obs::mint_trace_id(),
                        None => 0,
                    };
                    if tag.trace_id != 0 && napmon_obs::tracing_enabled() {
                        napmon_obs::record_span(
                            tag.trace_id,
                            SpanKind::WireDecode,
                            conn.decode_started,
                            napmon_obs::now_ns().saturating_sub(conn.decode_started),
                            frame.opcode as u8 as u64,
                        );
                    }
                    Ok(frame)
                }
                // A frame whose trace/route block fails to decode is
                // still a *complete* frame — the stream stays aligned —
                // so the error is a typed response and the connection
                // lives on, ordered behind the replies it is owed.
                Err(e) => Err(Response::Error {
                    code: e.as_code(),
                    message: e.to_string(),
                }),
            };
            conn.pending.push_back(Parsed { tag, frame });
            conn.last_activity = now;
        }

        // Serve the head of the line while nothing is in flight: a frame
        // the reactor answers itself queues its reply at once, and a frame
        // handed on holds the line until its reply comes back.
        loop {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            if conn.inflight || !matches!(conn.state, ConnState::Serving) {
                break;
            }
            let Some(parsed) = conn.pending.pop_front() else {
                break;
            };
            conn.last_activity = now;
            self.progressed = true;
            let answer = match parsed.frame {
                Ok(frame) => {
                    self.shared
                        .dispatch(frame, parsed.tag, &self.completions, &self.control)
                }
                Err(rejection) => Some(rejection),
            };
            match answer {
                None => conn.inflight = true,
                Some(response) => {
                    let shutdown = matches!(response, Response::ShuttingDown);
                    self.respond(parsed.tag.reply(response), now);
                    if shutdown {
                        // Frames pipelined behind a `Shutdown` go unserved:
                        // flush the reply, then hang up.
                        self.shared.shutting_down.store(true, Ordering::Release);
                        self.hang_up(id, now);
                    }
                }
            }
        }
        self.flush(id, now);
    }

    /// Drains the outbound queue as far as the socket allows, then
    /// settles the connection's lifecycle and re-arms its timer.
    fn flush(&mut self, id: u64, now: Instant) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        while conn.outpos < conn.outbuf.len() {
            match conn.stream.write(&conn.outbuf[conn.outpos..]) {
                Ok(0) => {
                    self.close(id);
                    return;
                }
                Ok(n) => {
                    conn.outpos += n;
                    conn.last_write = now;
                    conn.last_activity = now;
                    self.progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                // A disconnected client: the work is done (the engine
                // served it); only the reply is lost.
                Err(_) => {
                    self.close(id);
                    return;
                }
            }
        }
        if conn.outpos == conn.outbuf.len() && !conn.outbuf.is_empty() {
            conn.outbuf.clear();
            conn.outpos = 0;
        }
        self.settle(id, now);
    }

    /// Lifecycle decisions after any I/O or completion: emit a deferred
    /// error once the pipeline drains, half-close flushed `Closing`
    /// connections, close what is finished, re-arm the timer.
    fn settle(&mut self, id: u64, now: Instant) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        // A poisoned stream waits for the replies it owes, then speaks
        // its typed error and starts the polite hangup.
        if conn.poisoned.is_some() && !conn.inflight && conn.pending.is_empty() {
            let bytes = conn.poisoned.take().expect("just checked");
            conn.outbuf.extend_from_slice(&bytes);
            conn.state = ConnState::Closing { drain_reads: true };
            conn.close_deadline = now.checked_add(ERROR_DRAIN_LINGER);
            conn.inbuf.clear();
            conn.header = None;
            self.flush(id, now);
            return;
        }
        let flushed = conn.outbuf.is_empty();
        match conn.state {
            ConnState::Closing { drain_reads } => {
                if flushed && !conn.half_closed {
                    conn.half_closed = true;
                    let _ = conn.stream.shutdown(Shutdown::Write);
                    if !drain_reads || conn.read_closed {
                        self.close(id);
                        return;
                    }
                }
            }
            ConnState::Serving => {
                // Peer hung up and nothing is owed in either direction.
                if conn.read_closed && flushed && !conn.inflight && conn.pending.is_empty() {
                    self.close(id);
                    return;
                }
                if self.drain_started && conn.quiescent() {
                    self.close(id);
                    return;
                }
            }
        }
        self.rearm(id, now);
    }

    fn on_completion(&mut self, completion: Completion, now: Instant) {
        let id = completion.tag.conn;
        if let Some(conn) = self.conns.get_mut(&id) {
            conn.inflight = false;
        }
        self.respond(completion, now);
        self.pump(id, now);
    }

    /// Queues one reply on its connection and accounts for it: the budget
    /// slot comes back, and the end-to-end latency, the respond span and
    /// the slow-log entry are recorded. A connection that died meanwhile
    /// just loses the reply; an unencodable reply hangs up.
    fn respond(&mut self, reply: Completion, now: Instant) {
        let tag = reply.tag;
        if tag.admitted {
            self.shared.release();
        }
        let Some(bytes) = reply.bytes else {
            self.hang_up(tag.conn, now);
            return;
        };
        let finished = napmon_obs::now_ns();
        let total_ns = finished.saturating_sub(tag.decode_started);
        self.shared.obs.request_ns.record(total_ns);
        if tag.trace_id != 0 && napmon_obs::tracing_enabled() {
            napmon_obs::record_span(
                tag.trace_id,
                SpanKind::WireRespond,
                reply.respond_started,
                finished.saturating_sub(reply.respond_started),
                reply.opcode as u8 as u64,
            );
        }
        // Untraced requests log under trace id 0 — the slow log works
        // with tracing off, it just cannot name the trace.
        self.shared
            .obs
            .slow
            .observe(tag.trace_id, tag.opcode.name(), total_ns);
        if let Some(conn) = self.conns.get_mut(&tag.conn) {
            self.progressed = true;
            conn.last_activity = now;
            conn.outbuf.extend_from_slice(&bytes);
        }
    }

    /// Stops serving a connection: whatever is queued flushes, then the
    /// connection closes; frames not yet served are dropped.
    fn hang_up(&mut self, id: u64, now: Instant) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        conn.state = ConnState::Closing { drain_reads: false };
        conn.close_deadline = now.checked_add(self.shared.config.frame_deadline);
        conn.pending.clear();
        conn.inbuf.clear();
        conn.header = None;
        conn.poisoned = None;
    }

    /// Marks the stream unframed: remembers the encoded typed error and
    /// stops parsing. [`Reactor::settle`] emits it once the replies
    /// already owed have gone out.
    fn poison(&mut self, id: u64, request_id: u64, e: &WireError, now: Instant) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let response = Response::Error {
            code: e.as_code(),
            message: e.to_string(),
        };
        match response.into_frame(request_id).and_then(|f| f.encode()) {
            Ok(bytes) => conn.poisoned = Some(bytes),
            Err(_) => {
                self.close(id);
                return;
            }
        }
        self.settle(id, now);
    }

    /// Evicts a connection that broke a liveness deadline: count it,
    /// tell the peer why with a typed `Evicted` error frame, and hang up
    /// once it flushes.
    fn evict(&mut self, id: u64, kind: &EvictKind, now: Instant) {
        let (counter, message) = match kind {
            EvictKind::Idle => (
                &self.shared.degraded.evicted_idle,
                "connection idle past the deadline; reconnect to continue",
            ),
            EvictKind::Stalled => (
                &self.shared.degraded.evicted_stalled,
                "frame stalled past the deadline; reconnect to continue",
            ),
        };
        counter.inc();
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        // A mid-payload stall has a validated header, so the eviction
        // correlates to the started request; mid-header or idle it
        // cannot.
        let request_id = conn.header.map_or(0, |h| h.request_id);
        let response = Response::Error {
            code: crate::ErrorCode::Evicted,
            message: message.to_string(),
        };
        match response.into_frame(request_id).and_then(|f| f.encode()) {
            Ok(bytes) => conn.outbuf.extend_from_slice(&bytes),
            Err(_) => {
                self.close(id);
                return;
            }
        }
        self.hang_up(id, now);
        self.flush(id, now);
    }

    /// Acts on whichever deadline actually expired (state may have moved
    /// since the wheel entry was armed), then re-arms.
    fn check_deadlines(&mut self, id: u64, now: Instant) {
        let config = self.shared.config;
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        match conn.state {
            ConnState::Closing { .. } => {
                if conn.close_deadline.is_some_and(|d| now >= d) {
                    self.close(id);
                } else {
                    self.rearm(id, now);
                }
            }
            ConnState::Serving => {
                if conn.drain_deadline.is_some_and(|d| now >= d) {
                    // Grace spent: close instead of serving new work.
                    // The peer reads EOF and gets a typed transport
                    // error client-side.
                    self.close(id);
                    return;
                }
                let write_stalled = !conn.outbuf.is_empty()
                    && conn
                        .last_write
                        .checked_add(config.frame_deadline)
                        .is_some_and(|d| now >= d);
                if write_stalled {
                    // The peer stopped draining its responses — that is
                    // an eviction, and it is accounted as one, but there
                    // is no point queueing a frame behind a write queue
                    // that is already stuck.
                    self.shared.degraded.evicted_stalled.inc();
                    self.close(id);
                    return;
                }
                if self.drain_started {
                    self.rearm(id, now);
                    return;
                }
                let read_stalled = conn.mid_frame()
                    && !conn.inflight
                    && conn.pending.is_empty()
                    && conn
                        .last_read
                        .checked_add(config.frame_deadline)
                        .is_some_and(|d| now >= d);
                if read_stalled {
                    self.evict(id, &EvictKind::Stalled, now);
                    return;
                }
                let idle = conn.quiescent()
                    && !conn.read_closed
                    && conn
                        .last_activity
                        .checked_add(config.idle_timeout)
                        .is_some_and(|d| now >= d);
                if idle {
                    self.evict(id, &EvictKind::Idle, now);
                    return;
                }
                self.rearm(id, now);
            }
        }
    }

    fn rearm(&mut self, id: u64, _now: Instant) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        conn.gen += 1;
        if let Some(deadline) = conn.next_deadline(&self.shared.config, self.drain_started) {
            self.wheel.schedule(deadline, id, conn.gen);
        }
    }

    fn close(&mut self, id: u64) {
        self.conns.remove(&id);
    }
}

enum Token {
    Wake,
    Listener,
    Conn(u64),
}

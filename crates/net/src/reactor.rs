//! The event-driven serving core: reactor threads multiplexing every
//! connection through an O(ready) readiness backend.
//!
//! A fixed set of **reactor** threads — one by default — serves every
//! accepted socket from readiness notifications, so server threads stay
//! O(shards + reactors) however many clients connect:
//!
//! * all sockets are **non-blocking**; a reactor never parks inside a
//!   read, write, accept or fleet submission — the only place it blocks
//!   is one readiness wait over the fds it owns, so an idle server is
//!   exactly the reactor threads parked (plus the shard workers parked on
//!   their queues);
//! * readiness arrives through a swappable [`Backend`] seam: the default
//!   on Linux is **edge-triggered `epoll`** — every fd registered once,
//!   interest masks updated only when a connection's paused/write-pending
//!   state actually changes, events delivered as an O(ready) list — while
//!   **`poll(2)`** remains as the portable oracle and the `CC_REACTOR=poll`
//!   kill switch (it rebuilds its set per wait, which is exactly the O(n)
//!   wall the epoll backend removes);
//! * between waits the loop touches only the **attention set** — the
//!   connections with cached readiness, parked submissions or armed
//!   deadline clocks — never the whole table, so thousands of idle
//!   sockets cost nothing per iteration;
//! * each connection is a pair of **state machines**: the read side
//!   accumulates partial frames in a reusable [`FrameDecoder`] buffer,
//!   the write side drains a queue of [`OutFrame`]s with one
//!   `write_vectored` per flush (pipelined replies coalesce into a single
//!   syscall) that resumes mid-frame after `WouldBlock`, recycling
//!   flushed frame buffers through a per-connection pool;
//! * fleet replies arrive on **one shared [`TaggedReply`] channel per
//!   reactor** (the `submit_tagged` fan-in), announced by a
//!   [`ReplyWaker`] that writes a byte to a self-pipe whose read end sits
//!   in the readiness set — an mpsc channel is invisible to the kernel,
//!   the pipe is its doorbell. An [`AtomicBool`] coalesces rings so the
//!   pipe holds at most one unread byte no matter how many shards
//!   complete at once;
//! * with `reactor_threads > 1`, reactor 0 owns the listener and deals
//!   each accepted socket to the **least-loaded reactor** over an inject
//!   channel plus doorbell ring; every reactor owns its fd set, backend
//!   instance and doorbell outright — no lock is ever shared between
//!   event loops;
//! * **backpressure is read-pausing**: a connection past its in-flight
//!   cap, or whose submission bounced off a full shard queue (the request
//!   is *parked*, not dropped), simply loses read interest — TCP flow
//!   control pushes back on the client, and no reactor state grows;
//! * **slow peers are evicted on deadlines**: a partial frame that stops
//!   completing (a byte-dribbling slow loris) or a reply that stops
//!   flushing (a client that never reads) trips the idle/write timeout
//!   and the connection is torn down without ever stalling its
//!   neighbours.
//!
//! The `poll(2)`/`epoll` bindings are the crate's single `unsafe` island:
//! `repr(C)` structs and the foreign calls, all confined to [`sys`].

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{ErrorKind, IoSlice, PipeReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cc_core::obs::{self, Registry};
use cc_server::{ReplyWaker, Request, ServerError, ServiceHandle, TaggedReply};

use crate::codec::{self, Frame};
use crate::error::WireError;
use crate::frame::{self, FrameDecoder};
use crate::server::{ReactorBackend, Telemetry, MAX_CONN_INFLIGHT};

/// The `poll(2)` and `epoll` bindings — the one `unsafe` corner of the
/// crate, kept to `repr(C)` structs and the foreign calls.
#[allow(unsafe_code)]
mod sys {
    use std::ffi::{c_int, c_ulong};
    use std::io;
    use std::time::Duration;

    /// `struct pollfd`, bit-for-bit.
    #[repr(C)]
    #[derive(Clone, Copy, Debug)]
    pub(super) struct PollFd {
        pub fd: c_int,
        pub events: i16,
        pub revents: i16,
    }

    pub(super) const POLLIN: i16 = 0x001;
    pub(super) const POLLOUT: i16 = 0x004;
    pub(super) const POLLERR: i16 = 0x008;
    pub(super) const POLLHUP: i16 = 0x010;
    pub(super) const POLLNVAL: i16 = 0x020;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
        fn setsockopt(
            fd: c_int,
            level: c_int,
            optname: c_int,
            optval: *const core::ffi::c_void,
            optlen: u32,
        ) -> c_int;
    }

    #[cfg(target_os = "linux")]
    const SOL_SOCKET: c_int = 1;
    #[cfg(not(target_os = "linux"))]
    const SOL_SOCKET: c_int = 0xffff;
    #[cfg(target_os = "linux")]
    const SO_SNDBUF: c_int = 7;
    #[cfg(not(target_os = "linux"))]
    const SO_SNDBUF: c_int = 0x1001;

    /// Caps a socket's kernel send buffer (`SO_SNDBUF`), switching off
    /// autotuning for it. The kernel rounds and clamps as it pleases.
    pub(super) fn set_send_buffer(fd: c_int, bytes: u32) -> io::Result<()> {
        let val: c_int = c_int::try_from(bytes).unwrap_or(c_int::MAX);
        // SAFETY: plain setsockopt with a c_int-sized option value whose
        // pointer and length describe a live stack local.
        let rc = unsafe {
            setsockopt(
                fd,
                SOL_SOCKET,
                SO_SNDBUF,
                core::ptr::from_ref(&val).cast(),
                std::mem::size_of::<c_int>() as u32,
            )
        };
        if rc == 0 {
            Ok(())
        } else {
            Err(io::Error::last_os_error())
        }
    }

    /// Millisecond timeout in the convention `poll` and `epoll_wait`
    /// share: `-1` blocks indefinitely, and a sub-millisecond non-zero
    /// timeout rounds *up* so a near deadline cannot degenerate into a
    /// zero-timeout busy spin.
    fn timeout_ms(timeout: Option<Duration>) -> c_int {
        match timeout {
            None => -1,
            Some(d) => {
                let mut ms = d.as_millis();
                if ms == 0 && !d.is_zero() {
                    ms = 1;
                }
                c_int::try_from(ms).unwrap_or(c_int::MAX)
            }
        }
    }

    /// Blocks until some registered fd is ready or `timeout` elapses
    /// (`None` blocks indefinitely). Retries `EINTR` internally.
    pub(super) fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
        let timeout_ms = timeout_ms(timeout);
        loop {
            // SAFETY: `fds` is a valid exclusive slice of `PollFd`, which
            // is layout-identical to the kernel's `struct pollfd`; the
            // call writes only the `revents` fields within the slice.
            let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }

    pub(super) const EPOLLIN: u32 = 0x001;
    pub(super) const EPOLLOUT: u32 = 0x004;
    pub(super) const EPOLLERR: u32 = 0x008;
    pub(super) const EPOLLHUP: u32 = 0x010;
    /// Edge-triggered delivery: the kernel queues an event on a readiness
    /// *transition* and the consumer must drain to `WouldBlock` — which
    /// the reactor's cached-readiness flags do anyway.
    pub(super) const EPOLLET: u32 = 1 << 31;

    #[cfg(target_os = "linux")]
    pub(super) const EPOLL_CTL_ADD: c_int = 1;
    #[cfg(target_os = "linux")]
    pub(super) const EPOLL_CTL_DEL: c_int = 2;
    #[cfg(target_os = "linux")]
    pub(super) const EPOLL_CTL_MOD: c_int = 3;

    /// `struct epoll_event`, bit-for-bit. x86-64 is the one ABI where the
    /// kernel packs it (no padding between the 32-bit mask and 64-bit
    /// data); everywhere else natural alignment matches.
    #[cfg(target_arch = "x86_64")]
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    pub(super) struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    #[cfg(not(target_arch = "x86_64"))]
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub(super) struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    #[cfg(target_os = "linux")]
    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn close(fd: c_int) -> c_int;
    }

    #[cfg(target_os = "linux")]
    const EPOLL_CLOEXEC: c_int = 0o2000000;

    /// An owned epoll instance: created `CLOEXEC`, closed on drop.
    #[cfg(target_os = "linux")]
    pub(super) struct EpollFd(c_int);

    #[cfg(target_os = "linux")]
    impl EpollFd {
        pub(super) fn new() -> io::Result<Self> {
            // SAFETY: plain syscall taking only a flags word.
            let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(EpollFd(fd))
        }

        /// `epoll_ctl`: add, modify or delete one fd's persistent
        /// registration. `data` rides back verbatim in every event for
        /// the fd — the reactor stores its connection token there.
        pub(super) fn ctl(&self, op: c_int, fd: c_int, events: u32, data: u64) -> io::Result<()> {
            let mut ev = EpollEvent { events, data };
            // SAFETY: `ev` is a live stack local matching the kernel's
            // epoll_event layout; the kernel copies it out during the call.
            let rc = unsafe { epoll_ctl(self.0, op, fd, &mut ev) };
            if rc == 0 {
                Ok(())
            } else {
                Err(io::Error::last_os_error())
            }
        }

        /// Blocks until events arrive or `timeout` elapses, filling `buf`
        /// with at most `buf.len()` ready events — O(ready), however many
        /// fds are registered. Retries `EINTR` internally; same timeout
        /// convention as [`wait`].
        pub(super) fn wait(
            &self,
            buf: &mut [EpollEvent],
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            let timeout_ms = timeout_ms(timeout);
            let cap = c_int::try_from(buf.len()).unwrap_or(c_int::MAX);
            loop {
                // SAFETY: `buf` is a valid exclusive slice; the kernel
                // writes at most `cap` events into it.
                let rc = unsafe { epoll_wait(self.0, buf.as_mut_ptr(), cap, timeout_ms) };
                if rc >= 0 {
                    return Ok(rc as usize);
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            }
        }
    }

    #[cfg(target_os = "linux")]
    impl Drop for EpollFd {
        fn drop(&mut self) {
            // SAFETY: closing the fd this struct exclusively owns.
            unsafe {
                close(self.0);
            }
        }
    }
}

/// How long the reactor waits before re-attempting a parked (shard-queue
/// rejected) submission. Short enough that freed queue slots are taken
/// promptly, long enough not to spin.
const PARK_RETRY_TICK: Duration = Duration::from_millis(10);

/// How long the listener sits with accept readiness ignored after an
/// accept error (fd exhaustion): readiness we cannot consume must not
/// busy-spin the loop.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

/// Per-connection cap on bytes read in one reactor iteration — fairness:
/// a firehose connection cannot monopolize the loop while others wait.
const READ_BUDGET: usize = 1 << 20;

/// Doorbell token in the readiness backend.
const TOKEN_WAKE: u64 = 0;
/// Listener token in the readiness backend (reactor 0 only).
const TOKEN_LISTENER: u64 = 1;
/// Connection ids map to tokens at this offset.
const TOKEN_CONN_BASE: u64 = 2;

/// Ready events fetched per `epoll_wait`. Undelivered events stay queued
/// in the kernel, so a small fixed buffer bounds memory without losing
/// anything.
const EPOLL_BATCH: usize = 256;

/// Most queued frames one `write_vectored` coalesces.
const WRITE_BATCH: usize = 64;

/// Flushed outbound frame buffers recycled per connection. Sixteen covers
/// a full pipelining burst without holding a slow connection's peak
/// allocation forever.
const FRAME_POOL_CAP: usize = 16;

/// One readiness report, backend-agnostic: which registration fired and
/// which directions are now actionable.
#[derive(Clone, Copy, Debug)]
struct Event {
    token: u64,
    readable: bool,
    writable: bool,
    /// Error or hangup: the peer is gone or the fd is broken. Both state
    /// machines are allowed to run (the error surfaces as a read/write
    /// failure) and the connection is torn down if neither can consume it.
    erred: bool,
}

/// The portable oracle: interest kept in a map, the `pollfd` array
/// rebuilt on every wait — O(n) per iteration by design, which is what
/// the epoll backend exists to beat. Retained as the correctness
/// baseline, the non-Linux fallback and the `CC_REACTOR=poll` kill
/// switch.
#[derive(Default)]
struct PollBackend {
    regs: HashMap<u64, (RawFd, bool, bool)>,
    pollfds: Vec<sys::PollFd>,
    tokens: Vec<u64>,
}

/// Edge-triggered `epoll`: every fd registered once with its token in
/// `epoll_event.data`, interest changed only via `EPOLL_CTL_MOD` when a
/// connection's paused/write-pending state flips, readiness fetched as
/// an O(ready) batch.
#[cfg(target_os = "linux")]
struct EpollBackend {
    ep: sys::EpollFd,
    buf: Vec<sys::EpollEvent>,
}

/// The readiness seam both event-loop backends sit behind. The reactor
/// calls `update` only when a connection's desired interest actually
/// changes, so the epoll backend performs zero syscalls for a connection
/// whose state is steady — and the poll backend simply mirrors the mask
/// into its map.
enum Backend {
    Poll(PollBackend),
    #[cfg(target_os = "linux")]
    Epoll(EpollBackend),
}

impl Backend {
    fn new(kind: ReactorBackend) -> std::io::Result<Backend> {
        match kind {
            #[cfg(target_os = "linux")]
            ReactorBackend::Epoll => Ok(Backend::Epoll(EpollBackend {
                ep: sys::EpollFd::new()?,
                buf: vec![sys::EpollEvent { events: 0, data: 0 }; EPOLL_BATCH],
            })),
            #[cfg(not(target_os = "linux"))]
            ReactorBackend::Epoll => Ok(Backend::Poll(PollBackend::default())),
            ReactorBackend::Poll => Ok(Backend::Poll(PollBackend::default())),
        }
    }

    #[cfg(target_os = "linux")]
    fn epoll_mask(read: bool, write: bool) -> u32 {
        let mut mask = sys::EPOLLET;
        if read {
            mask |= sys::EPOLLIN;
        }
        if write {
            mask |= sys::EPOLLOUT;
        }
        mask
    }

    /// Installs a new fd with its initial interest.
    fn register(&mut self, fd: RawFd, token: u64, read: bool, write: bool) -> std::io::Result<()> {
        match self {
            Backend::Poll(p) => {
                p.regs.insert(token, (fd, read, write));
                Ok(())
            }
            #[cfg(target_os = "linux")]
            Backend::Epoll(e) => {
                e.ep.ctl(sys::EPOLL_CTL_ADD, fd, Self::epoll_mask(read, write), token)
            }
        }
    }

    /// Changes an installed fd's interest. Call only on a real change —
    /// that is the contract that makes the epoll backend O(ready).
    fn update(&mut self, fd: RawFd, token: u64, read: bool, write: bool) -> std::io::Result<()> {
        match self {
            Backend::Poll(p) => {
                p.regs.insert(token, (fd, read, write));
                Ok(())
            }
            #[cfg(target_os = "linux")]
            Backend::Epoll(e) => {
                e.ep.ctl(sys::EPOLL_CTL_MOD, fd, Self::epoll_mask(read, write), token)
            }
        }
    }

    /// Removes an fd ahead of closing it.
    fn deregister(&mut self, fd: RawFd, token: u64) {
        match self {
            Backend::Poll(p) => {
                p.regs.remove(&token);
            }
            #[cfg(target_os = "linux")]
            Backend::Epoll(e) => {
                let _ = e.ep.ctl(sys::EPOLL_CTL_DEL, fd, 0, token);
            }
        }
    }

    /// Blocks for readiness, replacing `out` with the ready list.
    fn wait(&mut self, timeout: Option<Duration>, out: &mut Vec<Event>) -> std::io::Result<()> {
        out.clear();
        match self {
            Backend::Poll(p) => {
                p.pollfds.clear();
                p.tokens.clear();
                for (&token, &(fd, read, write)) in &p.regs {
                    let mut events = 0i16;
                    if read {
                        events |= sys::POLLIN;
                    }
                    if write {
                        events |= sys::POLLOUT;
                    }
                    p.pollfds.push(sys::PollFd {
                        fd,
                        events,
                        revents: 0,
                    });
                    p.tokens.push(token);
                }
                sys::wait(&mut p.pollfds, timeout)?;
                for (pfd, &token) in p.pollfds.iter().zip(&p.tokens) {
                    if pfd.revents == 0 {
                        continue;
                    }
                    out.push(Event {
                        token,
                        readable: pfd.revents & sys::POLLIN != 0,
                        writable: pfd.revents & sys::POLLOUT != 0,
                        erred: pfd.revents & (sys::POLLERR | sys::POLLHUP | sys::POLLNVAL) != 0,
                    });
                }
                Ok(())
            }
            #[cfg(target_os = "linux")]
            Backend::Epoll(e) => {
                let n = e.ep.wait(&mut e.buf, timeout)?;
                for ev in &e.buf[..n] {
                    // Copy out of the (possibly packed) FFI struct before
                    // taking references to the fields.
                    let (events, data) = (ev.events, ev.data);
                    out.push(Event {
                        token: data,
                        readable: events & sys::EPOLLIN != 0,
                        writable: events & sys::EPOLLOUT != 0,
                        erred: events & (sys::EPOLLERR | sys::EPOLLHUP) != 0,
                    });
                }
                Ok(())
            }
        }
    }
}

/// State shared between the reactor threads and the owning
/// [`NetServer`](crate::NetServer): the shutdown flag, the wire
/// telemetry, and the config the loops consult every iteration.
pub(crate) struct ReactorShared {
    pub(crate) closed: AtomicBool,
    pub(crate) telemetry: Telemetry,
    /// The fleet's metric registry — the source for inline
    /// `Frame::StatsRequest` answers.
    pub(crate) registry: Registry,
    pub(crate) max_frame_bytes: u64,
    pub(crate) write_timeout: Duration,
    pub(crate) idle_timeout: Duration,
    pub(crate) conn_send_buffer: Option<u32>,
}

/// Best-effort `SO_SNDBUF` cap on an accepted socket; refusal is not a
/// reason to drop the connection.
fn cap_send_buffer(stream: &TcpStream, bytes: Option<u32>) {
    if let Some(bytes) = bytes {
        let _ = sys::set_send_buffer(stream.as_raw_fd(), bytes);
    }
}

/// One queued outbound frame: prefix + payload contiguous, with a resume
/// offset for partial sends. `gated` marks reply frames that hold one of
/// the connection's [`MAX_CONN_INFLIGHT`] slots until fully flushed.
struct OutFrame {
    bytes: Vec<u8>,
    sent: usize,
    gated: bool,
    /// [`obs::now`] stamp from when the frame entered the write queue;
    /// recorded into `net.write_ns` when the last byte flushes. Taken for
    /// gated (data reply) frames only, so the histogram's count tracks
    /// served requests — notices and stats replies stay out of it.
    queued_at: Option<Instant>,
}

/// One connection's full state: both state machines plus the accounting
/// that drives readiness interest and teardown deadlines.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    out: VecDeque<OutFrame>,
    /// A request the fleet rejected with `Overloaded`, held for retry;
    /// while parked the connection does not read (backpressure).
    parked: Option<(u64, Request)>,
    /// Requests submitted to the fleet whose replies have not come back.
    in_fleet: usize,
    /// Requests submitted whose replies have not *fully flushed*; at
    /// [`MAX_CONN_INFLIGHT`] the connection stops reading.
    gate: usize,
    /// No more bytes will be read: client EOF, read error, protocol
    /// error, or server drain.
    eof: bool,
    /// Torn down (write failure, backend error, deadline); removed at the
    /// next attention pass, dropping anything still queued.
    dead: bool,
    /// Since when a partial frame has been pending while we were willing
    /// to read — the slow-loris clock. Armed when a partial appears, *not*
    /// refreshed by dribbled bytes, cleared by every completed frame.
    partial_since: Option<Instant>,
    /// Since when the write queue has been non-empty without a completed
    /// frame flush — the never-reads clock.
    out_since: Option<Instant>,
    /// Cached read readiness. Under edge-triggered epoll an event is the
    /// only notification we get, so readiness must be remembered across
    /// iterations (a read budget breakout, a backpressure pause) and
    /// cleared only by `WouldBlock`.
    read_ready: bool,
    /// Cached write readiness; cleared by `WouldBlock`, restored by a
    /// writable event or a full drain.
    write_ready: bool,
    /// An error/hangup event was seen; sticky. If neither state machine
    /// can consume it (paused read, empty write queue), teardown.
    hangup: bool,
    /// Last interest mask installed in the backend: `(read, write)`. The
    /// loop issues `Backend::update` only when the desired mask differs.
    interest: (bool, bool),
    /// Flushed outbound frame buffers, recycled through
    /// [`frame::frame_into`] — after one warm-up burst the reply path
    /// allocates nothing.
    pool: Vec<Vec<u8>>,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            decoder: FrameDecoder::new(),
            out: VecDeque::new(),
            parked: None,
            in_fleet: 0,
            gate: 0,
            eof: false,
            dead: false,
            partial_since: None,
            out_since: None,
            read_ready: false,
            write_ready: true,
            hangup: false,
            interest: (true, false),
            pool: Vec::new(),
        }
    }

    /// Whether the reactor wants read readiness for this connection —
    /// false exactly when backpressure applies (parked submission or
    /// in-flight cap) or no more input can come.
    fn wants_read(&self) -> bool {
        !self.eof && self.parked.is_none() && self.gate < MAX_CONN_INFLIGHT
    }

    /// Fully served: nothing left to read, retry, answer or flush.
    fn done(&self) -> bool {
        self.eof && self.parked.is_none() && self.in_fleet == 0 && self.out.is_empty()
    }

    /// Re-derives the slow-loris clock. Keeps an armed clock armed (byte
    /// dribbles do not refresh it); [`Ctx::parse`] clears it whenever a
    /// frame completes, so only a *stuck* partial accumulates time.
    fn update_partial(&mut self, now: Instant) {
        let pending = self.wants_read() && self.decoder.has_partial_frame();
        self.partial_since = match (pending, self.partial_since) {
            (false, _) => None,
            (true, None) => Some(now),
            (true, since) => since,
        };
    }

    /// Server drain: stop reading, discard any undelivered input (the
    /// read-side half-close discards whatever is still in the kernel), keep
    /// everything owed flowing out.
    fn begin_drain(&mut self) {
        self.eof = true;
        self.read_ready = false;
        self.decoder.clear();
        self.partial_since = None;
        let _ = self.stream.shutdown(Shutdown::Read);
    }

    /// Queues one outbound frame — built into a recycled buffer — and
    /// flushes eagerly when the socket last looked writable: in the
    /// common case the frame leaves in this call and the queue never
    /// grows.
    fn push_payload(&mut self, payload: &[u8], gated: bool, telemetry: &Telemetry, now: Instant) {
        if self.dead {
            return;
        }
        let mut bytes = self.pool.pop().unwrap_or_default();
        frame::frame_into(&mut bytes, payload);
        if self.out.is_empty() {
            self.out_since = Some(now);
        }
        self.out.push_back(OutFrame {
            bytes,
            sent: 0,
            gated,
            queued_at: if gated { obs::now() } else { None },
        });
        if self.write_ready {
            self.flush(telemetry, now);
        }
    }

    /// The write state machine: drains the queue front-first with one
    /// `write_vectored` per pass — pipelined replies coalesce into a
    /// single syscall — resuming partial sends, until empty or
    /// `WouldBlock`. Frame completion is the unit of accounting:
    /// `frames_out`, gate slots, the never-reads clock and buffer
    /// recycling all advance only when a whole frame has left.
    fn flush(&mut self, telemetry: &Telemetry, now: Instant) {
        while !self.out.is_empty() {
            let written = {
                let mut iov: Vec<IoSlice<'_>> = Vec::with_capacity(self.out.len().min(WRITE_BATCH));
                let mut frames = self.out.iter();
                let front = frames.next().expect("queue is non-empty");
                iov.push(IoSlice::new(&front.bytes[front.sent..]));
                for frame in frames.take(WRITE_BATCH - 1) {
                    iov.push(IoSlice::new(&frame.bytes));
                }
                self.stream.write_vectored(&iov)
            };
            match written {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(mut wrote) => {
                    while wrote > 0 {
                        let front = self.out.front_mut().expect("written bytes imply a frame");
                        let remaining = front.bytes.len() - front.sent;
                        if wrote < remaining {
                            front.sent += wrote;
                            break;
                        }
                        wrote -= remaining;
                        let sent = self.out.pop_front().expect("front exists");
                        telemetry.frames_out.incr();
                        if sent.gated {
                            self.gate -= 1;
                            telemetry.write_ns.record_elapsed(sent.queued_at);
                        }
                        self.out_since = if self.out.is_empty() { None } else { Some(now) };
                        self.recycle(sent.bytes);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    self.write_ready = false;
                    return;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        self.write_ready = true;
    }

    /// Returns a flushed frame buffer to the connection's pool.
    fn recycle(&mut self, mut bytes: Vec<u8>) {
        if self.pool.len() < FRAME_POOL_CAP {
            bytes.clear();
            self.pool.push(bytes);
        }
    }
}

/// Everything the per-connection handlers need besides the connection
/// itself — split from the conn map so the borrow checker lets one
/// connection be serviced while the context stays mutable.
struct Ctx {
    handle: ServiceHandle,
    shared: Arc<ReactorShared>,
    reply_tx: Sender<TaggedReply>,
    reply_rx: Receiver<TaggedReply>,
    waker: ReplyWaker,
    wake_pending: Arc<AtomicBool>,
    /// Fleet tag → (connection, client-chosen wire id). The indirection
    /// exists because wire ids are client-chosen and collide across
    /// connections; fleet tags must not.
    tokens: HashMap<u64, (u64, u64)>,
    next_token: u64,
    /// Connections needing servicing this iteration: cached readiness,
    /// parked submissions, armed deadline clocks. Everything *not* in
    /// here costs zero per loop — the invariant that keeps thousands of
    /// idle connections free.
    attention: HashSet<u64>,
}

impl Ctx {
    /// The read state machine's pump: fill from the socket until it would
    /// block (or the fairness budget is spent), parsing as bytes land so
    /// backpressure pauses the fill mid-stream. `WouldBlock` — and only
    /// `WouldBlock` — clears the cached read readiness, which is what
    /// edge-triggered delivery requires.
    fn fill_and_parse(&mut self, conn_id: u64, conn: &mut Conn, now: Instant) {
        let mut budget = READ_BUDGET;
        while conn.wants_read() {
            match conn.decoder.fill_from(&mut conn.stream) {
                Ok(0) => {
                    conn.eof = true;
                    conn.read_ready = false;
                    break;
                }
                Ok(n) => {
                    self.parse(conn_id, conn, now);
                    budget = budget.saturating_sub(n);
                    if budget == 0 {
                        // Budget spent with the socket still readable:
                        // read_ready stays set, the attention set re-runs
                        // us next iteration.
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    conn.read_ready = false;
                    break;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    // Transport failure: no more input; what was already
                    // buffered mid-frame is garbage.
                    conn.eof = true;
                    conn.read_ready = false;
                    conn.decoder.clear();
                    break;
                }
            }
        }
        self.parse(conn_id, conn, now);
    }

    /// Slices and dispatches every complete buffered frame, stopping at
    /// backpressure (parked submission / in-flight cap) or the first
    /// protocol error.
    fn parse(&mut self, conn_id: u64, conn: &mut Conn, now: Instant) {
        let mut progressed = false;
        while !conn.dead && conn.parked.is_none() && conn.gate < MAX_CONN_INFLIGHT {
            match conn.decoder.next_frame(self.shared.max_frame_bytes) {
                Ok(None) => break,
                Ok(Some(range)) => {
                    progressed = true;
                    let decode_started = obs::now();
                    match codec::decode_frame(conn.decoder.payload(range.clone())) {
                        Ok(Frame::Request { id, request }) => {
                            self.shared
                                .telemetry
                                .decode_ns
                                .record_elapsed(decode_started);
                            self.shared.telemetry.frames_in.incr();
                            self.submit(conn_id, conn, id, request, now);
                        }
                        Ok(Frame::StatsRequest { id }) => {
                            // Answered inline from the registry — a stats
                            // probe never enters the fleet queues, takes no
                            // gate slot, and its reply stays out of
                            // `net.write_ns` (count parity with served data
                            // requests).
                            self.shared.telemetry.frames_in.incr();
                            let payload =
                                codec::encode_stats_reply(id, &self.shared.registry.snapshot());
                            conn.push_payload(&payload, false, &self.shared.telemetry, now);
                        }
                        Ok(
                            Frame::Reply { id, .. }
                            | Frame::ProtocolError { id, .. }
                            | Frame::StatsReply { id, .. },
                        ) => {
                            self.protocol_error(
                                conn,
                                id,
                                WireError::malformed("clients may send only request frames"),
                                now,
                            );
                            break;
                        }
                        Err(e) => {
                            // The header (and its request id) may have
                            // parsed even though the body did not.
                            let notice_id =
                                codec::peek_request_id(conn.decoder.payload(range)).unwrap_or(0);
                            self.protocol_error(conn, notice_id, e, now);
                            break;
                        }
                    }
                }
                Err(e) => {
                    // Oversized length prefix: protocol error, reported
                    // before any allocation happened.
                    self.protocol_error(conn, 0, e, now);
                    break;
                }
            }
        }
        if progressed {
            // A completed frame resets the slow-loris clock; update_partial
            // re-arms it only if a *new* partial is already pending.
            conn.partial_since = None;
        }
        if conn.eof && conn.parked.is_none() && conn.gate < MAX_CONN_INFLIGHT {
            // Everything decodable has been dispatched; a partial tail at
            // EOF is discarded, exactly like the blocking reader's
            // disconnected exit.
            conn.decoder.clear();
        }
        conn.update_partial(now);
    }

    /// Submits one decoded request into the fleet under a fresh token.
    /// `Overloaded` parks the request (read-pausing backpressure); other
    /// rejections are answered inline so a pipelining client is never
    /// left waiting.
    fn submit(
        &mut self,
        conn_id: u64,
        conn: &mut Conn,
        wire_id: u64,
        request: Request,
        now: Instant,
    ) {
        let token = self.next_token;
        match self
            .handle
            .try_submit_tagged_with_waker(token, request, &self.reply_tx, &self.waker)
        {
            Ok(()) => {
                self.next_token += 1;
                self.tokens.insert(token, (conn_id, wire_id));
                conn.in_fleet += 1;
                conn.gate += 1;
            }
            Err((ServerError::Overloaded, request)) => {
                conn.parked = Some((wire_id, request));
            }
            Err((e, _)) => {
                let payload = codec::encode_reply(wire_id, &Err(e));
                conn.push_payload(&payload, false, &self.shared.telemetry, now);
            }
        }
    }

    /// Reports undecodable input with a `PROTO_ERR` notice and closes the
    /// read side — after a framing error there is no resync point. The
    /// notice and every still-owed reply drain through the write queue.
    fn protocol_error(&mut self, conn: &mut Conn, notice_id: u64, error: WireError, now: Instant) {
        self.shared.telemetry.protocol_errors.incr();
        conn.eof = true;
        conn.read_ready = false;
        conn.decoder.clear();
        conn.partial_since = None;
        let _ = conn.stream.shutdown(Shutdown::Read);
        let payload = codec::encode_protocol_error(notice_id, &error);
        conn.push_payload(&payload, false, &self.shared.telemetry, now);
    }
}

/// Another reactor as seen by the accepting one: where to hand a fresh
/// socket, how to ring its doorbell, and how loaded it currently is.
struct Peer {
    inject: Sender<TcpStream>,
    waker: ReplyWaker,
    load: Arc<AtomicUsize>,
}

/// What must happen before the next blocking wait, accumulated over one
/// attention pass.
#[derive(Default)]
struct Wake {
    /// Earliest scheduled instant: a parked retry, a deadline, a backoff.
    deadline: Option<Instant>,
    /// Actionable readiness is still cached (read budget breakout, listener
    /// not yet drained): wait with a zero timeout, service, repeat.
    immediate: bool,
}

/// One reactor: its readiness backend, its connection table, its doorbell
/// and its slice of the accept load. Runs [`Reactor::run`] on its own
/// thread until drained.
struct Reactor {
    /// Reactor 0 owns the listener; the rest serve only injected sockets.
    listener: Option<TcpListener>,
    wake_rx: PipeReader,
    backend: Backend,
    conns: HashMap<u64, Conn>,
    next_conn: u64,
    accept_backoff: Option<Instant>,
    /// Cached listener readiness — edge-triggered delivery means an
    /// un-drained accept queue must be remembered, not re-reported.
    listener_ready: bool,
    events: Vec<Event>,
    /// Scratch for one drained attention set.
    scratch: Vec<u64>,
    /// Sockets handed over by the accepting reactor.
    inject_rx: Receiver<TcpStream>,
    /// The inject channel's senders are gone (drain has begun everywhere);
    /// no more sockets can arrive.
    inject_done: bool,
    /// All reactors (self included at index 0), held by the accepting
    /// reactor only; cleared at drain so the inject channels disconnect.
    peers: Vec<Peer>,
    /// This reactor's live-connection gauge, shared with the acceptor's
    /// `peers` entry for least-connections placement.
    load: Arc<AtomicUsize>,
    ctx: Ctx,
}

/// Keeps the earlier of an optional deadline and a new candidate.
fn earlier(best: Option<Instant>, candidate: Instant) -> Option<Instant> {
    match best {
        Some(b) if b <= candidate => Some(b),
        _ => Some(candidate),
    }
}

impl Reactor {
    /// The loop. One iteration: adopt handed-over sockets, service the
    /// attention set (cached readiness, parked retries, deadline clocks,
    /// interest-mask sync, teardown), park in the backend's wait, then
    /// apply the ready events — the reply doorbell, the listener and the
    /// flagged connections.
    fn run(mut self) {
        let shared = Arc::clone(&self.ctx.shared);
        let mut draining = false;
        // Armed after each readiness wait returns; the span recorded into
        // `net.reactor.loop_ns` is therefore exactly the non-blocked work
        // between two waits — never the parked time inside one.
        let mut iter_started: Option<Instant> = None;
        loop {
            if !draining && self.ctx.shared.closed.load(Ordering::Acquire) {
                draining = true;
                if let Some(listener) = self.listener.take() {
                    self.backend
                        .deregister(listener.as_raw_fd(), TOKEN_LISTENER);
                }
                self.listener_ready = false;
                // Dropping the peer senders disconnects every inject
                // channel: each reactor can then prove no more sockets
                // are coming and exit when its own table drains. The
                // doorbell ring must come strictly *after* the drop — a
                // peer that checked its channel between our drop and its
                // ring would otherwise see `Empty`, park unbounded, and
                // never learn the channel died (channel disconnection by
                // itself wakes nobody).
                for peer in self.peers.drain(..) {
                    drop(peer.inject);
                    (peer.waker)();
                }
                let Reactor { conns, ctx, .. } = &mut self;
                for (&id, conn) in conns.iter_mut() {
                    conn.begin_drain();
                    ctx.attention.insert(id);
                }
            }
            self.adopt_injected(draining);
            let now = Instant::now();
            let mut wake = Wake::default();
            self.process_attention(now, &mut wake);
            if draining && self.conns.is_empty() && self.inject_done {
                return;
            }
            if self.listener_ready {
                match self.accept_backoff {
                    Some(until) => wake.deadline = earlier(wake.deadline, until),
                    None => wake.immediate = true,
                }
            }
            if draining && !self.inject_done {
                // Safety net over the ring-after-drop handshake above:
                // while the inject channel could still disconnect, poll it
                // on a tick rather than trusting any single wakeup.
                wake.deadline = earlier(wake.deadline, now + PARK_RETRY_TICK);
            }
            let timeout = if wake.immediate {
                Some(Duration::ZERO)
            } else {
                wake.deadline.map(|t| t.saturating_duration_since(now))
            };
            shared
                .telemetry
                .reactor_loop_ns
                .record_elapsed(iter_started.take());
            match self.backend {
                Backend::Poll(_) => shared.telemetry.reactor_polls_poll.incr(),
                #[cfg(target_os = "linux")]
                Backend::Epoll(_) => shared.telemetry.reactor_polls_epoll.incr(),
            }
            if self.backend.wait(timeout, &mut self.events).is_err() {
                // The wait itself failing (ENOMEM) is transient; yield
                // rather than spin.
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
            iter_started = obs::now();
            shared.telemetry.reactor_wakeups.incr();
            shared
                .telemetry
                .reactor_ready_set
                .record(self.events.len() as u64);
            let now = Instant::now();
            self.apply_events();
            // Clear-then-drain: a reply landing after the drain below
            // finds the flag clear, rings a fresh byte, and the next wait
            // returns immediately — no lost wake-ups.
            self.ctx.wake_pending.store(false, Ordering::SeqCst);
            self.drain_replies(now);
            self.maybe_accept(now);
        }
    }

    /// Folds the backend's ready list into per-connection cached
    /// readiness and the attention set — O(ready), the whole point.
    fn apply_events(&mut self) {
        let events = std::mem::take(&mut self.events);
        for ev in &events {
            match ev.token {
                TOKEN_WAKE => {
                    let mut sink = [0u8; 64];
                    let _ = self.wake_rx.read(&mut sink);
                }
                TOKEN_LISTENER => self.listener_ready = true,
                token => {
                    let id = token - TOKEN_CONN_BASE;
                    if let Some(conn) = self.conns.get_mut(&id) {
                        if ev.readable {
                            conn.read_ready = true;
                        }
                        if ev.writable {
                            conn.write_ready = true;
                        }
                        if ev.erred {
                            // Let both state machines run: the failure
                            // surfaces as a read/write error, or as an
                            // unconsumable hangup at the attention pass.
                            conn.read_ready = true;
                            conn.write_ready = true;
                            conn.hangup = true;
                        }
                        self.ctx.attention.insert(id);
                    }
                }
            }
        }
        self.events = events;
    }

    /// Services every connection in the attention set: the read pump, the
    /// write drain, parked retries, freed-gate re-parsing, deadline
    /// clocks, teardown and interest-mask sync. Connections that remain
    /// interesting (armed clocks, leftover readiness) re-enter the set;
    /// everything else costs nothing until its next event.
    fn process_attention(&mut self, now: Instant, wake: &mut Wake) {
        let Reactor {
            conns,
            ctx,
            backend,
            load,
            scratch,
            ..
        } = self;
        let idle = ctx.shared.idle_timeout;
        let write = ctx.shared.write_timeout;
        scratch.clear();
        scratch.extend(ctx.attention.drain());
        for &id in scratch.iter() {
            let Some(conn) = conns.get_mut(&id) else {
                continue;
            };
            if !conn.dead {
                if conn.read_ready && conn.wants_read() {
                    ctx.fill_and_parse(id, conn, now);
                }
                if conn.write_ready && !conn.out.is_empty() && !conn.dead {
                    conn.flush(&ctx.shared.telemetry, now);
                }
                if !conn.dead {
                    if let Some((wire_id, request)) = conn.parked.take() {
                        // The advisory capacity check skips futile tries; a
                        // lost race against another handle simply re-parks.
                        if ctx.handle.has_capacity_for(request.n()) {
                            ctx.submit(id, conn, wire_id, request, now);
                        } else {
                            conn.parked = Some((wire_id, request));
                        }
                    }
                }
                if !conn.dead && conn.wants_read() && conn.decoder.buffered() > 0 {
                    // Parse input unblocked by freed gate slots or
                    // un-parking.
                    ctx.parse(id, conn, now);
                }
                conn.update_partial(now);
                let read_stalled = conn
                    .partial_since
                    .is_some_and(|t| now.duration_since(t) >= idle);
                let write_stalled = conn
                    .out_since
                    .is_some_and(|t| now.duration_since(t) >= write);
                if !conn.dead && (read_stalled || write_stalled) {
                    conn.dead = true;
                    ctx.shared.telemetry.idle_teardowns.incr();
                }
                if !conn.dead
                    && conn.hangup
                    && !conn.wants_read()
                    && conn.out.is_empty()
                    && !conn.done()
                {
                    // An error on a fully paused connection: neither state
                    // machine can consume it. The peer is gone; tear down.
                    conn.dead = true;
                }
            }
            if conn.dead || conn.done() {
                let conn = conns.remove(&id).expect("present: just serviced");
                backend.deregister(conn.stream.as_raw_fd(), id + TOKEN_CONN_BASE);
                load.fetch_sub(1, Ordering::Relaxed);
                if conn.dead {
                    let _ = conn.stream.shutdown(Shutdown::Both);
                }
                // A graceful close: everything owed was flushed; dropping
                // the stream sends FIN.
                continue;
            }
            let desired = (conn.wants_read(), !conn.out.is_empty());
            if desired != conn.interest {
                if desired.0 && !conn.interest.0 {
                    // Re-enabling read interest: bytes may have landed
                    // while we were paused without IN in the mask, so
                    // force one speculative read rather than rely on the
                    // backend re-reporting.
                    conn.read_ready = true;
                }
                if backend
                    .update(
                        conn.stream.as_raw_fd(),
                        id + TOKEN_CONN_BASE,
                        desired.0,
                        desired.1,
                    )
                    .is_err()
                {
                    conn.dead = true;
                    ctx.attention.insert(id);
                    continue;
                }
                conn.interest = desired;
            }
            // Reschedule: anything still interesting re-enters the set.
            let mut keep = false;
            if conn.parked.is_some() {
                wake.deadline = earlier(wake.deadline, now + PARK_RETRY_TICK);
                keep = true;
            }
            if let Some(t) = conn.partial_since {
                wake.deadline = earlier(wake.deadline, t + idle);
                keep = true;
            }
            if let Some(t) = conn.out_since {
                wake.deadline = earlier(wake.deadline, t + write);
                keep = true;
            }
            if conn.read_ready && conn.wants_read() {
                wake.immediate = true;
                keep = true;
            }
            if keep {
                ctx.attention.insert(id);
            }
        }
    }

    /// Routes each completed reply to its connection's write queue via
    /// the token map. Tokens of connections torn down in the meantime
    /// resolve to nothing and the reply is dropped: its client is gone.
    fn drain_replies(&mut self, now: Instant) {
        let Reactor { conns, ctx, .. } = self;
        while let Ok(reply) = ctx.reply_rx.try_recv() {
            let Some((conn_id, wire_id)) = ctx.tokens.remove(&reply.id) else {
                continue;
            };
            let Some(conn) = conns.get_mut(&conn_id) else {
                continue;
            };
            conn.in_fleet -= 1;
            ctx.attention.insert(conn_id);
            if conn.dead {
                continue;
            }
            let payload = codec::encode_reply(wire_id, &reply.result.map_err(ServerError::Query));
            conn.push_payload(&payload, true, &ctx.shared.telemetry, now);
        }
    }

    /// Drains the inject channel: sockets the accepting reactor dealt to
    /// this one. Under drain a fresh socket is adopted straight into the
    /// draining state. A disconnected channel proves no more handoffs can
    /// ever arrive — one leg of the drain exit condition.
    fn adopt_injected(&mut self, draining: bool) {
        if self.inject_done {
            return;
        }
        loop {
            match self.inject_rx.try_recv() {
                Ok(stream) => {
                    // The acceptor already counted this handoff into our
                    // load gauge.
                    self.ctx.shared.telemetry.reactor_injected.incr();
                    self.ctx.shared.telemetry.reactor_inject_depth.add(-1);
                    let id = self.next_conn;
                    if self.insert_conn(stream) {
                        if draining {
                            if let Some(conn) = self.conns.get_mut(&id) {
                                conn.begin_drain();
                            }
                            self.ctx.attention.insert(id);
                        }
                    } else {
                        self.load.fetch_sub(1, Ordering::Relaxed);
                    }
                }
                Err(TryRecvError::Empty) => return,
                Err(TryRecvError::Disconnected) => {
                    self.inject_done = true;
                    return;
                }
            }
        }
    }

    /// Accepts until the listener would block, placing each socket on the
    /// least-loaded reactor. Accept errors (fd exhaustion) put the
    /// listener on a short backoff — with its read interest dropped, so
    /// the un-drained accept queue cannot busy-spin a level-triggered
    /// backend — instead of spinning.
    fn maybe_accept(&mut self, now: Instant) {
        if !self.listener_ready || self.listener.is_none() {
            return;
        }
        if let Some(until) = self.accept_backoff {
            if now < until {
                return;
            }
            self.accept_backoff = None;
            if let Some(listener) = &self.listener {
                let _ = self
                    .backend
                    .update(listener.as_raw_fd(), TOKEN_LISTENER, true, false);
            }
        }
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            let accepted = listener.accept();
            match accepted {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    // One frame per reply; Nagle would delay them.
                    let _ = stream.set_nodelay(true);
                    cap_send_buffer(&stream, self.ctx.shared.conn_send_buffer);
                    self.ctx.shared.telemetry.connections.incr();
                    self.place(stream);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    self.listener_ready = false;
                    return;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.accept_backoff = Some(now + ACCEPT_BACKOFF);
                    if let Some(listener) = &self.listener {
                        let _ =
                            self.backend
                                .update(listener.as_raw_fd(), TOKEN_LISTENER, false, false);
                    }
                    return;
                }
            }
        }
    }

    /// Deals one accepted socket to the least-loaded reactor — itself
    /// included. A handoff bumps the target's load gauge immediately (the
    /// owner decrements at removal) and rings its doorbell so the socket
    /// is adopted within one wait.
    fn place(&mut self, stream: TcpStream) {
        let target = if self.peers.len() > 1 {
            (0..self.peers.len())
                .min_by_key(|&i| self.peers[i].load.load(Ordering::Relaxed))
                .unwrap_or(0)
        } else {
            0
        };
        if target == 0 {
            if self.insert_conn(stream) {
                self.load.fetch_add(1, Ordering::Relaxed);
            }
        } else {
            let peer = &self.peers[target];
            peer.load.fetch_add(1, Ordering::Relaxed);
            if peer.inject.send(stream).is_ok() {
                self.ctx.shared.telemetry.reactor_inject_depth.add(1);
                (peer.waker)();
            } else {
                peer.load.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    /// Installs one socket into this reactor's table and backend. Failure
    /// (backend registration refused) drops the socket; the client sees a
    /// reset and the connection is never serviced.
    fn insert_conn(&mut self, stream: TcpStream) -> bool {
        let id = self.next_conn;
        let conn = Conn::new(stream);
        if self
            .backend
            .register(
                conn.stream.as_raw_fd(),
                id + TOKEN_CONN_BASE,
                conn.wants_read(),
                false,
            )
            .is_err()
        {
            return false;
        }
        self.next_conn += 1;
        self.conns.insert(id, conn);
        true
    }
}

/// Builds `reactors` event loops over `listener` — per-reactor doorbells,
/// reply channels and readiness backends, with reactor 0 owning the
/// listener and dealing accepted sockets least-connections across the
/// fleet — and spawns their threads. Returns the join handles and the
/// wakers — ringing every waker after setting `shared.closed` is how
/// shutdown gets the loops' attention.
pub(crate) fn spawn(
    listener: TcpListener,
    handle: ServiceHandle,
    shared: Arc<ReactorShared>,
    backend: ReactorBackend,
    reactors: usize,
) -> std::io::Result<(Vec<JoinHandle<()>>, Vec<ReplyWaker>)> {
    let reactors = reactors.max(1);
    struct Plumbing {
        wake_rx: PipeReader,
        wake_pending: Arc<AtomicBool>,
        waker: ReplyWaker,
        inject_rx: Receiver<TcpStream>,
        load: Arc<AtomicUsize>,
    }
    let mut slots = Vec::with_capacity(reactors);
    let mut peers = Vec::with_capacity(reactors);
    let mut wakers = Vec::with_capacity(reactors);
    for _ in 0..reactors {
        let (wake_rx, wake_tx) = std::io::pipe()?;
        let wake_pending = Arc::new(AtomicBool::new(false));
        let waker: ReplyWaker = {
            let pending = Arc::clone(&wake_pending);
            Arc::new(move || {
                // Coalesced doorbell: only the ring that flips the flag
                // writes a byte, so the pipe can never fill no matter how
                // many shard workers complete at once.
                if !pending.swap(true, Ordering::SeqCst) {
                    let _ = (&wake_tx).write(&[1u8]);
                }
            })
        };
        let (inject_tx, inject_rx) = channel();
        let load = Arc::new(AtomicUsize::new(0));
        peers.push(Peer {
            inject: inject_tx,
            waker: Arc::clone(&waker),
            load: Arc::clone(&load),
        });
        wakers.push(Arc::clone(&waker));
        slots.push(Plumbing {
            wake_rx,
            wake_pending,
            waker,
            inject_rx,
            load,
        });
    }
    let mut threads: Vec<JoinHandle<()>> = Vec::with_capacity(reactors);
    let mut listener = Some(listener);
    let mut peers = Some(peers);
    let mut build = || -> std::io::Result<()> {
        for (i, slot) in slots.drain(..).enumerate() {
            let mut be = Backend::new(backend)?;
            be.register(slot.wake_rx.as_raw_fd(), TOKEN_WAKE, true, false)?;
            let own_listener = if i == 0 { listener.take() } else { None };
            if let Some(l) = &own_listener {
                be.register(l.as_raw_fd(), TOKEN_LISTENER, true, false)?;
            }
            let (reply_tx, reply_rx) = channel();
            let reactor = Reactor {
                listener: own_listener,
                wake_rx: slot.wake_rx,
                backend: be,
                conns: HashMap::new(),
                next_conn: 0,
                accept_backoff: None,
                listener_ready: false,
                events: Vec::new(),
                scratch: Vec::new(),
                inject_rx: slot.inject_rx,
                inject_done: false,
                peers: if i == 0 {
                    peers.take().expect("peers handed to reactor 0 once")
                } else {
                    Vec::new()
                },
                load: slot.load,
                ctx: Ctx {
                    handle: handle.clone(),
                    shared: Arc::clone(&shared),
                    reply_tx,
                    reply_rx,
                    waker: slot.waker,
                    wake_pending: slot.wake_pending,
                    tokens: HashMap::new(),
                    next_token: 0,
                    attention: HashSet::new(),
                },
            };
            threads.push(
                std::thread::Builder::new()
                    .name(format!("cc-net-reactor-{i}"))
                    .spawn(move || reactor.run())?,
            );
        }
        Ok(())
    };
    match build() {
        Ok(()) => Ok((threads, wakers)),
        Err(e) => {
            // A partial fleet must not leak parked threads: flag the
            // drain, ring every doorbell, join what started.
            shared.closed.store(true, Ordering::Release);
            for waker in &wakers {
                waker();
            }
            for thread in threads {
                let _ = thread.join();
            }
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::read_frame;
    use std::net::TcpListener;

    /// A nonblocking server-side `Conn` wired to a blocking client
    /// socket, for driving the write state machine directly.
    fn conn_pair() -> (Conn, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        server.set_nonblocking(true).expect("nonblocking");
        (Conn::new(server), client)
    }

    #[test]
    fn vectored_flush_sends_pipelined_frames_bit_identical() {
        let (mut conn, mut client) = conn_pair();
        let telemetry = Telemetry::default();
        let now = Instant::now();
        let payloads: Vec<Vec<u8>> = (0u8..5)
            .map(|i| vec![i; 100 * (usize::from(i) + 1)])
            .collect();
        // Queue everything with the socket marked un-writable so nothing
        // leaves early, then restore readiness: the whole pipeline must
        // drain through a single vectored flush pass.
        conn.write_ready = false;
        for payload in &payloads {
            conn.push_payload(payload, false, &telemetry, now);
        }
        assert_eq!(conn.out.len(), payloads.len());
        conn.write_ready = true;
        conn.flush(&telemetry, now);
        assert!(
            conn.out.is_empty(),
            "loopback buffer fits five small frames"
        );
        assert_eq!(telemetry.frames_out.get(), 5);
        for payload in &payloads {
            let got = read_frame(&mut client, u64::MAX)
                .expect("read frame")
                .expect("frame present");
            assert_eq!(&got, payload, "pipelined frame arrived bit-identical");
        }
    }

    #[test]
    fn flush_resumes_partial_frames_across_vectored_writes() {
        let (mut conn, mut client) = conn_pair();
        let telemetry = Telemetry::default();
        let now = Instant::now();
        // Big enough that the kernel socket buffer cannot take it all in
        // one write: the vectored path must resume mid-frame.
        let payloads: Vec<Vec<u8>> = (0u8..4).map(|i| vec![i ^ 0x5a; 1 << 20]).collect();
        conn.write_ready = false;
        for payload in &payloads {
            conn.push_payload(payload, false, &telemetry, now);
        }
        conn.write_ready = true;
        client.set_nonblocking(false).expect("blocking client");
        let reader = std::thread::spawn(move || {
            let mut got = Vec::new();
            while let Ok(Some(frame)) = read_frame(&mut client, u64::MAX) {
                got.push(frame);
                if got.len() == 4 {
                    break;
                }
            }
            got
        });
        while !conn.out.is_empty() {
            conn.flush(&telemetry, now);
            if !conn.write_ready {
                // Kernel buffer full: let the reader drain a little.
                std::thread::sleep(Duration::from_millis(1));
                conn.write_ready = true;
            }
        }
        let got = reader.join().expect("reader thread");
        assert_eq!(got, payloads, "partial-resume kept every byte in order");
        assert_eq!(telemetry.frames_out.get(), 4);
    }

    #[test]
    fn reply_buffers_recycle_without_reallocating_after_warm_up() {
        let (mut conn, mut client) = conn_pair();
        let telemetry = Telemetry::default();
        let now = Instant::now();
        let payload = vec![0xabu8; 512];
        // Warm-up: the first reply allocates its frame buffer, flushes,
        // and parks the buffer in the pool.
        conn.push_payload(&payload, false, &telemetry, now);
        assert!(conn.out.is_empty(), "loopback flush completes inline");
        assert_eq!(conn.pool.len(), 1, "flushed buffer was recycled");
        let warm_ptr = conn.pool[0].as_ptr();
        let warm_cap = conn.pool[0].capacity();
        for _ in 0..32 {
            conn.push_payload(&payload, false, &telemetry, now);
            assert_eq!(conn.pool.len(), 1, "steady state reuses one buffer");
            assert_eq!(
                conn.pool[0].as_ptr(),
                warm_ptr,
                "same allocation recycled on every reply"
            );
            assert_eq!(conn.pool[0].capacity(), warm_cap, "no reallocation");
        }
        // The bytes that arrived are still well-formed frames.
        client.set_nonblocking(false).expect("blocking client");
        for _ in 0..33 {
            let got = read_frame(&mut client, u64::MAX)
                .expect("read frame")
                .expect("frame present");
            assert_eq!(got, payload);
        }
    }

    #[test]
    fn pool_is_bounded() {
        let (mut conn, _client) = conn_pair();
        for _ in 0..(FRAME_POOL_CAP * 2) {
            conn.recycle(Vec::with_capacity(64));
        }
        assert_eq!(conn.pool.len(), FRAME_POOL_CAP);
    }
}

//! The epoll readiness serve core: 10k keep-alive connections answered
//! by `--workers` threads on one shared epoll set.
//!
//! A thread parked on every keep-alive connection would cap concurrency
//! at the thread count, though idle connections are the common case for
//! IDE content-assist clients. Here idle connections cost a file
//! descriptor and a little state, and **every serve thread runs the same
//! loop**: wait on the shared epoll set for one event, take the
//! connection it names, read, frame and answer every framed request in
//! order, write, and let the connection go. There is no poller → worker
//! queue, so a request is answered by the thread that epoll woke for it.
//!
//! Ownership rules (the whole design in four lines):
//!
//! 1. The listener and every connection are registered `EPOLLONESHOT`,
//!    and a wait takes one event, so exactly one thread holds a
//!    connection's event. That thread alone reads, answers and writes
//!    the connection until it re-arms it (`EPOLL_CTL_MOD` with
//!    `Conn::interest`) or closes it.
//! 2. Connection state lives in a map from id to `Arc<Mutex<Conn>>`.
//!    The thread holding the event is the only one that blocks on the
//!    lock, so it is uncontended; the reaper and the drain check only
//!    `try_lock`. Lock order: connection, then map. The timer wheel is
//!    never held with either.
//! 3. A connection id is never reused, and the socket closes when the
//!    last `Arc` drops, so no fd number is reused while a thread still
//!    holds it. A closed connection is marked `closed`, which tells a
//!    thread that raced the close to let go.
//! 4. Re-arming is level-triggered: a request that arrived while a
//!    thread held the connection is reported by the re-arm itself, so
//!    no wake-up is ever lost and none is ever sent between threads.
//!
//! A slow answer stalls only its own connection: the other threads keep
//! waiting on the set and take every other ready connection. The
//! thread count is the one bound on the requests being answered at
//! once, so a burst beyond it waits in its sockets, not in a queue.
//!
//! Writes that would block leave the remainder in a per-connection
//! outbound buffer and re-arm with `EPOLLOUT`; the burst behind it keeps
//! being answered, so a reader that stalls holds no thread. A peer's
//! EOF drops the read bits from the registration, so a half-closed
//! connection waiting on its answer wakes nothing. Idle connections are
//! reaped by a coarse **timer wheel**: accept inserts the connection
//! one `idle_timeout` ahead, and each firing either reaps (idle past
//! the deadline, nothing left to write, held by no thread) or lazily
//! reinserts at the remaining time — activity just stamps `idle_since`,
//! never touches the wheel.
//!
//! The raw `epoll` syscall wrappers mirror the mmap shim in
//! `jungloid-typesys`' `slab::sys`: Linux/x86_64 inline-assembly
//! syscalls, no libc. This is the only serve core, so serving is
//! Linux/x86_64-only (DESIGN §15); everywhere else `serve` exits with
//! the stub's error.

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub(crate) use imp::serve_epoll;

/// Stub for platforms without the epoll core: serving is unavailable
/// there, so [`crate::serve::Server::run`] returns this error.
#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
pub(crate) fn serve_epoll(
    _listener: std::net::TcpListener,
    _ctx: &crate::serve::Ctx<'_>,
    _shutdown: &std::sync::atomic::AtomicBool,
) -> Result<(), String> {
    Err("the epoll serve core is only available on Linux/x86_64".to_owned())
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
#[allow(unsafe_code)]
mod imp {
    use std::collections::HashMap;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{Arc, Mutex, TryLockError};
    use std::time::{Duration, Instant};

    use prospector_obs::Counter;

    use crate::http::{Framed, RequestFramer};
    use crate::serve::{answer, frame_error_response, record_request, serialize_response, Ctx};

    /// epoll data token for the listening socket.
    const TOKEN_LISTENER: u64 = 0;
    /// First connection id; ids only grow and are never reused.
    const FIRST_CONN: u64 = 1;

    /// Upper bound on one `epoll_wait` sleep: the stop flags and the
    /// timer wheel are re-checked at least this often.
    const WAIT_SLICE: Duration = Duration::from_millis(50);

    /// How long a draining shutdown waits for answers in progress and
    /// outbound buffers to finish before giving up and closing anyway.
    const DRAIN_GRACE: Duration = Duration::from_secs(3);

    /// Nonblocking read chunk; large enough that a pipelined burst
    /// drains in one or two reads.
    const READ_CHUNK: usize = 16 * 1024;

    /// Timer-wheel slots; one full turn spans the idle timeout, so the
    /// reap granularity is `idle_timeout / WHEEL_SLOTS` (floored at
    /// [`MIN_TICK`]).
    const WHEEL_SLOTS: usize = 64;

    /// Floor on the wheel tick so tiny `--idle-timeout` values (tests
    /// use fractions of a second) cannot spin the wheel every few µs.
    const MIN_TICK: Duration = Duration::from_millis(25);

    const POISONED_MAP: &str = "a serve thread panicked holding the connection map";
    const POISONED_WHEEL: &str = "a serve thread panicked holding the timer wheel";

    /// Nanoseconds in `d`, saturating.
    fn nanos(d: Duration) -> u64 {
        u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
    }

    /// Everything the server knows about one connection. Only the thread
    /// holding the connection's event reads or writes it.
    struct Conn {
        stream: TcpStream,
        framer: RequestFramer,
        /// Outbound bytes not yet written (`out_pos..` is the remainder).
        out: Vec<u8>,
        out_pos: usize,
        /// Close once `out` is fully flushed; nothing more is answered.
        close_after_flush: bool,
        /// The peer closed its write side (EOF): answer what was framed,
        /// flush, then close.
        peer_gone: bool,
        /// Requests answered toward the keep-alive cap.
        served: usize,
        /// End of the last activity, read lazily by the timer wheel.
        idle_since: Instant,
        /// Deregistered and out of the map; a thread that raced the
        /// close finds this and lets go.
        closed: bool,
    }

    impl Conn {
        fn new(stream: TcpStream) -> Conn {
            Conn {
                stream,
                framer: RequestFramer::new(),
                out: Vec::new(),
                out_pos: 0,
                close_after_flush: false,
                peer_gone: false,
                served: 0,
                idle_since: Instant::now(),
                closed: false,
            }
        }

        /// The registration this state calls for: the read bits while
        /// more requests may come (level-triggered, they would stay
        /// ready after an EOF or on bytes nobody will frame),
        /// `EPOLLOUT` while bytes wait, always one-shot.
        fn interest(&self) -> u32 {
            let read = if self.peer_gone || self.close_after_flush {
                0
            } else {
                sys::EPOLLIN | sys::EPOLLRDHUP
            };
            let write = if self.has_backlog() { sys::EPOLLOUT } else { 0 };
            read | write | sys::EPOLLONESHOT
        }

        /// Unwritten outbound bytes remain.
        fn has_backlog(&self) -> bool {
            self.out_pos < self.out.len()
        }

        /// Reads until the socket is drained, into the framer. A short
        /// read drains it too: anything that lands later is reported by
        /// the level-triggered re-arm. Only after `EPOLLRDHUP` does the
        /// read go on to see the EOF. Returns `false` on a read error.
        fn read(&mut self, chunk: &mut [u8], rdhup: bool) -> bool {
            loop {
                match (&self.stream).read(chunk) {
                    Ok(0) => {
                        self.peer_gone = true;
                        return true;
                    }
                    Ok(n) => {
                        self.framer.push(&chunk[..n]);
                        if n < chunk.len() && !rdhup {
                            return true;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => return false,
                }
            }
        }

        /// Writes the outbound buffer until the socket would block.
        /// Returns `false` when the write failed; the connection then
        /// gets no further bytes and is closed.
        fn flush(&mut self) -> bool {
            while self.out_pos < self.out.len() {
                match (&self.stream).write(&self.out[self.out_pos..]) {
                    Ok(0) => return false,
                    Ok(n) => self.out_pos += n,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => return false,
                }
            }
            self.out.clear();
            self.out_pos = 0;
            true
        }

        /// Queues one response's bytes behind whatever waits unwritten.
        fn push_out(&mut self, bytes: Vec<u8>) {
            if self.out.is_empty() {
                self.out = bytes;
            } else {
                self.out.extend_from_slice(&bytes);
            }
        }
    }

    /// The coarse hashed timer wheel reaping idle connections. Insertion
    /// is O(1); each tick drains one slot. Entries are *hints*: the
    /// firing re-checks the connection's real `idle_since` and reinserts
    /// at the remaining time when activity moved the deadline.
    struct TimerWheel {
        slots: Vec<Vec<u64>>,
        cursor: usize,
        tick: Duration,
        last: Instant,
    }

    impl TimerWheel {
        fn new(idle_timeout: Duration) -> TimerWheel {
            let tick = (idle_timeout / WHEEL_SLOTS as u32).max(MIN_TICK);
            TimerWheel {
                slots: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
                cursor: 0,
                tick,
                last: Instant::now(),
            }
        }

        fn insert(&mut self, id: u64, delay: Duration) {
            let ticks = (delay.as_nanos() / self.tick.as_nanos()).max(1) as usize;
            let slot = (self.cursor + ticks.min(WHEEL_SLOTS - 1)) % WHEEL_SLOTS;
            self.slots[slot].push(id);
        }

        /// Advances the cursor past due ticks, returning every id whose
        /// slot fired.
        fn expired(&mut self, now: Instant) -> Vec<u64> {
            let mut fired = Vec::new();
            while now.duration_since(self.last) >= self.tick {
                self.last += self.tick;
                self.cursor = (self.cursor + 1) % WHEEL_SLOTS;
                fired.append(&mut self.slots[self.cursor]);
            }
            fired
        }
    }

    /// What every serve thread shares: the epoll set, the listener, the
    /// connection map and the timer wheel.
    struct Core<'p> {
        epfd: i32,
        ctx: &'p Ctx<'p>,
        listener: &'p TcpListener,
        /// The caller's shutdown flag; only read here.
        shutdown: &'p AtomicBool,
        /// Set by a thread that hit a fatal error, so the others drain
        /// and return too.
        stop: AtomicBool,
        conns: Mutex<HashMap<u64, Arc<Mutex<Conn>>>>,
        wheel: Mutex<TimerWheel>,
        next_id: AtomicU64,
        /// `epoll_wait` timeout: the wait slice or the wheel tick.
        wait_ms: i32,
    }

    /// Runs the epoll core until `shutdown` flips: `ctx.workers` threads
    /// inside one scope, the calling thread among them, each running
    /// [`Core::run`]. On shutdown they stop accepting and answering,
    /// flush outbound buffers (bounded by [`DRAIN_GRACE`]), and the
    /// scope joins every thread before this returns.
    pub(crate) fn serve_epoll(
        listener: TcpListener,
        ctx: &Ctx<'_>,
        shutdown: &AtomicBool,
    ) -> Result<(), String> {
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("set_nonblocking: {e}"))?;
        let epfd = sys::epoll_create1().map_err(|e| format!("epoll_create1: errno {e}"))?;
        let interest = sys::EPOLLIN | sys::EPOLLONESHOT;
        let fd = listener.as_raw_fd();
        if let Err(e) = sys::epoll_ctl(epfd, sys::EPOLL_CTL_ADD, fd, interest, TOKEN_LISTENER) {
            sys::close(epfd);
            return Err(format!("epoll_ctl(listener): errno {e}"));
        }
        let wheel = TimerWheel::new(ctx.idle_timeout);
        let wait_ms = i32::try_from(WAIT_SLICE.min(wheel.tick).as_millis()).unwrap_or(50);
        let core = Core {
            epfd,
            ctx,
            listener: &listener,
            shutdown,
            stop: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            wheel: Mutex::new(wheel),
            next_id: AtomicU64::new(FIRST_CONN),
            wait_ms,
        };
        let result = std::thread::scope(|scope| {
            let core = &core;
            let others: Vec<_> = (1..ctx.workers)
                .map(|_| scope.spawn(move || core.run()))
                .collect();
            let mut result = core.run();
            for thread in others {
                let joined = thread
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                result = result.and(joined);
            }
            result
        });
        // The connections close with the map; the epoll set goes last.
        drop(core);
        sys::close(epfd);
        result
    }

    impl Core<'_> {
        /// Shutdown was asked for, or a thread failed.
        fn stopping(&self) -> bool {
            self.shutdown.load(Ordering::Relaxed) || self.stop.load(Ordering::Relaxed)
        }

        /// Stops every thread after a fatal error and returns it.
        fn fail(&self, error: String) -> Result<(), String> {
            self.stop.store(true, Ordering::Relaxed);
            Err(error)
        }

        /// One serve thread: wait for one event, handle it, turn the
        /// timer wheel, repeat. Once stopping, it returns when nothing is
        /// held or left to write, or after [`DRAIN_GRACE`].
        fn run(&self) -> Result<(), String> {
            let mut events = [sys::EpollEvent { events: 0, data: 0 }];
            let mut chunk = vec![0u8; READ_CHUNK];
            let mut draining_since: Option<Instant> = None;
            loop {
                let stopping = self.stopping();
                if stopping {
                    let since = *draining_since.get_or_insert_with(Instant::now);
                    if self.drained() || since.elapsed() >= DRAIN_GRACE {
                        return Ok(());
                    }
                }
                let n = match sys::epoll_wait(self.epfd, &mut events, self.wait_ms) {
                    Ok(n) => n,
                    Err(sys::EINTR) => 0,
                    Err(e) => return self.fail(format!("epoll_wait: errno {e}")),
                };
                if n == 1 {
                    // Copy out of the packed struct before use.
                    let (bits, token) = (events[0].events, events[0].data);
                    if token == TOKEN_LISTENER {
                        if let Err(e) = self.on_listener(stopping) {
                            return self.fail(e);
                        }
                    } else {
                        self.on_conn(token, bits, &mut chunk);
                    }
                }
                self.sweep();
            }
        }

        /// Nothing is held by a thread and nothing waits to be written.
        fn drained(&self) -> bool {
            let conns = self.conns.lock().expect(POISONED_MAP);
            self.ctx.busy.load(Ordering::Relaxed) == 0
                && conns
                    .values()
                    .all(|cell| cell.try_lock().is_ok_and(|conn| !conn.has_backlog()))
        }

        /// Accepts until the backlog is empty, then re-arms the listener.
        /// There is no accept backpressure: an accepted connection costs
        /// a file descriptor, and its requests wait in its socket until
        /// a thread is free.
        fn on_listener(&self, stopping: bool) -> Result<(), String> {
            if stopping {
                return Ok(());
            }
            loop {
                match self.listener.accept() {
                    Ok((stream, _peer)) => self.register(stream),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(format!("accept: {e}")),
                }
            }
            let interest = sys::EPOLLIN | sys::EPOLLONESHOT;
            let fd = self.listener.as_raw_fd();
            sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_MOD, fd, interest, TOKEN_LISTENER)
                .map_err(|e| format!("epoll_ctl(listener): errno {e}"))
        }

        /// Registers one accepted socket for readiness and arms its idle
        /// timer. The gauges count it before it is armed, so a thread
        /// that answers it at once never takes them below zero.
        fn register(&self, stream: TcpStream) {
            // Without `TCP_NODELAY`, Nagle's algorithm holds a response
            // written right behind another on the same connection until
            // the client's delayed ACK (~40 ms on Linux).
            if stream
                .set_nonblocking(true)
                .and_then(|()| stream.set_nodelay(true))
                .is_err()
            {
                return;
            }
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            let fd = stream.as_raw_fd();
            let conn = Conn::new(stream);
            let interest = conn.interest();
            self.conns
                .lock()
                .expect(POISONED_MAP)
                .insert(id, Arc::new(Mutex::new(conn)));
            self.ctx.conns.fetch_add(1, Ordering::Relaxed);
            self.ctx.parked.fetch_add(1, Ordering::Relaxed);
            if sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_ADD, fd, interest, id).is_err() {
                self.conns.lock().expect(POISONED_MAP).remove(&id);
                self.ctx.conns.fetch_sub(1, Ordering::Relaxed);
                self.ctx.parked.fetch_sub(1, Ordering::Relaxed);
                return;
            }
            self.wheel
                .lock()
                .expect(POISONED_WHEEL)
                .insert(id, self.ctx.idle_timeout);
            prospector_obs::add(Counter::ServePollerAccepts, 1);
        }

        /// The connection `id` names, unless it is closed.
        fn lookup(&self, id: u64) -> Option<Arc<Mutex<Conn>>> {
            self.conns.lock().expect(POISONED_MAP).get(&id).cloned()
        }

        /// Takes the connection one event names: read, answer what was
        /// framed, write, and let go.
        fn on_conn(&self, id: u64, bits: u32, chunk: &mut [u8]) {
            let Some(cell) = self.lookup(id) else { return };
            // Poisoned: a thread panicked answering on it; leave it be.
            let Ok(mut conn) = cell.lock() else { return };
            if conn.closed {
                return;
            }
            self.ctx.busy.fetch_add(1, Ordering::Relaxed);
            let picked = Instant::now();
            let stopping = self.stopping();
            let mut open = bits & (sys::EPOLLERR | sys::EPOLLHUP) == 0;
            let readable = bits & conn.interest() & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0;
            if open && readable && !stopping {
                open = conn.read(chunk, bits & sys::EPOLLRDHUP != 0);
                if open {
                    self.answer_framed(&mut conn, picked);
                }
            }
            open = open && conn.flush();
            let mut rearm = None;
            if !open || (!conn.has_backlog() && (conn.close_after_flush || conn.peer_gone)) {
                self.close(id, &mut conn);
            } else if !stopping || conn.has_backlog() {
                conn.idle_since = Instant::now();
                // Draining: flush what is owed, read nothing more.
                rearm = Some(if stopping {
                    sys::EPOLLOUT | sys::EPOLLONESHOT
                } else {
                    conn.interest()
                });
            }
            let fd = conn.stream.as_raw_fd();
            // Let go of the lock before the re-arm: a request that is
            // already waiting fires at once, and the thread it wakes must
            // not sleep on this lock while this one is preempted. The
            // `Arc` keeps the fd open, and the connection is disarmed, so
            // only the reaper can touch it in between — and it was just
            // active.
            drop(conn);
            self.ctx.busy.fetch_sub(1, Ordering::Relaxed);
            if let Some(interest) = rearm {
                if sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_MOD, fd, interest, id).is_err() {
                    if let Ok(mut conn) = cell.lock() {
                        if !conn.closed {
                            self.close(id, &mut conn);
                        }
                    }
                }
            }
        }

        /// Answers every request the framer holds, in order, into the
        /// outbound buffer, and a frame error after them; stops at the
        /// answer that closes the connection, and on shutdown. Each
        /// answer is logged before its first byte leaves, and the
        /// connection counts as parked again before then, too.
        fn answer_framed(&self, conn: &mut Conn, picked: Instant) {
            let ctx = self.ctx;
            let mut answering = false;
            while !conn.close_after_flush && !self.stopping() {
                let framed = conn.framer.next();
                if matches!(framed, Framed::Incomplete) {
                    break;
                }
                if !answering {
                    answering = true;
                    ctx.parked.fetch_sub(1, Ordering::Relaxed);
                }
                let started = Instant::now();
                let wait_ns = nanos(started - picked);
                let ((endpoint, response), close) = match framed {
                    Framed::Request(request) => {
                        conn.served += 1;
                        let close = request.close || conn.served >= ctx.keepalive_max;
                        (answer(ctx, &request), close)
                    }
                    Framed::Error(error) => {
                        prospector_obs::add(Counter::ServePollerFrameErrors, 1);
                        (frame_error_response(&error), true)
                    }
                    Framed::Incomplete => break,
                };
                let bytes = serialize_response(&response, close);
                record_request(endpoint, &response, wait_ns, nanos(started.elapsed()));
                conn.push_out(bytes);
                conn.close_after_flush |= close;
            }
            if answering {
                ctx.parked.fetch_add(1, Ordering::Relaxed);
            }
        }

        /// Deregisters one connection and takes it out of the map. The
        /// socket closes when the last `Arc` lets go of it.
        fn close(&self, id: u64, conn: &mut Conn) {
            conn.closed = true;
            let _ = sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_DEL, conn.stream.as_raw_fd(), 0, 0);
            self.conns.lock().expect(POISONED_MAP).remove(&id);
            self.ctx.conns.fetch_sub(1, Ordering::Relaxed);
            self.ctx.parked.fetch_sub(1, Ordering::Relaxed);
        }

        /// Turns the timer wheel when its tick is due and no other thread
        /// is turning it.
        fn sweep(&self) {
            let fired = match self.wheel.try_lock() {
                Ok(mut wheel) => wheel.expired(Instant::now()),
                Err(_) => return,
            };
            for id in fired {
                self.check_reap(id);
            }
        }

        /// A timer-wheel firing for `id`: reap if held by no thread,
        /// nothing waits to be written and it has idled past the
        /// timeout; otherwise reinsert at the remaining time.
        fn check_reap(&self, id: u64) {
            let Some(cell) = self.lookup(id) else { return };
            let timeout = self.ctx.idle_timeout;
            let remaining = match cell.try_lock() {
                Ok(mut conn) => {
                    if conn.closed {
                        return;
                    }
                    let idle = conn.idle_since.elapsed();
                    if !conn.has_backlog() && idle >= timeout {
                        self.close(id, &mut conn);
                        prospector_obs::add(Counter::ServePollerReaped, 1);
                        return;
                    }
                    timeout.saturating_sub(idle)
                }
                // A thread holds it, so it is not idle.
                Err(TryLockError::WouldBlock) => timeout,
                Err(TryLockError::Poisoned(_)) => return,
            };
            self.wheel
                .lock()
                .expect(POISONED_WHEEL)
                .insert(id, remaining);
        }
    }

    /// Raw `epoll(7)` syscall wrappers — std-only, no libc, in the style
    /// of `jungloid-typesys`' `slab::sys` mmap shim. Errors are `-errno`
    /// returns surfaced as positive errno values.
    mod sys {
        const SYS_CLOSE: usize = 3;
        const SYS_EPOLL_WAIT: usize = 232;
        const SYS_EPOLL_CTL: usize = 233;
        const SYS_EPOLL_CREATE1: usize = 291;

        const EPOLL_CLOEXEC: usize = 0x80000;

        pub const EPOLL_CTL_ADD: i32 = 1;
        pub const EPOLL_CTL_DEL: i32 = 2;
        pub const EPOLL_CTL_MOD: i32 = 3;
        pub const EPOLLIN: u32 = 0x001;
        pub const EPOLLOUT: u32 = 0x004;
        pub const EPOLLERR: u32 = 0x008;
        pub const EPOLLHUP: u32 = 0x010;
        pub const EPOLLRDHUP: u32 = 0x2000;
        pub const EPOLLONESHOT: u32 = 1 << 30;

        /// `EINTR`, the one errno the serve loop treats as "no events".
        pub const EINTR: isize = 4;

        /// The kernel's `struct epoll_event` on x86_64 (packed: the
        /// 64-bit data member is not 8-aligned).
        #[repr(C, packed)]
        #[derive(Clone, Copy)]
        pub struct EpollEvent {
            pub events: u32,
            pub data: u64,
        }

        /// One raw syscall with up to four arguments. Unused argument
        /// registers carry zeros, which every syscall here ignores.
        ///
        /// # Safety
        ///
        /// The caller must uphold the invoked syscall's contract —
        /// here that is only ever "fd is owned by us" and "pointers
        /// reference live memory of the stated length".
        unsafe fn syscall4(nr: usize, a1: usize, a2: usize, a3: usize, a4: usize) -> isize {
            let ret: isize;
            // SAFETY: plain syscall; the kernel validates every argument
            // and reports failure through the return value.
            unsafe {
                std::arch::asm!(
                    "syscall",
                    inlateout("rax") nr as isize => ret,
                    in("rdi") a1,
                    in("rsi") a2,
                    in("rdx") a3,
                    in("r10") a4,
                    out("rcx") _,
                    out("r11") _,
                    options(nostack),
                );
            }
            ret
        }

        /// Converts a `-errno` return into `Err(errno)`.
        fn check(ret: isize) -> Result<isize, isize> {
            if (-4095..0).contains(&ret) {
                Err(-ret)
            } else {
                Ok(ret)
            }
        }

        /// `epoll_create1(EPOLL_CLOEXEC)`.
        pub fn epoll_create1() -> Result<i32, isize> {
            // SAFETY: no pointers; the kernel allocates and returns a fd.
            let ret = unsafe { syscall4(SYS_EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0) };
            check(ret).map(|fd| fd as i32)
        }

        /// `epoll_ctl(epfd, op, fd, &event)`; `events`/`data` are the
        /// event payload (ignored by the kernel for `EPOLL_CTL_DEL`).
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, events: u32, data: u64) -> Result<(), isize> {
            let ev = EpollEvent { events, data };
            // SAFETY: the only pointer is to `ev`, which lives across the
            // call; the kernel checks both fds and reports a bad one as
            // `EBADF`, an unregistered one as `ENOENT`.
            let ret = unsafe {
                syscall4(
                    SYS_EPOLL_CTL,
                    epfd as usize,
                    op as usize,
                    fd as usize,
                    std::ptr::addr_of!(ev) as usize,
                )
            };
            check(ret).map(|_| ())
        }

        /// `epoll_wait(epfd, events, events.len(), timeout_ms)` → number
        /// of ready events.
        pub fn epoll_wait(
            epfd: i32,
            events: &mut [EpollEvent],
            timeout_ms: i32,
        ) -> Result<usize, isize> {
            // SAFETY: the kernel writes at most `events.len()` entries
            // into the buffer, which outlives the call; a fd that is no
            // epoll set is `EINVAL`.
            let ret = unsafe {
                syscall4(
                    SYS_EPOLL_WAIT,
                    epfd as usize,
                    events.as_mut_ptr() as usize,
                    events.len(),
                    timeout_ms as usize,
                )
            };
            check(ret).map(|n| n as usize)
        }

        /// `close(fd)` for the fds this module created raw.
        pub fn close(fd: i32) {
            // SAFETY: only called on fds this module owns, once each.
            let _ = unsafe { syscall4(SYS_CLOSE, fd as usize, 0, 0, 0) };
        }
    }

    /// The failure edges of the raw wrappers: each reports the kernel's
    /// errno instead of succeeding or faulting.
    #[cfg(test)]
    mod tests {
        use std::net::TcpListener;
        use std::os::fd::AsRawFd;

        use super::sys;

        const ENOENT: isize = 2;
        const EBADF: isize = 9;
        const EINVAL: isize = 22;

        /// An epoll set closed when dropped.
        struct Epoll(i32);

        impl Drop for Epoll {
            fn drop(&mut self) {
                sys::close(self.0);
            }
        }

        fn epoll() -> Epoll {
            Epoll(sys::epoll_create1().expect("epoll_create1"))
        }

        #[test]
        fn epoll_ctl_mod_on_an_unregistered_fd_is_enoent() {
            let set = epoll();
            let socket = TcpListener::bind("127.0.0.1:0").expect("bind");
            let fd = socket.as_raw_fd();
            let ret = sys::epoll_ctl(set.0, sys::EPOLL_CTL_MOD, fd, sys::EPOLLIN, 7);
            assert_eq!(ret, Err(ENOENT));
        }

        #[test]
        fn epoll_ctl_add_on_a_closed_fd_is_ebadf() {
            let set = epoll();
            // No fd table reaches `i32::MAX` (`fs.nr_open` is capped below
            // it), so this number is closed in every process, and no other
            // test's socket can take it between a close and this call.
            let ret = sys::epoll_ctl(set.0, sys::EPOLL_CTL_ADD, i32::MAX, sys::EPOLLIN, 7);
            assert_eq!(ret, Err(EBADF));
        }

        #[test]
        fn epoll_wait_on_a_fd_that_is_no_epoll_set_is_einval() {
            let socket = TcpListener::bind("127.0.0.1:0").expect("bind");
            let mut events = [sys::EpollEvent { events: 0, data: 0 }];
            assert_eq!(
                sys::epoll_wait(socket.as_raw_fd(), &mut events, 0),
                Err(EINVAL)
            );
        }

        #[test]
        fn epoll_wait_with_no_timeout_on_an_empty_set_is_zero_events() {
            let set = epoll();
            let mut events = [sys::EpollEvent { events: 0, data: 0 }];
            assert_eq!(sys::epoll_wait(set.0, &mut events, 0), Ok(0));
        }
    }
}

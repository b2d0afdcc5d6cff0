//! The epoll readiness serve core: 10k keep-alive connections on one
//! poller thread.
//!
//! A worker thread parked on every keep-alive connection would cap
//! concurrency at `--workers`, though idle connections are the common
//! case for IDE content-assist clients. This module inverts that: **one
//! poller thread owns the listener and every parked socket**, and
//! workers only ever see *parsed requests*.
//!
//! Ownership rules (the whole design in four lines):
//!
//! 1. The poller thread exclusively owns every `TcpStream`, the epoll
//!    set, and all per-connection state. No lock guards any of it.
//! 2. Workers receive `(connection id, parsed request)` jobs and return
//!    `(connection id, response bytes)` completions. They never touch a
//!    socket.
//! 3. The completion queue's eventfd is the only cross-thread signal
//!    into the poller; everything else arrives as socket readiness.
//! 4. A connection id is never reused, so a completion for a connection
//!    that died mid-request falls harmlessly on the floor.
//!
//! Parsing happens **in the poller** (cheap, bounded by the framer's
//! head cap) while query execution happens **in a worker** (expensive,
//! unbounded): splitting at the parsed-request boundary means a slow
//! query never blocks framing on other connections, and the poller can
//! make shed decisions — `429` + `Retry-After`, written without waking
//! a worker — on requests it has already routed.
//!
//! Writes that would block re-arm the connection with `EPOLLOUT` and
//! continue from a per-connection outbound buffer when the socket
//! drains. Idle connections are reaped by a coarse **timer wheel**:
//! accept inserts the connection one `idle_timeout` ahead, and each
//! firing either reaps (still parked and idle past the deadline) or
//! lazily reinserts at the remaining time — activity just stamps
//! `idle_since`, never touches the wheel.
//!
//! The raw `epoll`/`eventfd` syscall wrappers mirror the mmap shim in
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
    use std::collections::{HashMap, VecDeque};
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Condvar, Mutex};
    use std::time::{Duration, Instant};

    use crate::http::{FrameError, Framed, Request, RequestFramer};
    use crate::serve::{
        answer, endpoint_of, frame_error_response, record_request, sampler_loop,
        serialize_response, shed_response, Ctx,
    };

    /// epoll data token for the listening socket.
    const TOKEN_LISTENER: u64 = 0;
    /// epoll data token for the completion queue's eventfd.
    const TOKEN_WAKE: u64 = 1;
    /// First connection id; ids only grow and are never reused.
    const FIRST_CONN: u64 = 2;

    /// Readiness events drained per `epoll_wait` call.
    const EVENT_BATCH: usize = 256;

    /// Upper bound on one `epoll_wait` sleep: the shutdown flag and the
    /// timer wheel are re-checked at least this often.
    const WAIT_SLICE: Duration = Duration::from_millis(50);

    /// How long a draining shutdown waits for in-flight requests to
    /// finish and flush before giving up and closing anyway.
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

    /// One parsed request on its way to a worker.
    struct ParsedJob {
        conn: u64,
        request: Request,
        /// Close the connection after this response (client asked, or
        /// the keep-alive cap is reached).
        close: bool,
        enqueued: Instant,
    }

    /// The poller → worker handoff: pops are attempted *before* the stop
    /// checks so everything queued before shutdown is always drained.
    struct ParsedQueue {
        jobs: Mutex<VecDeque<ParsedJob>>,
        ready: Condvar,
    }

    impl ParsedQueue {
        fn new() -> ParsedQueue {
            ParsedQueue { jobs: Mutex::new(VecDeque::new()), ready: Condvar::new() }
        }

        fn push(&self, job: ParsedJob) {
            self.jobs.lock().unwrap().push_back(job);
            self.ready.notify_one();
        }

        fn len(&self) -> usize {
            self.jobs.lock().unwrap().len()
        }

        fn pop(&self, shutdown: &AtomicBool, stopping: &AtomicBool) -> Option<ParsedJob> {
            let mut jobs = self.jobs.lock().unwrap();
            loop {
                if let Some(job) = jobs.pop_front() {
                    return Some(job);
                }
                if shutdown.load(Ordering::Relaxed) || stopping.load(Ordering::Relaxed) {
                    return None;
                }
                jobs = self.ready.wait_timeout(jobs, WAIT_SLICE).unwrap().0;
            }
        }
    }

    /// One finished request on its way back to the poller.
    struct Completion {
        conn: u64,
        bytes: Vec<u8>,
        close: bool,
    }

    /// The worker → poller handoff. Pushing rings the eventfd so the
    /// poller wakes out of `epoll_wait` immediately instead of on the
    /// next slice.
    struct CompletionQueue {
        done: Mutex<Vec<Completion>>,
        wake_fd: i32,
    }

    impl CompletionQueue {
        fn push(&self, completion: Completion) {
            self.done.lock().unwrap().push(completion);
            sys::eventfd_ring(self.wake_fd);
        }

        fn drain(&self) -> Vec<Completion> {
            std::mem::take(&mut *self.done.lock().unwrap())
        }
    }

    /// Everything the poller knows about one connection.
    struct Conn {
        stream: TcpStream,
        framer: RequestFramer,
        /// Requests framed but not yet dispatched, with their close flag
        /// already resolved against the keep-alive cap.
        pending: VecDeque<(Request, bool)>,
        /// The frame error that ended the byte stream. It is answered
        /// (and the connection closed) only once every request framed
        /// before it has been answered, so it never overtakes them.
        frame_error: Option<FrameError>,
        /// Outbound bytes not yet written (`out_pos..` is the remainder).
        out: Vec<u8>,
        out_pos: usize,
        /// A request from this connection is with a worker. At most one:
        /// pipelined requests serialize per connection.
        in_flight: bool,
        /// Close once `out` is fully flushed; no further dispatches.
        close_after_flush: bool,
        /// The peer closed its write side (EOF) — serve what is pending,
        /// then drop.
        peer_gone: bool,
        /// Requests served (dispatch + shed) toward the keep-alive cap.
        served: usize,
        /// Last activity, read lazily by the timer wheel.
        idle_since: Instant,
        /// The epoll registration currently includes `EPOLLOUT`.
        want_write: bool,
    }

    impl Conn {
        fn new(stream: TcpStream) -> Conn {
            Conn {
                stream,
                framer: RequestFramer::new(),
                pending: VecDeque::new(),
                frame_error: None,
                out: Vec::new(),
                out_pos: 0,
                in_flight: false,
                close_after_flush: false,
                peer_gone: false,
                served: 0,
                idle_since: Instant::now(),
                want_write: false,
            }
        }

        /// Unwritten outbound bytes remain.
        fn has_backlog(&self) -> bool {
            self.out_pos < self.out.len()
        }

        /// Nothing pending or held, nothing in flight, nothing to write —
        /// the state the timer wheel may reap and EOF may drop.
        fn is_parked_empty(&self) -> bool {
            !self.in_flight
                && self.pending.is_empty()
                && self.frame_error.is_none()
                && !self.has_backlog()
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

    /// The poller thread's whole state. All methods run on that one
    /// thread; only the two queues are shared.
    struct Poller<'p> {
        epfd: i32,
        ctx: &'p Ctx<'p>,
        queue: &'p ParsedQueue,
        shutdown: &'p AtomicBool,
        conns: HashMap<u64, Conn>,
        wheel: TimerWheel,
        next_id: u64,
    }

    /// Runs the epoll core until `shutdown` flips: spawns the worker
    /// pool and the sampler inside one scope, then drives the readiness
    /// loop on the calling thread. On shutdown the poller stops
    /// accepting and dispatching, drains in-flight requests and
    /// outbound buffers (bounded by [`DRAIN_GRACE`]), and the scope
    /// joins every thread before this returns.
    pub(crate) fn serve_epoll(
        listener: TcpListener,
        ctx: &Ctx<'_>,
        shutdown: &AtomicBool,
    ) -> Result<(), String> {
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("set_nonblocking: {e}"))?;
        let epfd = sys::epoll_create1().map_err(|e| format!("epoll_create1: errno {e}"))?;
        let wake_fd = match sys::eventfd() {
            Ok(fd) => fd,
            Err(e) => {
                sys::close(epfd);
                return Err(format!("eventfd: errno {e}"));
            }
        };
        let setup = sys::epoll_ctl(
            epfd,
            sys::EPOLL_CTL_ADD,
            listener.as_raw_fd(),
            sys::EPOLLIN,
            TOKEN_LISTENER,
        )
        .and_then(|()| sys::epoll_ctl(epfd, sys::EPOLL_CTL_ADD, wake_fd, sys::EPOLLIN, TOKEN_WAKE));
        if let Err(e) = setup {
            sys::close(wake_fd);
            sys::close(epfd);
            return Err(format!("epoll_ctl(setup): errno {e}"));
        }

        let queue = ParsedQueue::new();
        let completions = CompletionQueue { done: Mutex::new(Vec::new()), wake_fd };
        let stopping = AtomicBool::new(false);
        let result = std::thread::scope(|scope| {
            for _ in 0..ctx.workers {
                let queue = &queue;
                let completions = &completions;
                let stopping = &stopping;
                scope.spawn(move || worker_loop(queue, completions, ctx, shutdown, stopping));
            }
            {
                let stopping = &stopping;
                scope.spawn(move || sampler_loop(ctx, shutdown, stopping));
            }
            let mut poller = Poller {
                epfd,
                ctx,
                queue: &queue,
                shutdown,
                conns: HashMap::new(),
                wheel: TimerWheel::new(ctx.idle_timeout),
                next_id: FIRST_CONN,
            };
            let result = poller.run(&listener, wake_fd, &completions);
            // Wake every parked worker so they observe the stop without
            // waiting out their poll interval.
            stopping.store(true, Ordering::Relaxed);
            queue.ready.notify_all();
            result
        });
        sys::close(wake_fd);
        sys::close(epfd);
        result
    }

    /// One worker: pops parsed requests, answers and records them, and
    /// hands the serialized bytes back as a completion. Queue wait is
    /// measured per request — the poller stamps every job at dispatch,
    /// so keep-alive follow-ups get real wait numbers too.
    fn worker_loop(
        queue: &ParsedQueue,
        completions: &CompletionQueue,
        ctx: &Ctx<'_>,
        shutdown: &AtomicBool,
        stopping: &AtomicBool,
    ) {
        while let Some(job) = queue.pop(shutdown, stopping) {
            ctx.depth.store(queue.len() as u64, Ordering::Relaxed);
            let wait_ns = u64::try_from(job.enqueued.elapsed().as_nanos()).unwrap_or(u64::MAX);
            ctx.busy.fetch_add(1, Ordering::Relaxed);
            let started = Instant::now();
            // The profiler's root frame: sampled stacks read
            // `serve.request;batch;search` etc., so `/profile.folded`
            // attributes wall-clock to request handling versus idle.
            let _span = prospector_obs::stage("serve.request");
            let (endpoint, response) = answer(ctx, &job.request);
            let bytes = serialize_response(&response, job.close);
            let handle_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            record_request(endpoint, &response, wait_ns, handle_ns);
            ctx.busy.fetch_sub(1, Ordering::Relaxed);
            completions.push(Completion { conn: job.conn, bytes, close: job.close });
        }
    }

    impl Poller<'_> {
        /// The readiness loop: wait, dispatch events, absorb
        /// completions, turn the timer wheel, repeat.
        fn run(
            &mut self,
            listener: &TcpListener,
            wake_fd: i32,
            completions: &CompletionQueue,
        ) -> Result<(), String> {
            let mut events = [sys::EpollEvent { events: 0, data: 0 }; EVENT_BATCH];
            let mut draining_since: Option<Instant> = None;
            loop {
                let stop = self.shutdown.load(Ordering::Relaxed);
                if stop {
                    let since = *draining_since.get_or_insert_with(Instant::now);
                    let drained = self.ctx.inflight.load(Ordering::Relaxed) == 0
                        && self.queue.len() == 0
                        && !self.conns.values().any(Conn::has_backlog);
                    if drained || since.elapsed() >= DRAIN_GRACE {
                        return Ok(());
                    }
                }
                let timeout =
                    i32::try_from(WAIT_SLICE.as_millis().min(self.wheel.tick.as_millis()))
                        .unwrap_or(50);
                let n = match sys::epoll_wait(self.epfd, &mut events, timeout) {
                    Ok(n) => n,
                    Err(sys::EINTR) => 0,
                    Err(e) => return Err(format!("epoll_wait: errno {e}")),
                };
                for ev in &events[..n] {
                    // Copy out of the packed struct before use.
                    let (bits, token) = (ev.events, ev.data);
                    match token {
                        TOKEN_LISTENER => {
                            if !stop {
                                self.accept_all(listener)?;
                            }
                        }
                        TOKEN_WAKE => sys::eventfd_drain(wake_fd),
                        id => self.on_conn_event(id, bits),
                    }
                }
                self.process_completions(completions);
                for id in self.wheel.expired(Instant::now()) {
                    self.check_reap(id);
                }
            }
        }

        /// Accepts until the backlog is empty, registering each socket
        /// for readiness and arming its idle timer. There is no accept
        /// backpressure here — admission control happens per *request*
        /// at dispatch, where shedding can actually answer the client.
        fn accept_all(&mut self, listener: &TcpListener) -> Result<(), String> {
            loop {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        let id = self.next_id;
                        self.next_id += 1;
                        if sys::epoll_ctl(
                            self.epfd,
                            sys::EPOLL_CTL_ADD,
                            stream.as_raw_fd(),
                            sys::EPOLLIN | sys::EPOLLRDHUP,
                            id,
                        )
                        .is_err()
                        {
                            continue;
                        }
                        self.conns.insert(id, Conn::new(stream));
                        self.wheel.insert(id, self.ctx.idle_timeout);
                        self.ctx.conns.fetch_add(1, Ordering::Relaxed);
                        self.ctx.parked.fetch_add(1, Ordering::Relaxed);
                        prospector_obs::add("serve.poller.accepts", 1);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(format!("accept: {e}")),
                }
            }
        }

        /// Routes one readiness event for a connection.
        fn on_conn_event(&mut self, id: u64, bits: u32) {
            if !self.conns.contains_key(&id) {
                return;
            }
            if bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0 {
                self.drop_conn(id);
                return;
            }
            if bits & sys::EPOLLOUT != 0 {
                self.try_flush(id);
            }
            if bits & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0 {
                self.read_ready(id);
            }
        }

        /// Drains the socket into the framer, frames every complete
        /// request, dispatches / sheds, and flushes whatever the shed
        /// path wrote.
        fn read_ready(&mut self, id: u64) {
            let Some(conn) = self.conns.get_mut(&id) else { return };
            let mut chunk = [0u8; READ_CHUNK];
            let mut fatal = false;
            loop {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        conn.peer_gone = true;
                        break;
                    }
                    Ok(n) => conn.framer.push(&chunk[..n]),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        fatal = true;
                        break;
                    }
                }
            }
            if fatal {
                self.drop_conn(id);
                return;
            }
            let Some(conn) = self.conns.get_mut(&id) else { return };
            conn.idle_since = Instant::now();
            // Frame everything available; stop at the request that will
            // close the connection (any pipelined bytes after it are
            // dead on arrival anyway).
            loop {
                match conn.framer.next() {
                    Framed::Request(request) => {
                        let queued = conn.pending.len() + usize::from(conn.in_flight);
                        let close = request.close
                            || conn.served + queued + 1 >= self.ctx.keepalive_max;
                        conn.pending.push_back((request, close));
                        if close {
                            break;
                        }
                    }
                    Framed::Error(error) => {
                        conn.frame_error = Some(error);
                        break;
                    }
                    Framed::Incomplete => break,
                }
            }
            self.maybe_dispatch(id);
            self.try_flush(id);
            if let Some(conn) = self.conns.get(&id) {
                if conn.peer_gone && conn.is_parked_empty() {
                    self.drop_conn(id);
                }
            }
        }

        /// Dispatches the connection's next pending request to the
        /// worker pool — or sheds it with a poller-written `429` when
        /// the in-flight ceiling is reached. Loops so a burst of
        /// pipelined requests sheds in one pass instead of one per
        /// readiness event. Once nothing is pending or in flight, a held
        /// frame error is answered and the connection set to close.
        fn maybe_dispatch(&mut self, id: u64) {
            loop {
                let Some(conn) = self.conns.get_mut(&id) else { return };
                if conn.in_flight
                    || conn.close_after_flush
                    || self.shutdown.load(Ordering::Relaxed)
                {
                    return;
                }
                let Some((request, close)) = conn.pending.pop_front() else {
                    if let Some(error) = conn.frame_error.take() {
                        // Answered straight from the poller: a framing
                        // error needs no engine.
                        let started = Instant::now();
                        let response = frame_error_response(&error);
                        let bytes = serialize_response(&response, true);
                        let handle_ns =
                            u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                        record_request(endpoint_of(""), &response, 0, handle_ns);
                        prospector_obs::add("serve.poller.frame_errors", 1);
                        conn.out.extend_from_slice(&bytes);
                        conn.close_after_flush = true;
                    }
                    return;
                };
                if self.ctx.inflight.load(Ordering::Relaxed) >= self.ctx.max_inflight as u64 {
                    // Admission control: answer 429 + Retry-After from
                    // this thread; no worker, no queue slot.
                    let started = Instant::now();
                    let response = shed_response();
                    let bytes = serialize_response(&response, close);
                    let handle_ns =
                        u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    record_request(endpoint_of(&request.path), &response, 0, handle_ns);
                    self.ctx.shed.fetch_add(1, Ordering::Relaxed);
                    prospector_obs::add("serve.shed.total", 1);
                    conn.out.extend_from_slice(&bytes);
                    conn.served += 1;
                    if close {
                        conn.close_after_flush = true;
                        return;
                    }
                    continue;
                }
                conn.in_flight = true;
                conn.served += 1;
                self.ctx.inflight.fetch_add(1, Ordering::Relaxed);
                self.ctx.parked.fetch_sub(1, Ordering::Relaxed);
                self.queue.push(ParsedJob {
                    conn: id,
                    request,
                    close,
                    enqueued: Instant::now(),
                });
                self.ctx.depth.store(self.queue.len() as u64, Ordering::Relaxed);
                return;
            }
        }

        /// Absorbs finished requests: append the response bytes to the
        /// connection's outbound buffer, flush, and dispatch whatever
        /// pipelined request was waiting its turn.
        fn process_completions(&mut self, completions: &CompletionQueue) {
            for done in completions.drain() {
                self.ctx.inflight.fetch_sub(1, Ordering::Relaxed);
                let Some(conn) = self.conns.get_mut(&done.conn) else {
                    // The connection died while its request was with a
                    // worker; ids are never reused, so just drop it.
                    continue;
                };
                conn.in_flight = false;
                conn.idle_since = Instant::now();
                self.ctx.parked.fetch_add(1, Ordering::Relaxed);
                conn.out.extend_from_slice(&done.bytes);
                if done.close {
                    conn.close_after_flush = true;
                }
                self.try_flush(done.conn);
                self.maybe_dispatch(done.conn);
                self.try_flush(done.conn);
            }
        }

        /// Writes the outbound buffer as far as the socket allows.
        /// `WouldBlock` re-arms the registration with `EPOLLOUT`; a
        /// complete flush disarms it again and completes any deferred
        /// close.
        fn try_flush(&mut self, id: u64) {
            let epfd = self.epfd;
            let mut drop_now = false;
            {
                let Some(conn) = self.conns.get_mut(&id) else { return };
                loop {
                    if conn.out_pos >= conn.out.len() {
                        break;
                    }
                    match conn.stream.write(&conn.out[conn.out_pos..]) {
                        Ok(0) => {
                            drop_now = true;
                            break;
                        }
                        Ok(n) => conn.out_pos += n,
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            if !conn.want_write {
                                conn.want_write = true;
                                let _ = sys::epoll_ctl(
                                    epfd,
                                    sys::EPOLL_CTL_MOD,
                                    conn.stream.as_raw_fd(),
                                    sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLOUT,
                                    id,
                                );
                            }
                            return;
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(_) => {
                            drop_now = true;
                            break;
                        }
                    }
                }
                if !drop_now {
                    conn.out.clear();
                    conn.out_pos = 0;
                    if conn.want_write {
                        conn.want_write = false;
                        let _ = sys::epoll_ctl(
                            epfd,
                            sys::EPOLL_CTL_MOD,
                            conn.stream.as_raw_fd(),
                            sys::EPOLLIN | sys::EPOLLRDHUP,
                            id,
                        );
                    }
                    if conn.close_after_flush || (conn.peer_gone && conn.is_parked_empty()) {
                        drop_now = true;
                    }
                }
            }
            if drop_now {
                self.drop_conn(id);
            }
        }

        /// A timer-wheel firing for `id`: reap if still parked and idle
        /// past the timeout, otherwise reinsert at the remaining time.
        fn check_reap(&mut self, id: u64) {
            let (reap, remaining) = {
                let Some(conn) = self.conns.get(&id) else { return };
                let idle = conn.idle_since.elapsed();
                let reap = conn.is_parked_empty() && idle >= self.ctx.idle_timeout;
                (reap, self.ctx.idle_timeout.saturating_sub(idle))
            };
            if reap {
                self.drop_conn(id);
                self.ctx.reaped.fetch_add(1, Ordering::Relaxed);
                prospector_obs::add("serve.poller.reaped", 1);
            } else {
                self.wheel.insert(id, remaining);
            }
        }

        /// Deregisters and closes one connection. Safe to call with a
        /// request still in flight: the completion finds no connection
        /// and is discarded.
        fn drop_conn(&mut self, id: u64) {
            let Some(conn) = self.conns.remove(&id) else { return };
            let _ = sys::epoll_ctl(
                self.epfd,
                sys::EPOLL_CTL_DEL,
                conn.stream.as_raw_fd(),
                0,
                0,
            );
            if !conn.in_flight {
                self.ctx.parked.fetch_sub(1, Ordering::Relaxed);
            }
            self.ctx.conns.fetch_sub(1, Ordering::Relaxed);
            // `conn.stream` drops here, closing the fd.
        }
    }

    /// Raw `epoll(7)` / `eventfd(2)` syscall wrappers — std-only, no
    /// libc, in the style of `jungloid-typesys`' `slab::sys` mmap shim.
    /// Errors are `-errno` returns surfaced as positive errno values.
    mod sys {
        const SYS_READ: usize = 0;
        const SYS_WRITE: usize = 1;
        const SYS_CLOSE: usize = 3;
        const SYS_EPOLL_WAIT: usize = 232;
        const SYS_EPOLL_CTL: usize = 233;
        const SYS_EVENTFD2: usize = 290;
        const SYS_EPOLL_CREATE1: usize = 291;

        const EPOLL_CLOEXEC: usize = 0x80000;
        const EFD_CLOEXEC: usize = 0x80000;
        const EFD_NONBLOCK: usize = 0x800;

        pub const EPOLL_CTL_ADD: i32 = 1;
        pub const EPOLL_CTL_DEL: i32 = 2;
        pub const EPOLL_CTL_MOD: i32 = 3;
        pub const EPOLLIN: u32 = 0x001;
        pub const EPOLLOUT: u32 = 0x004;
        pub const EPOLLERR: u32 = 0x008;
        pub const EPOLLHUP: u32 = 0x010;
        pub const EPOLLRDHUP: u32 = 0x2000;

        /// `EINTR`, the one errno the poll loop treats as "no events".
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
            // SAFETY: `ev` lives across the call; fds are ours.
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
            // SAFETY: the buffer outlives the call and its length is
            // passed alongside.
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

        /// `eventfd2(0, EFD_CLOEXEC | EFD_NONBLOCK)` — the poller's
        /// wake-up channel.
        pub fn eventfd() -> Result<i32, isize> {
            // SAFETY: no pointers.
            let ret = unsafe { syscall4(SYS_EVENTFD2, 0, EFD_CLOEXEC | EFD_NONBLOCK, 0, 0) };
            check(ret).map(|fd| fd as i32)
        }

        /// Adds 1 to the eventfd counter, waking the poller. Failure
        /// (counter saturated) is ignored — the poller is then already
        /// guaranteed to wake.
        pub fn eventfd_ring(fd: i32) {
            let one: u64 = 1;
            // SAFETY: 8 bytes of a live stack value.
            let _ = unsafe {
                syscall4(SYS_WRITE, fd as usize, std::ptr::addr_of!(one) as usize, 8, 0)
            };
        }

        /// Zeroes the eventfd counter so it can signal again.
        pub fn eventfd_drain(fd: i32) {
            let mut buf = [0u8; 8];
            // SAFETY: 8 bytes of a live stack buffer.
            let _ = unsafe {
                syscall4(SYS_READ, fd as usize, buf.as_mut_ptr() as usize, 8, 0)
            };
        }

        /// `close(fd)` for the fds this module created raw.
        pub fn close(fd: i32) {
            // SAFETY: only called on fds this module owns.
            let _ = unsafe { syscall4(SYS_CLOSE, fd as usize, 0, 0, 0) };
        }
    }
}

//! Minimal readiness reactor — a hand-rolled `mio` subset, std-only.
//!
//! No async runtime or I/O crate exists in this build environment, so
//! the event-driven server core ([`crate::server`]) carries its own
//! readiness layer: [`Poll`] wraps the platform's readiness syscall,
//! driven through direct C-ABI declarations (the symbols are in the
//! libc that `std` already links — no new dependency), [`Token`] and
//! [`Interest`] mirror their `mio` namesakes, [`Waker`] provides the
//! cross-thread wakeup fd that lets pool workers and `shutdown()`
//! interrupt a blocked [`Poll::poll`], and [`TimerWheel`] turns idle
//! and frame deadlines into O(1)-per-tick bookkeeping instead of
//! per-connection poll intervals.
//!
//! **Backends.** [`Poll::new`] selects one, once, by target: `epoll`
//! on Linux, POSIX `poll(2)` on every other unix. Both sit behind the
//! same `Token`/`Interest`/`Events`/`Waker` surface. `epoll` keeps the
//! interest set in the kernel, so a parked connection costs nothing per
//! wakeup; `poll(2)` hands the whole set to the kernel on every call
//! (O(registered fds) per wakeup), the price of running where `epoll`
//! does not exist. Two `epoll` behaviours do not carry over, so callers
//! rely on neither:
//!
//! * closing an fd does not remove it from a `poll(2)` set, where it
//!   would report `POLLNVAL` or alias a reused fd number — always
//!   [`Poll::deregister`] before closing;
//! * `EPOLLRDHUP` has no portable equivalent — a peer's half-close
//!   shows up as readable (the read returns 0) or as a hangup.
//!
//! The `poll(2)` backend also compiles under `cfg(test)` on Linux, so
//! both backends run the same unit tests.
//!
//! Registration is **level-triggered**: a socket with unread bytes (or
//! writable space) is reported on every [`Poll::poll`] until the
//! condition clears. The connection state machine therefore never
//! needs to drain-to-`WouldBlock` for correctness, only for
//! efficiency, which keeps its partial-read/partial-write logic easy
//! to verify — the property the 1-byte-at-a-time fuzz tests in
//! `server/conn.rs` pin down.

use std::io;
use std::os::fd::RawFd;
use std::os::raw::c_int;
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

/// One readiness slot, ABI-compatible with the kernel's `struct
/// epoll_event`. On x86-64 the kernel declares it packed (a 12-byte
/// struct); other architectures use natural alignment. The `poll(2)`
/// backend fills the same slots, so [`Events`] is one buffer for both.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct RawEvent {
    events: u32,
    data: u64,
}

// Readiness bits in `epoll`'s encoding, which [`Interest`] and
// [`Event`] carry on every backend; `poll(2)` results are translated.
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

/// Caller-chosen identifier attached to a registration and echoed back
/// in every [`Event`] for that fd.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Token(pub u64);

/// Which readiness conditions a registration subscribes to. An empty
/// interest keeps the fd registered (errors and hangups are always
/// reported, by either backend) but delivers no read/write readiness —
/// the state the server parks a connection in while its query runs on
/// the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    bits: u32,
}

impl Interest {
    /// No readiness subscription (errors/hangups still delivered).
    pub const NONE: Interest = Interest { bits: 0 };
    /// Readable readiness (includes peer half-close: `EPOLLRDHUP` under
    /// `epoll`, `POLLIN`/`POLLHUP` under `poll(2)`).
    pub const READABLE: Interest = Interest {
        bits: EPOLLIN | EPOLLRDHUP,
    };
    /// Writable readiness.
    pub const WRITABLE: Interest = Interest { bits: EPOLLOUT };

    /// Whether this interest includes readable readiness.
    pub fn is_readable(self) -> bool {
        self.bits & EPOLLIN != 0
    }

    /// Whether this interest includes writable readiness.
    pub fn is_writable(self) -> bool {
        self.bits & EPOLLOUT != 0
    }
}

impl std::ops::BitOr for Interest {
    type Output = Interest;

    /// Union of two interests.
    fn bitor(self, other: Interest) -> Interest {
        Interest {
            bits: self.bits | other.bits,
        }
    }
}

/// One readiness notification from [`Poll::poll`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    token: Token,
    bits: u32,
}

impl Event {
    /// The token the ready fd was registered with.
    pub fn token(&self) -> Token {
        self.token
    }

    /// Bytes (or EOF) are waiting to be read. Peer half-close
    /// (`EPOLLRDHUP`) and full hangup both count — a read will return
    /// promptly either way.
    pub fn is_readable(&self) -> bool {
        self.bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0
    }

    /// The fd can accept more bytes without blocking.
    pub fn is_writable(&self) -> bool {
        self.bits & EPOLLOUT != 0
    }

    /// The fd is in an error state (e.g. connection reset, or an fd
    /// `poll(2)` reports invalid); the owner should close it.
    pub fn is_error(&self) -> bool {
        self.bits & EPOLLERR != 0
    }

    /// The peer hung up entirely.
    pub fn is_hangup(&self) -> bool {
        self.bits & EPOLLHUP != 0
    }
}

/// Reusable buffer of readiness events for [`Poll::poll`].
pub struct Events {
    buf: Vec<RawEvent>,
    len: usize,
}

impl Events {
    /// An event buffer receiving at most `capacity` events per poll,
    /// clamped to `[1, 4096]` — a bigger batch per wait buys nothing,
    /// and the clamp keeps the preallocation bounded.
    // lint:allow(unclamped-prealloc): this is the definition, not a call — the body clamps the operator-chosen capacity to [1, 4096] on the next line
    pub fn with_capacity(capacity: usize) -> Events {
        let capacity = capacity.clamp(1, 4096);
        Events {
            buf: vec![RawEvent { events: 0, data: 0 }; capacity],
            len: 0,
        }
    }

    /// Events delivered by the most recent [`Poll::poll`].
    pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        self.buf.iter().take(self.len).map(|ev| {
            // Copy out of the (potentially packed) struct before use.
            let bits = ev.events;
            let data = ev.data;
            Event {
                token: Token(data),
                bits,
            }
        })
    }

    /// Whether the most recent poll delivered no events (timeout).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// A readiness poller: register fds with a [`Token`] and an
/// [`Interest`], then [`Poll::poll`] for readiness.
pub struct Poll {
    backend: Backend,
}

enum Backend {
    #[cfg(target_os = "linux")]
    Epoll(epoll::Epoll),
    #[cfg(any(test, not(target_os = "linux")))]
    PollSet(pollset::PollSet),
}

/// Evaluate `$call` with `$b` bound to whichever backend `$backend`
/// holds; both backends expose the same method names.
macro_rules! on_backend {
    ($backend:expr, $b:ident => $call:expr) => {
        match $backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll($b) => $call,
            #[cfg(any(test, not(target_os = "linux")))]
            Backend::PollSet($b) => $call,
        }
    };
}

impl Poll {
    /// Create a poller on the platform's backend: `epoll` on Linux,
    /// `poll(2)` on every other unix.
    pub fn new() -> io::Result<Poll> {
        #[cfg(target_os = "linux")]
        let backend = Backend::Epoll(epoll::Epoll::new()?);
        #[cfg(not(target_os = "linux"))]
        let backend = Backend::PollSet(pollset::PollSet::default());
        Ok(Poll { backend })
    }

    /// A poller on the `poll(2)` backend whatever the platform, so Linux
    /// tests run the backend other unixes ship.
    #[cfg(test)]
    pub(crate) fn with_poll_backend() -> io::Result<Poll> {
        Ok(Poll {
            backend: Backend::PollSet(pollset::PollSet::default()),
        })
    }

    /// Start watching `fd` (level-triggered) under `token`.
    pub fn register(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        on_backend!(&mut self.backend, b => b.register(fd, token, interest))
    }

    /// Change an existing registration's interest (and/or token).
    pub fn reregister(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        on_backend!(&mut self.backend, b => b.reregister(fd, token, interest))
    }

    /// Stop watching `fd`. Call it before closing the fd: only `epoll`
    /// forgets a closed fd on its own.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        on_backend!(&mut self.backend, b => b.deregister(fd))
    }

    /// Block until at least one registered fd is ready, `timeout`
    /// elapses (`None` = forever), or a [`Waker`] fires. Returns the
    /// number of events written into `events`. `EINTR` retries
    /// internally with the timeout re-derived, so callers never see
    /// spurious zero-event wakeups from signals.
    pub fn poll(&mut self, events: &mut Events, timeout: Option<Duration>) -> io::Result<usize> {
        let deadline = timeout.map(|t| Instant::now() + t);
        loop {
            let timeout_ms: c_int = match deadline {
                None => -1,
                Some(d) => {
                    let left = d.saturating_duration_since(Instant::now());
                    // Round up so we never spin on a sub-millisecond
                    // remainder; clamp far-future deadlines to a day.
                    let ms = left
                        .as_millis()
                        .saturating_add(u128::from(left.as_nanos() % 1_000_000 != 0));
                    c_int::try_from(ms.min(86_400_000)).unwrap_or(c_int::MAX)
                }
            };
            let waited = on_backend!(&mut self.backend, b => b.wait(&mut events.buf, timeout_ms));
            match waited {
                Ok(n) => {
                    events.len = n.min(events.buf.len());
                    return Ok(events.len);
                }
                Err(err) if err.kind() == io::ErrorKind::Interrupted => {
                    events.len = 0;
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        return Ok(0);
                    }
                }
                Err(err) => {
                    events.len = 0;
                    return Err(err);
                }
            }
        }
    }
}

/// The Linux backend: an `epoll` instance holding the interest set in
/// the kernel.
#[cfg(target_os = "linux")]
mod epoll {
    use super::{Interest, RawEvent, Token};
    use std::io;
    use std::os::fd::RawFd;
    use std::os::raw::c_int;

    // The epoll syscall wrappers from the libc that std links. Declared
    // by hand because no `libc` crate exists in this image; signatures
    // match epoll_create1(2), epoll_ctl(2), epoll_wait(2), close(2).
    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut RawEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut RawEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn close(fd: c_int) -> c_int;
    }

    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;

    pub(super) struct Epoll {
        epfd: RawFd,
    }

    impl Epoll {
        /// Create a new epoll instance (`EPOLL_CLOEXEC`).
        pub(super) fn new() -> io::Result<Epoll> {
            // SAFETY: epoll_create1 takes a flags word and returns an fd
            // or -1; no pointers cross the boundary.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Epoll { epfd })
        }

        fn ctl(&self, op: c_int, fd: RawFd, bits: u32, token: Token) -> io::Result<()> {
            let mut ev = RawEvent {
                events: bits,
                data: token.0,
            };
            // SAFETY: `ev` outlives the call; the kernel copies it before
            // returning. For EPOLL_CTL_DEL the kernel ignores the pointer
            // (passing a valid one keeps pre-2.6.9 semantics happy anyway).
            let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub(super) fn register(
            &self,
            fd: RawFd,
            token: Token,
            interest: Interest,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, interest.bits, token)
        }

        pub(super) fn reregister(
            &self,
            fd: RawFd,
            token: Token,
            interest: Interest,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, interest.bits, token)
        }

        pub(super) fn deregister(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, Token(0))
        }

        /// One `epoll_wait` into `buf`; returns how many slots it filled.
        pub(super) fn wait(&self, buf: &mut [RawEvent], timeout_ms: c_int) -> io::Result<usize> {
            let max = c_int::try_from(buf.len()).unwrap_or(c_int::MAX);
            // SAFETY: the buffer holds `buf.len()` properly initialized
            // RawEvent slots and `max` never exceeds it.
            let rc = unsafe { epoll_wait(self.epfd, buf.as_mut_ptr(), max, timeout_ms) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(usize::try_from(rc).unwrap_or(0))
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            // SAFETY: we own the fd and drop it exactly once; no other
            // wrapper closes it, so the descriptor cannot be reused by a
            // concurrent open between here and the syscall.
            let rc = unsafe { close(self.epfd) };
            debug_assert!(
                rc == 0,
                "close(epfd {}) failed: {}",
                self.epfd,
                io::Error::last_os_error()
            );
        }
    }
}

/// The portable backend: the interest set lives in user space and is
/// handed whole to `poll(2)` on every wait.
#[cfg(any(test, not(target_os = "linux")))]
mod pollset {
    use super::{Interest, RawEvent, Token, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT};
    use std::collections::HashMap;
    use std::io;
    use std::os::fd::RawFd;
    use std::os::raw::{c_int, c_short};

    /// POSIX `struct pollfd`.
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    // `nfds_t`: `unsigned long` on Linux and illumos, `unsigned int` on
    // macOS and the BSDs.
    #[cfg(any(
        target_os = "linux",
        target_os = "android",
        target_os = "illumos",
        target_os = "solaris"
    ))]
    type Nfds = std::os::raw::c_ulong;
    #[cfg(not(any(
        target_os = "linux",
        target_os = "android",
        target_os = "illumos",
        target_os = "solaris"
    )))]
    type Nfds = std::os::raw::c_uint;

    // poll(2) from the libc that std links, declared by hand like the
    // epoll family.
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
    }

    // The POSIX event bits; Linux, macOS, the BSDs and illumos share
    // these values.
    const POLLIN: c_short = 0x001;
    const POLLOUT: c_short = 0x004;
    const POLLERR: c_short = 0x008;
    const POLLHUP: c_short = 0x010;
    const POLLNVAL: c_short = 0x020;

    /// The registration set: `pollfd` entries and their tokens side by
    /// side, plus an fd → slot map so (re|de)registration is O(1).
    #[derive(Default)]
    pub(super) struct PollSet {
        fds: Vec<PollFd>,
        tokens: Vec<Token>,
        slots: HashMap<RawFd, usize>,
        /// Where the next scan of ready entries starts, so a full event
        /// buffer does not starve the entries behind it.
        cursor: usize,
    }

    fn poll_events(interest: Interest) -> c_short {
        let mut events = 0;
        if interest.is_readable() {
            events |= POLLIN;
        }
        if interest.is_writable() {
            events |= POLLOUT;
        }
        events
    }

    /// Translate `revents` into the `epoll` bits [`super::Event`] reads.
    /// An invalid fd (`POLLNVAL`) reads as an error so its owner closes
    /// it.
    fn readiness(revents: c_short) -> u32 {
        let mut bits = 0;
        if revents & POLLIN != 0 {
            bits |= EPOLLIN;
        }
        if revents & POLLOUT != 0 {
            bits |= EPOLLOUT;
        }
        if revents & (POLLERR | POLLNVAL) != 0 {
            bits |= EPOLLERR;
        }
        if revents & POLLHUP != 0 {
            bits |= EPOLLHUP;
        }
        bits
    }

    fn not_registered(fd: RawFd) -> io::Error {
        io::Error::new(
            io::ErrorKind::NotFound,
            format!("fd {fd} is not registered"),
        )
    }

    impl PollSet {
        pub(super) fn register(
            &mut self,
            fd: RawFd,
            token: Token,
            interest: Interest,
        ) -> io::Result<()> {
            if self.slots.contains_key(&fd) {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    format!("fd {fd} is already registered"),
                ));
            }
            self.slots.insert(fd, self.fds.len());
            self.fds.push(PollFd {
                fd,
                events: poll_events(interest),
                revents: 0,
            });
            self.tokens.push(token);
            Ok(())
        }

        pub(super) fn reregister(
            &mut self,
            fd: RawFd,
            token: Token,
            interest: Interest,
        ) -> io::Result<()> {
            let slot = *self.slots.get(&fd).ok_or_else(|| not_registered(fd))?;
            match (self.fds.get_mut(slot), self.tokens.get_mut(slot)) {
                (Some(entry), Some(slot_token)) => {
                    entry.events = poll_events(interest);
                    *slot_token = token;
                    Ok(())
                }
                _ => Err(not_registered(fd)),
            }
        }

        pub(super) fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            let slot = self.slots.remove(&fd).ok_or_else(|| not_registered(fd))?;
            if slot >= self.fds.len() || slot >= self.tokens.len() {
                return Err(not_registered(fd));
            }
            // Fill the hole with the last entry and repoint its slot.
            self.fds.swap_remove(slot);
            self.tokens.swap_remove(slot);
            if let Some(moved) = self.fds.get(slot) {
                self.slots.insert(moved.fd, slot);
            }
            Ok(())
        }

        /// One `poll(2)` over the whole set, copying ready entries into
        /// `buf`; returns how many slots it filled.
        pub(super) fn wait(
            &mut self,
            buf: &mut [RawEvent],
            timeout_ms: c_int,
        ) -> io::Result<usize> {
            let nfds = Nfds::try_from(self.fds.len()).map_err(|_| {
                io::Error::new(io::ErrorKind::InvalidInput, "too many fds for poll(2)")
            })?;
            // SAFETY: `fds` holds `nfds` initialized pollfd entries,
            // exclusively borrowed for the call; the kernel writes only
            // their `revents` fields and keeps no pointer past return.
            let rc = unsafe { poll(self.fds.as_mut_ptr(), nfds, timeout_ms) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            let mut ready = usize::try_from(rc).unwrap_or(0);
            let len = self.fds.len();
            let start = if len == 0 { 0 } else { self.cursor % len };
            let mut filled = 0;
            for i in (start..len).chain(0..start) {
                if ready == 0 {
                    break;
                }
                let (Some(entry), Some(token)) = (self.fds.get(i), self.tokens.get(i)) else {
                    break;
                };
                if entry.revents == 0 {
                    continue;
                }
                let Some(out) = buf.get_mut(filled) else {
                    // Buffer full: the next wait starts here.
                    self.cursor = i;
                    break;
                };
                *out = RawEvent {
                    events: readiness(entry.revents),
                    data: token.0,
                };
                filled += 1;
                ready -= 1;
            }
            Ok(filled)
        }
    }
}

/// Cross-thread wakeup for a blocked [`Poll::poll`].
///
/// Implemented over a nonblocking `UnixStream` pair instead of an
/// `eventfd` so it needs no syscall beyond what std wraps and works on
/// every backend: the read half is registered with the poll (readable
/// interest) and [`Waker::wake`] writes one byte into the write half
/// from any thread. Wakes coalesce — a full pipe means a wake is
/// already pending, which is exactly the semantic wanted.
pub struct Waker {
    /// Write half; `wake()` is `&self` and the socket write is atomic
    /// for one byte, so clones of the Arc'd waker can fire concurrently.
    tx: UnixStream,
    /// Read half, registered with the poll; `drain()` empties it.
    rx: UnixStream,
}

impl Waker {
    /// Build a waker from a fresh nonblocking socketpair.
    pub fn new() -> io::Result<Waker> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Waker { tx, rx })
    }

    /// The fd to register with the poll under the waker's token.
    pub fn fd(&self) -> RawFd {
        use std::os::fd::AsRawFd;
        self.rx.as_raw_fd()
    }

    /// Make the owning poll's next (or current) `poll` call return.
    /// Never blocks: a full pipe already guarantees a pending wake.
    pub fn wake(&self) {
        use std::io::Write;
        let _ = (&self.tx).write(&[1u8]);
    }

    /// Consume pending wake bytes so level-triggered readiness clears.
    pub fn drain(&self) {
        use std::io::Read;
        let mut sink = [0u8; 64];
        loop {
            match (&self.rx).read(&mut sink) {
                Ok(0) | Err(_) => return,
                Ok(_) => {}
            }
        }
    }
}

/// A timer entry's identity: which connection, and which *arming* of
/// that connection's deadline. The wheel never deletes — a connection
/// that re-arms (new request, reply written) bumps its epoch and the
/// stale entry is ignored when its slot comes around. Expiry is
/// therefore a **candidate**, not a verdict: the owner re-checks the
/// connection's real deadline and re-inserts when it moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerEntry {
    /// Owner id (the reactor uses connection ids and sentinels).
    pub id: u64,
    /// The arming generation; stale generations are ignored at expiry.
    pub epoch: u64,
}

struct TimerSlotEntry {
    entry: TimerEntry,
    deadline_tick: u64,
}

/// Hashed timer wheel: deadlines bucketed into `tick`-wide slots. All
/// operations are O(1) amortized per entry per revolution; with the
/// server's 10 ms tick and 512 slots a 30-second idle deadline costs
/// one re-bucket roughly every 5 seconds of its life. Coarseness is
/// bounded by one tick (a deadline fires at most one tick late), which
/// is far inside the tolerance of idle/write deadlines measured in
/// hundreds of milliseconds to tens of seconds.
pub struct TimerWheel {
    slots: Vec<Vec<TimerSlotEntry>>,
    tick: Duration,
    start: Instant,
    /// Next tick index to sweep.
    cursor: u64,
    /// Live entries across all slots (stale epochs included — the owner
    /// filters those; this only gates "is any timeout outstanding").
    len: usize,
    /// Smallest `deadline_tick` that may be present, for
    /// [`TimerWheel::next_timeout`]. Re-derived on every sweep.
    hint: Option<u64>,
}

impl TimerWheel {
    /// A wheel of `slots` buckets, each `tick` wide. 512 × 10 ms covers
    /// a ~5 s revolution; longer deadlines survive extra revolutions in
    /// place (each entry stores its absolute deadline tick).
    pub fn new(slots: usize, tick: Duration) -> TimerWheel {
        let slots = slots.max(2);
        let tick = if tick.is_zero() {
            Duration::from_millis(10)
        } else {
            tick
        };
        TimerWheel {
            slots: (0..slots).map(|_| Vec::new()).collect(),
            tick,
            start: Instant::now(),
            cursor: 0,
            len: 0,
            hint: None,
        }
    }

    fn tick_of(&self, at: Instant) -> u64 {
        let elapsed = at.saturating_duration_since(self.start);
        let t = elapsed.as_nanos() / self.tick.as_nanos().max(1);
        u64::try_from(t).unwrap_or(u64::MAX)
    }

    /// Arm `entry` to become an expiry candidate at `deadline` (rounded
    /// up to the next tick boundary, so it never fires early).
    pub fn insert(&mut self, deadline: Instant, entry: TimerEntry) {
        let deadline_tick = self.tick_of(deadline).saturating_add(1);
        let nslots = self.slots.len();
        let idx = usize::try_from(deadline_tick % u64::try_from(nslots).unwrap_or(1)).unwrap_or(0);
        if let Some(slot) = self.slots.get_mut(idx) {
            slot.push(TimerSlotEntry {
                entry,
                deadline_tick,
            });
            self.len += 1;
            self.hint = Some(self.hint.map_or(deadline_tick, |h| h.min(deadline_tick)));
        }
    }

    /// Sweep every tick between the last sweep and `now`, appending the
    /// expired candidates to `expired`. Entries past their tick are
    /// removed; the owner decides whether each one is a real timeout
    /// (and re-inserts if the connection's deadline has moved).
    pub fn advance(&mut self, now: Instant, expired: &mut Vec<TimerEntry>) {
        let now_tick = self.tick_of(now);
        if now_tick < self.cursor {
            return;
        }
        let nslots = u64::try_from(self.slots.len()).unwrap_or(1);
        let span = now_tick - self.cursor;
        if span >= nslots {
            // A full revolution (or more) passed: one pass over every
            // slot sees every possible candidate.
            for slot in self.slots.iter_mut() {
                slot.retain(|e| {
                    if e.deadline_tick <= now_tick {
                        expired.push(e.entry);
                        false
                    } else {
                        true
                    }
                });
            }
        } else {
            let mut t = self.cursor;
            while t <= now_tick {
                let idx = usize::try_from(t % nslots).unwrap_or(0);
                if let Some(slot) = self.slots.get_mut(idx) {
                    slot.retain(|e| {
                        if e.deadline_tick <= now_tick {
                            expired.push(e.entry);
                            false
                        } else {
                            true
                        }
                    });
                }
                t += 1;
            }
        }
        self.cursor = now_tick + 1;
        self.len -= expired.len().min(self.len);
        // Re-derive the earliest outstanding deadline for next_timeout.
        self.hint = self
            .slots
            .iter()
            .flat_map(|s| s.iter().map(|e| e.deadline_tick))
            .min();
    }

    /// How long [`Poll::poll`] may sleep before the next deadline could
    /// fire; `None` when no timers are armed.
    pub fn next_timeout(&self, now: Instant) -> Option<Duration> {
        let target_tick = self.hint?;
        let nanos = self.tick.as_nanos().saturating_mul(u128::from(target_tick));
        let offset = Duration::from_nanos(u64::try_from(nanos).unwrap_or(u64::MAX));
        let target = self.start.checked_add(offset)?;
        Some(target.saturating_duration_since(now))
    }

    /// Are any entries armed (stale epochs included)?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::fd::AsRawFd;

    type NewPoll = fn() -> io::Result<Poll>;

    /// Every backend a test can build: the platform default and the
    /// `poll(2)` backend (the same one off Linux).
    const BACKENDS: [(&str, NewPoll); 2] =
        [("default", Poll::new), ("poll(2)", Poll::with_poll_backend)];

    #[test]
    fn poll_reports_readable_unix_stream() {
        for (backend, new_poll) in BACKENDS {
            let mut poll = new_poll().unwrap();
            let (a, b) = UnixStream::pair().unwrap();
            b.set_nonblocking(true).unwrap();
            poll.register(b.as_raw_fd(), Token(7), Interest::READABLE)
                .unwrap();
            let mut events = Events::with_capacity(8);
            // Nothing to read yet: a short poll times out empty.
            let n = poll
                .poll(&mut events, Some(Duration::from_millis(10)))
                .unwrap();
            assert_eq!(n, 0, "{backend}");
            (&a).write_all(b"x").unwrap();
            let n = poll
                .poll(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert_eq!(n, 1, "{backend}");
            let ev = events.iter().next().unwrap();
            assert_eq!(ev.token(), Token(7), "{backend}");
            assert!(ev.is_readable(), "{backend}");
            assert!(!ev.is_writable(), "{backend}");
            let mut byte = [0u8; 1];
            (&b).read_exact(&mut byte).unwrap();
            assert_eq!(&byte, b"x", "{backend}");
        }
    }

    #[test]
    fn reregister_changes_interest() {
        for (backend, new_poll) in BACKENDS {
            let mut poll = new_poll().unwrap();
            let (a, b) = UnixStream::pair().unwrap();
            b.set_nonblocking(true).unwrap();
            (&a).write_all(b"y").unwrap();
            poll.register(b.as_raw_fd(), Token(1), Interest::NONE)
                .unwrap();
            let mut events = Events::with_capacity(4);
            // Interest NONE: pending bytes do not wake the poll.
            let n = poll
                .poll(&mut events, Some(Duration::from_millis(20)))
                .unwrap();
            assert_eq!(n, 0, "{backend}: empty interest must not deliver readable");
            poll.reregister(b.as_raw_fd(), Token(1), Interest::READABLE)
                .unwrap();
            let n = poll
                .poll(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert_eq!(n, 1, "{backend}");
            // Level-triggered: still reported until drained.
            let n = poll
                .poll(&mut events, Some(Duration::from_millis(20)))
                .unwrap();
            assert_eq!(
                n, 1,
                "{backend}: level-triggered readiness persists until read"
            );
            poll.deregister(b.as_raw_fd()).unwrap();
            let n = poll
                .poll(&mut events, Some(Duration::from_millis(20)))
                .unwrap();
            assert_eq!(n, 0, "{backend}: deregistered fd delivers nothing");
            assert!(
                poll.deregister(b.as_raw_fd()).is_err(),
                "{backend}: a second deregister names the missing fd"
            );
        }
    }

    #[test]
    fn waker_wakes_a_blocked_poll_and_coalesces() {
        for (backend, new_poll) in BACKENDS {
            let mut poll = new_poll().unwrap();
            let waker = std::sync::Arc::new(Waker::new().unwrap());
            poll.register(waker.fd(), Token(0), Interest::READABLE)
                .unwrap();
            let mut events = Events::with_capacity(4);
            let w = std::sync::Arc::clone(&waker);
            let t = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                // Many wakes from another thread coalesce into >= 1 event.
                for _ in 0..1000 {
                    w.wake();
                }
            });
            let n = poll
                .poll(&mut events, Some(Duration::from_secs(10)))
                .unwrap();
            assert_eq!(n, 1, "{backend}");
            assert_eq!(events.iter().next().unwrap().token(), Token(0));
            t.join().unwrap();
            waker.drain();
            let n = poll
                .poll(&mut events, Some(Duration::from_millis(20)))
                .unwrap();
            assert_eq!(n, 0, "{backend}: drained waker is quiet");
        }
    }

    /// More ready fds than the event buffer holds: successive polls must
    /// reach every one of them, not report the first ones forever.
    #[test]
    fn a_full_event_buffer_does_not_starve_later_fds() {
        for (backend, new_poll) in BACKENDS {
            let mut poll = new_poll().unwrap();
            let pairs: Vec<(UnixStream, UnixStream)> =
                (0..3).map(|_| UnixStream::pair().unwrap()).collect();
            for (i, (peer, watched)) in pairs.iter().enumerate() {
                (&*peer).write_all(b"x").unwrap();
                poll.register(watched.as_raw_fd(), Token(i as u64), Interest::READABLE)
                    .unwrap();
            }
            let mut events = Events::with_capacity(1);
            let mut seen = std::collections::BTreeSet::new();
            for _ in 0..3 {
                let n = poll
                    .poll(&mut events, Some(Duration::from_secs(5)))
                    .unwrap();
                assert_eq!(n, 1, "{backend}");
                seen.extend(events.iter().map(|ev| ev.token()));
            }
            assert_eq!(seen.len(), 3, "{backend}: every ready fd is reported");
        }
    }

    /// Deregister, close, and reopen an fd under the same number: the
    /// poll must report only the new registration's token. Other tests
    /// open fds concurrently, so an attempt whose number was taken in
    /// between is retried with a fresh fd.
    #[test]
    fn reused_fd_number_delivers_no_stale_event() {
        for (backend, new_poll) in BACKENDS {
            let mut poll = new_poll().unwrap();
            let mut events = Events::with_capacity(8);
            let mut reused = false;
            for _ in 0..50 {
                let (old_peer, old) = UnixStream::pair().unwrap();
                let old_fd = old.as_raw_fd();
                (&old_peer).write_all(b"stale").unwrap();
                poll.register(old_fd, Token(1), Interest::READABLE).unwrap();
                poll.deregister(old_fd).unwrap();
                drop(old);
                drop(old_peer);
                let (peer, new) = UnixStream::pair().unwrap();
                let (mut writer, target) = if new.as_raw_fd() == old_fd {
                    (&peer, &new)
                } else if peer.as_raw_fd() == old_fd {
                    (&new, &peer)
                } else {
                    continue;
                };
                reused = true;
                poll.register(old_fd, Token(2), Interest::READABLE).unwrap();
                writer.write_all(b"fresh").unwrap();
                let n = poll
                    .poll(&mut events, Some(Duration::from_secs(5)))
                    .unwrap();
                assert_eq!(n, 1, "{backend}: one registration, one event");
                let tokens: Vec<Token> = events.iter().map(|ev| ev.token()).collect();
                assert_eq!(tokens, vec![Token(2)], "{backend}: no stale token");
                poll.deregister(target.as_raw_fd()).unwrap();
                break;
            }
            assert!(reused, "{backend}: the fd number was never reused");
        }
    }

    #[test]
    fn timer_wheel_orders_and_expires() {
        let mut wheel = TimerWheel::new(8, Duration::from_millis(5));
        let t0 = Instant::now();
        wheel.insert(
            t0 + Duration::from_millis(10),
            TimerEntry { id: 1, epoch: 0 },
        );
        wheel.insert(
            t0 + Duration::from_millis(500),
            TimerEntry { id: 2, epoch: 0 },
        );
        assert!(!wheel.is_empty());
        let mut expired = Vec::new();
        wheel.advance(t0, &mut expired);
        assert!(expired.is_empty(), "nothing expires at insert time");
        // Far enough for entry 1, not 2 — and 500ms > 8*5ms, so entry 2
        // must survive multiple revolutions in place.
        wheel.advance(t0 + Duration::from_millis(80), &mut expired);
        assert_eq!(expired, vec![TimerEntry { id: 1, epoch: 0 }]);
        expired.clear();
        wheel.advance(t0 + Duration::from_millis(400), &mut expired);
        assert!(
            expired.is_empty(),
            "multi-revolution entry fires only at its tick"
        );
        wheel.advance(t0 + Duration::from_millis(600), &mut expired);
        assert_eq!(expired, vec![TimerEntry { id: 2, epoch: 0 }]);
        assert!(wheel.is_empty());
        assert_eq!(wheel.next_timeout(Instant::now()), None);
    }

    #[test]
    fn timer_wheel_next_timeout_tracks_earliest() {
        let mut wheel = TimerWheel::new(16, Duration::from_millis(10));
        let t0 = Instant::now();
        assert_eq!(wheel.next_timeout(t0), None);
        wheel.insert(
            t0 + Duration::from_millis(300),
            TimerEntry { id: 9, epoch: 3 },
        );
        let wait = wheel.next_timeout(t0).unwrap();
        assert!(
            wait >= Duration::from_millis(290) && wait <= Duration::from_millis(330),
            "{wait:?}"
        );
        wheel.insert(
            t0 + Duration::from_millis(50),
            TimerEntry { id: 4, epoch: 0 },
        );
        let wait = wheel.next_timeout(t0).unwrap();
        assert!(wait <= Duration::from_millis(80), "{wait:?}");
        let mut expired = Vec::new();
        wheel.advance(t0 + Duration::from_millis(120), &mut expired);
        assert_eq!(expired, vec![TimerEntry { id: 4, epoch: 0 }]);
        let wait = wheel.next_timeout(t0 + Duration::from_millis(120)).unwrap();
        assert!(wait <= Duration::from_millis(210), "{wait:?}");
    }

    #[test]
    fn poll_timeout_rounds_up_not_down() {
        for (backend, new_poll) in BACKENDS {
            let mut poll = new_poll().unwrap();
            let mut events = Events::with_capacity(1);
            let start = Instant::now();
            let n = poll
                .poll(&mut events, Some(Duration::from_micros(1500)))
                .unwrap();
            assert_eq!(n, 0, "{backend}");
            // 1.5ms rounds up to 2ms, never down to 1ms-and-spin.
            assert!(start.elapsed() >= Duration::from_millis(1), "{backend}");
        }
    }
}

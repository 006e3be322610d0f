//! The client side: closed-loop and pipelined connections, their
//! correctness gates, and the timed window they run in.
//!
//! Every connection runs on its own thread. A run goes: connect and warm
//! up, meet at a barrier, let the main thread read every counter, then
//! load the server until the deadline. Meanwhile the main thread reads
//! the allocation count and the host's steal ticks at the boundaries of
//! [`SLICES`] equal slices of the window. After the threads are joined
//! it reads every counter again; the window is the time between the two
//! full readings.
//!
//! A traced window alternates: its even slices are traced (spans
//! recorded, allocations counted) and its odd slices are not, so the
//! cost of tracing is judged within one window, under the same host
//! noise.

use crate::procfs::{self, HostTicks};
use crate::setup::{Deployment, Load, Terms, Workload, CONNECTIONS, PIPELINE_DEPTH, R};
use crate::trace::{self, Open, SpanLog};
use crate::window::{Counters, Delta};
use authsearch_core::wire::{self, Reply, Request, FRAME_HEADER_LEN};
use authsearch_core::{Client, Connection, VerifierParams};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::AddAssign;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

/// Error messages kept per connection; the rest are only counted.
const MAX_NOTED_ERRORS: usize = 4;

/// Slices of a window. The host's steal share differs from slice to
/// slice, and the end-to-end figures are scaled by it slice by slice
/// (see [`crate::stats::at_zero_steal`]).
pub const SLICES: usize = 20;

/// A window that has not reached its sample target by the deadline is
/// extended, up to this many times its length.
const MAX_EXTENSION: u32 = 4;

/// Totals over checked replies (the traced run's per-query view).
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplyStats {
    pub replies: u64,
    pub entries_read: u64,
    pub vo_data_bytes: u64,
    pub vo_digest_bytes: u64,
    pub signatures: u64,
}

impl AddAssign for ReplyStats {
    fn add_assign(&mut self, o: ReplyStats) {
        self.replies += o.replies;
        self.entries_read += o.entries_read;
        self.vo_data_bytes += o.vo_data_bytes;
        self.vo_digest_bytes += o.vo_digest_bytes;
        self.signatures += o.signatures;
    }
}

/// What one window produced.
pub struct Outcome {
    /// Per completed query, request to verdict (or to reply, pipelined).
    pub latencies_us: Vec<f64>,
    /// Per completed query, when it completed (seconds into the window).
    pub done_s: Vec<f64>,
    /// Readings at the edges of each slice, from the window's opening
    /// to its close.
    pub marks: Vec<Mark>,
    pub completed: u64,
    pub failed: u64,
    /// Failures before the window opened (warm-up, verification pass).
    pub warm_failed: u64,
    pub errors: Vec<String>,
    pub logs: Vec<SpanLog>,
    pub replies: ReplyStats,
    pub delta: Delta,
}

/// Allocations and host ticks at a slice edge.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    /// Seconds into the window.
    pub t: f64,
    pub allocs: u64,
    pub host: HostTicks,
}

impl Mark {
    fn now(start: Instant) -> Result<Mark, String> {
        Ok(Mark {
            t: start.elapsed().as_secs_f64(),
            allocs: trace::process_allocs(),
            host: procfs::host_ticks()?,
        })
    }
}

/// Rates over one slice of a window.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    /// Index in the window; in a traced window, even slices are traced.
    pub k: usize,
    /// Seconds into the window.
    pub t0: f64,
    pub t1: f64,
    pub completed: u64,
    pub qps: f64,
    /// Allocations counted in the slice (traced slices only count).
    pub allocs: u64,
    pub steal_share: f64,
}

/// Consecutive slices of a window taken together.
#[derive(Debug, Clone)]
pub struct Group {
    pub steal_share: f64,
    pub qps: f64,
    /// Latencies of the queries completed in the group.
    pub latencies_us: Vec<f64>,
}

impl Outcome {
    /// Per-slice rates, in time order.
    pub fn slices(&self) -> Vec<Slice> {
        let last = self.marks.len().saturating_sub(2);
        self.marks
            .windows(2)
            .enumerate()
            .map(|(k, m)| {
                let (a, b) = (m[0], m[1]);
                let n = self
                    .done_s
                    .iter()
                    .filter(|&&d| in_slice(d, a.t, b.t, k == last))
                    .count() as u64;
                Slice {
                    k,
                    t0: a.t,
                    t1: b.t,
                    completed: n,
                    qps: n as f64 / (b.t - a.t),
                    allocs: b.allocs - a.allocs,
                    steal_share: procfs::steal_share(a.host, b.host),
                }
            })
            .collect()
    }

    /// Consecutive slices merged, in time order, until each group holds
    /// at least `min` completions; a remainder short of `min` joins the
    /// last group, and a window short of `min` is one group.
    pub fn groups(&self, min: u64) -> Vec<Group> {
        let slices = self.slices();
        let mut bounds: Vec<(usize, usize)> = Vec::new();
        let (mut first, mut count) = (0, 0);
        for (i, s) in slices.iter().enumerate() {
            count += s.completed;
            if count >= min {
                bounds.push((first, i));
                first = i + 1;
                count = 0;
            }
        }
        if first < slices.len() {
            let from = bounds.pop().map_or(first, |(from, _)| from);
            bounds.push((from, slices.len() - 1));
        }
        bounds.into_iter().map(|(a, b)| self.group(a, b)).collect()
    }

    /// Slices `a..=b` as one group.
    fn group(&self, a: usize, b: usize) -> Group {
        let (m0, m1) = (self.marks[a], self.marks[b + 1]);
        let last = b + 2 == self.marks.len();
        let latencies_us: Vec<f64> = self
            .done_s
            .iter()
            .zip(&self.latencies_us)
            .filter(|&(&d, _)| in_slice(d, m0.t, m1.t, last))
            .map(|(_, &l)| l)
            .collect();
        let n = latencies_us.len() as f64;
        Group {
            steal_share: procfs::steal_share(m0.host, m1.host),
            qps: n / (m1.t - m0.t),
            latencies_us,
        }
    }
}

impl Outcome {
    /// A traced window's slices, traced and untraced, without the last
    /// one: it holds the window's tail, when the connections stop.
    pub fn phases(&self) -> (Vec<Slice>, Vec<Slice>) {
        let mut slices = self.slices();
        slices.pop();
        slices.into_iter().partition(|s| s.k % 2 == 0)
    }

    /// The cost of tracing: `1 - traced / untraced` rate, in percent,
    /// from the median rates of the traced and untraced slices of one
    /// window.
    pub fn trace_overhead_pct(&self) -> Result<f64, String> {
        let (on, off) = self.phases();
        if on.is_empty() || off.is_empty() {
            return Err("the traced window has too few slices to compare".to_string());
        }
        let rate = |s: &[Slice]| crate::stats::median(&s.iter().map(|s| s.qps).collect::<Vec<_>>());
        Ok((1.0 - rate(&on) / rate(&off)) * 100.0)
    }
}

/// Whether a completion at `d` seconds falls in the slice `[t0, t1)`;
/// the last slice also takes what completed after its closing reading.
fn in_slice(d: f64, t0: f64, t1: f64, last: bool) -> bool {
    d >= t0 && (d < t1 || last)
}

/// The request frame of a closed-loop or pipelined query.
pub fn request(terms: &Terms) -> Request {
    Request::Terms {
        terms: terms.clone(),
        r: R as u32,
        want_digests: false,
    }
}

/// The verify gate: decode a reply payload, check the echo, verify the
/// proof against the owner's parameters, and require the verified
/// result to equal the one the server sent. Decode and verify are
/// recorded as spans under `parent`.
pub fn check_reply(
    client: &Client,
    terms: &Terms,
    kind: u8,
    payload: &[u8],
    log: &mut SpanLog,
    query: u64,
    parent: Option<&Open>,
) -> Result<ReplyStats, String> {
    let reply = log
        .time("wire.reply_decode", query, parent, || {
            wire::decode_reply_payload(kind, payload)
        })
        .map_err(|e| format!("reply decode: {e}"))?;
    let response = match reply {
        Reply::Ok {
            terms: echo,
            response,
        } if echo == *terms => response,
        Reply::Ok { terms: echo, .. } => {
            return Err(format!("server echoed {echo:?} for {terms:?}"))
        }
        Reply::OkDigest { .. } => return Err("unsolicited digest-mode reply".to_string()),
        Reply::Err { code, message } => return Err(format!("server error {code}: {message}")),
    };
    let verified = log
        .time("verify", query, parent, || {
            client.verify_terms(terms, R, &response)
        })
        .map_err(|e| format!("verify: {e}"))?;
    if verified.result != response.result {
        return Err("verified result differs from the reply's".to_string());
    }
    let size = response.vo.size();
    let sig_len = client.params().public_key.signature_len().max(1);
    Ok(ReplyStats {
        replies: 1,
        entries_read: response.entries_read.iter().sum::<usize>() as u64,
        vo_data_bytes: size.data as u64,
        vo_digest_bytes: size.digest as u64,
        signatures: (size.signature / sig_len) as u64,
    })
}

/// The byte gate of the pipelined workload: one verified reply per
/// distinct query, against which every repeat is compared byte for byte.
pub struct References {
    slots: Vec<OnceLock<(u8, Vec<u8>)>>,
}

impl References {
    pub fn new(n: usize) -> References {
        References {
            slots: (0..n).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Record the verified reply of query `qid`.
    pub fn set(&self, qid: usize, kind: u8, payload: &[u8]) {
        // A query is verified once, by the one connection that owns it.
        let _ = self.slots[qid].set((kind, payload.to_vec()));
    }

    pub fn check(&self, qid: usize, kind: u8, payload: &[u8]) -> Result<(), String> {
        match self.slots.get(qid).and_then(OnceLock::get) {
            Some((k, bytes)) if *k == kind && bytes.as_slice() == payload => Ok(()),
            Some(_) => Err(format!(
                "reply to query {qid} differs from its verified reply"
            )),
            None => Err(format!("query {qid} has no verified reply")),
        }
    }
}

fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    Ok(stream)
}

/// Read one reply frame into `payload`; returns its kind.
pub fn read_reply(stream: &mut TcpStream, payload: &mut Vec<u8>) -> Result<u8, String> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    stream
        .read_exact(&mut header)
        .map_err(|e| format!("read header: {e}"))?;
    let (kind, len) = wire::decode_frame_header(&header).map_err(|e| format!("header: {e}"))?;
    payload.resize(len, 0);
    stream
        .read_exact(payload)
        .map_err(|e| format!("read payload: {e}"))?;
    Ok(kind)
}

/// State shared by the connection threads of one window.
struct Shared<'a> {
    addr: SocketAddr,
    params: &'a VerifierParams,
    queries: &'a [Terms],
    frames: &'a [Vec<u8>],
    references: References,
    traced: bool,
    epoch: Instant,
    warmup: Duration,
    ready: Barrier,
    go: Barrier,
    window: OnceLock<Window>,
    /// Sampled completions the window must reach before it may close.
    min_samples: u64,
    /// Sampled completions so far, over all connections: every query of
    /// an untraced window, the traced queries of a traced one.
    completed: AtomicU64,
    /// The slice the window is in, as the main thread last cut it.
    phase: AtomicU64,
}

/// The timed window, as the main thread opened it.
#[derive(Debug, Clone, Copy)]
struct Window {
    start: Instant,
    deadline: Instant,
    /// The latest the window may be extended to.
    cap: Instant,
}

impl Shared<'_> {
    /// Wait until the main thread has read the counters and opened the
    /// window.
    fn open_window(&self) -> Window {
        self.ready.wait();
        self.go.wait();
        *self
            .window
            .get()
            .expect("the window is set before the go barrier")
    }

    /// Whether a connection should start another query: until the
    /// deadline, and past it while the sample target is unmet.
    fn running(&self, w: &Window) -> bool {
        let now = Instant::now();
        now < w.deadline
            || (now < w.cap && self.completed.load(Ordering::Relaxed) < self.min_samples)
    }

    /// Whether a query starting now is traced (in a traced run, during
    /// an even slice, and before the window), and the slice it is in.
    fn tracing(&self) -> (bool, u64) {
        let phase = self.phase.load(Ordering::SeqCst);
        (self.traced && phase.is_multiple_of(2), phase)
    }

    /// Whether the main thread has cut a new slice since `phase`.
    fn moved_on(&self, phase: u64) -> bool {
        self.phase.load(Ordering::SeqCst) != phase
    }

    /// Record one completed query on `tally`; a `sampled` one counts
    /// towards the window's sample target.
    fn complete(&self, w: &Window, tally: &mut Tally, latency_us: f64, sampled: bool) {
        tally.completed += 1;
        tally.latencies_us.push(latency_us);
        tally.done_s.push(w.start.elapsed().as_secs_f64());
        if sampled {
            self.completed.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// One connection thread's tally.
struct Tally {
    log: SpanLog,
    latencies_us: Vec<f64>,
    done_s: Vec<f64>,
    completed: u64,
    failed: u64,
    warm_failed: u64,
    errors: Vec<String>,
    replies: ReplyStats,
}

impl Tally {
    fn new(shared: &Shared) -> Tally {
        Tally {
            log: SpanLog::new(shared.epoch, false),
            latencies_us: Vec::new(),
            done_s: Vec::new(),
            completed: 0,
            failed: 0,
            warm_failed: 0,
            errors: Vec::new(),
            replies: ReplyStats::default(),
        }
    }

    fn note(&mut self, error: String) {
        if self.errors.len() < MAX_NOTED_ERRORS {
            self.errors.push(error);
        }
    }
}

/// Query ids are unique per run: connection in the high bits.
fn query_id(connection: usize, seq: u64) -> u64 {
    ((connection as u64) << 40) | seq
}

/// One closed-loop query through the real client: `Connection::query_terms`
/// encodes, writes, reads, decodes, checks the echo, and verifies.
fn closed_untraced(conn: &mut Connection, terms: &Terms) -> Result<(), String> {
    let (verified, response) = conn.query_terms(terms, R).map_err(|e| e.to_string())?;
    if verified.result != response.result {
        return Err("verified result differs from the reply's".to_string());
    }
    Ok(())
}

/// The same steps as `Connection::query_terms`, in the same order, each
/// inside a span: request encode, write and read (the round trip),
/// reply decode, echo check, verify.
fn closed_traced(
    stream: &mut TcpStream,
    client: &Client,
    terms: &Terms,
    query: u64,
    log: &mut SpanLog,
    payload: &mut Vec<u8>,
) -> Result<ReplyStats, String> {
    let root = log.start("query", query, None);
    let result = (|| {
        let frame = log
            .time("wire.request_encode", query, Some(&root), || {
                request(terms).encode_frame()
            })
            .map_err(|e| format!("request encode: {e}"))?;
        let rtt = log.start("transport.rtt", query, Some(&root));
        let kind = stream
            .write_all(&frame)
            .map_err(|e| format!("write: {e}"))
            .and_then(|()| read_reply(stream, payload));
        log.end(rtt);
        check_reply(client, terms, kind?, payload, log, query, Some(&root))
    })();
    log.end(root);
    result
}

/// A closed-loop connection: the next query goes out when the previous
/// verdict is in. Connection `c` starts `c/CONNECTIONS` of the way into
/// the query pool and walks it cyclically; it starts there again when
/// the window opens, so every window of a seed poses the same queries
/// in the same order, however long the warm-up ran.
fn closed_connection(shared: &Shared, c: usize) -> Result<Tally, String> {
    let mut tally = Tally::new(shared);
    let n = shared.queries.len();
    let first = c * n / CONNECTIONS;
    let cursor = std::cell::Cell::new(first);
    let mut seq = 0u64;
    let client = Client::new(shared.params.clone());
    let mut payload = Vec::new();
    // The untraced run uses the real client; the traced run performs
    // its steps one by one on a raw socket.
    enum Link {
        Real(Box<Connection>),
        Raw(TcpStream),
    }
    let prepared = if shared.traced {
        connect(shared.addr).map(Link::Raw)
    } else {
        Connection::connect(shared.addr, shared.params.clone())
            .map(|c| Link::Real(Box::new(c)))
            .map_err(|e| format!("connect: {e}"))
    };
    // Returns the latency, and whether the query was traced from start
    // to end within one traced slice. The spans of a query that ran into
    // an untraced slice are dropped: its allocations were only partly
    // counted.
    let mut run_one = |link: &mut Link, tally: &mut Tally| -> Result<(f64, bool), String> {
        let terms = &shared.queries[cursor.get() % n];
        cursor.set(cursor.get() + 1);
        seq += 1;
        let (on, phase) = shared.tracing();
        tally.log.enabled = on;
        let spans_before = tally.log.spans.len();
        let t = Instant::now();
        let stats = match link {
            Link::Real(conn) => closed_untraced(conn, terms).map(|()| ReplyStats::default())?,
            Link::Raw(stream) => closed_traced(
                stream,
                &client,
                terms,
                query_id(c, seq),
                &mut tally.log,
                &mut payload,
            )?,
        };
        let us = t.elapsed().as_secs_f64() * 1e6;
        let whole = on && !shared.moved_on(phase);
        if whole {
            tally.replies += stats;
        } else {
            tally.log.spans.truncate(spans_before);
        }
        Ok((us, whole))
    };
    let warmed = prepared.and_then(|mut link| {
        let until = Instant::now() + shared.warmup;
        while Instant::now() < until {
            if let Err(e) = run_one(&mut link, &mut tally) {
                tally.warm_failed += 1;
                tally.note(format!("warm-up: {e}"));
                return Err(e);
            }
        }
        Ok(link)
    });
    let window = shared.open_window();
    let mut link = warmed?;
    cursor.set(first);
    tally.log.spans.clear();
    tally.replies = ReplyStats::default();
    while shared.running(&window) {
        match run_one(&mut link, &mut tally) {
            Ok((us, traced)) => shared.complete(&window, &mut tally, us, traced || !shared.traced),
            Err(e) => {
                // The stream may be out of step with the replies; every
                // later answer on it would be misattributed.
                tally.failed += 1;
                tally.note(e);
                break;
            }
        }
    }
    Ok(tally)
}

/// A pipelined connection. Before the window it verifies the reply to
/// every query it owns (`qid % CONNECTIONS == c`) and records it as the
/// reference; in the window it keeps `PIPELINE_DEPTH` pre-encoded
/// request frames in flight, cycling through all queries, and
/// byte-compares each reply with its reference. A query sent in a
/// traced slice encodes its frame afresh and records its spans.
fn pipelined_connection(shared: &Shared, c: usize) -> Result<Tally, String> {
    let depth = PIPELINE_DEPTH;
    let mut tally = Tally::new(shared);
    tally.log.enabled = shared.traced;
    let n = shared.queries.len();
    let client = Client::new(shared.params.clone());
    let mut payload = Vec::new();
    let prepared = connect(shared.addr).and_then(|mut stream| {
        let owned: Vec<usize> = (c..n).step_by(CONNECTIONS).collect();
        let mut sent = 0;
        let mut in_flight = VecDeque::new();
        for _ in 0..owned.len() {
            while in_flight.len() < depth && sent < owned.len() {
                let qid = owned[sent];
                stream
                    .write_all(&shared.frames[qid])
                    .map_err(|e| format!("write: {e}"))?;
                in_flight.push_back(qid);
                sent += 1;
            }
            let qid = in_flight
                .pop_front()
                .expect("one request per expected reply");
            let kind = read_reply(&mut stream, &mut payload)?;
            let query = query_id(c, qid as u64);
            match check_reply(
                &client,
                &shared.queries[qid],
                kind,
                &payload,
                &mut tally.log,
                query,
                None,
            ) {
                Ok(stats) => {
                    tally.replies += stats;
                    shared.references.set(qid, kind, &payload);
                }
                Err(e) => {
                    tally.warm_failed += 1;
                    tally.note(format!("verification pass: {e}"));
                }
            }
        }
        Ok(stream)
    });
    let window = shared.open_window();
    let mut stream = prepared?;
    let mut next = c * n / CONNECTIONS;
    let mut seq = 0u64;
    let mut in_flight: VecDeque<(usize, u64, Instant, Option<Open>)> =
        VecDeque::with_capacity(depth);
    let mut encoded;
    loop {
        while in_flight.len() < depth && shared.running(&window) {
            let qid = next % n;
            next += 1;
            seq += 1;
            let query = query_id(c, seq);
            let (on, _) = shared.tracing();
            let frame = if on {
                encoded = tally
                    .log
                    .time("wire.request_encode", query, None, || {
                        request(&shared.queries[qid]).encode_frame()
                    })
                    .map_err(|e| format!("request encode: {e}"))?;
                &encoded
            } else {
                &shared.frames[qid]
            };
            let rtt = on.then(|| tally.log.start("transport.rtt", query, None));
            let sent_at = Instant::now();
            if let Err(e) = stream.write_all(frame) {
                tally.failed += 1 + in_flight.len() as u64;
                tally.note(format!("write: {e}"));
                return Ok(tally);
            }
            in_flight.push_back((qid, query, sent_at, rtt));
        }
        let Some((qid, query, sent_at, rtt)) = in_flight.pop_front() else {
            break;
        };
        let kind = read_reply(&mut stream, &mut payload);
        let us = sent_at.elapsed().as_secs_f64() * 1e6;
        let traced = rtt.is_some();
        if let Some(rtt) = rtt {
            tally.log.end(rtt);
        }
        let kind = match kind {
            Ok(kind) => kind,
            Err(e) => {
                tally.failed += 1 + in_flight.len() as u64;
                tally.note(e);
                return Ok(tally);
            }
        };
        let check = || shared.references.check(qid, kind, &payload);
        let gate = if traced {
            tally.log.time("gate.bytes", query, None, check)
        } else {
            check()
        };
        match gate {
            Ok(()) => shared.complete(&window, &mut tally, us, traced || !shared.traced),
            Err(e) => {
                tally.failed += 1;
                tally.note(e);
            }
        }
    }
    Ok(tally)
}

fn start_of(shared: &Shared) -> Instant {
    shared
        .window
        .get()
        .expect("the window was opened before the connections were joined")
        .start
}

/// Drive `workload` against the deployment for `seconds` after a warm-up,
/// reading every counter at both edges of the window. A window that has
/// fewer than `min_samples` sampled completions at its deadline runs on,
/// in further slices of the same length, until it has them (or until
/// [`MAX_EXTENSION`] times its length). With `traced`, the even slices
/// record spans and count allocations.
#[allow(clippy::too_many_arguments)]
pub fn run(
    d: &Deployment,
    workload: Workload,
    queries: &[Terms],
    seconds: f64,
    min_samples: u64,
    warmup: Duration,
    traced: bool,
    epoch: Instant,
) -> Result<Outcome, String> {
    let frames = match workload.load() {
        Load::Pipeline => queries
            .iter()
            .map(|q| request(q).encode_frame())
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("request encode: {e}"))?,
        Load::Closed => Vec::new(),
    };
    let shared = Shared {
        addr: d.handle.addr(),
        params: &d.params,
        queries,
        frames: &frames,
        references: References::new(queries.len()),
        traced,
        epoch,
        warmup,
        ready: Barrier::new(CONNECTIONS + 1),
        go: Barrier::new(CONNECTIONS + 1),
        window: OnceLock::new(),
        min_samples,
        completed: AtomicU64::new(0),
        phase: AtomicU64::new(0),
    };
    trace::set_counting(traced);
    let length = Duration::from_secs_f64(seconds);
    let (before, marks, tallies, after) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let shared = &shared;
                s.spawn(move || match workload.load() {
                    Load::Closed => closed_connection(shared, c),
                    Load::Pipeline => pipelined_connection(shared, c),
                })
            })
            .collect();
        shared.ready.wait();
        let before = Counters::read(d);
        let start = Instant::now();
        let _ = shared.window.set(Window {
            start,
            deadline: start + length,
            cap: start + length * MAX_EXTENSION,
        });
        shared.go.wait();
        let slice = length / SLICES as u32;
        let finished = || handles.iter().all(|h| h.is_finished());
        let mut marks = Vec::with_capacity(SLICES - 1);
        for k in 1u32.. {
            let boundary = start + slice * k;
            // Past the deadline, a slice is cut only while the window is
            // still extending for its sample target.
            let extending = || shared.completed.load(Ordering::Relaxed) < shared.min_samples;
            while Instant::now() < boundary && !finished() {
                let left = boundary.saturating_duration_since(Instant::now());
                std::thread::sleep(left.min(Duration::from_millis(20)));
            }
            if finished() || (k as usize >= SLICES && !extending()) {
                break;
            }
            marks.push(Mark::now(start));
            if traced {
                trace::set_counting(k % 2 == 0);
                shared.phase.store(u64::from(k), Ordering::SeqCst);
            }
        }
        let tallies: Vec<Result<Tally, String>> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("connection thread panicked".to_string()))
            })
            .collect();
        let after = Counters::read(d);
        (before, marks, tallies, after)
    });
    trace::set_counting(false);
    let (before, after) = (before?, after?);
    let delta = Delta::between(&before, &after);
    let mut edges = vec![Mark {
        t: 0.0,
        allocs: before.allocs,
        host: before.host,
    }];
    for mark in marks {
        edges.push(mark?);
    }
    let end = Mark {
        t: (after.at - start_of(&shared)).as_secs_f64(),
        allocs: after.allocs,
        host: after.host,
    };
    // A last slice shorter than half a slice (the window met its sample
    // target just after a cut) joins the one before it.
    if edges.len() > 1 && end.t - edges[edges.len() - 1].t < seconds / SLICES as f64 / 2.0 {
        edges.pop();
    }
    edges.push(end);
    let mut outcome = Outcome {
        latencies_us: Vec::new(),
        done_s: Vec::new(),
        marks: edges,
        completed: 0,
        failed: 0,
        warm_failed: 0,
        errors: Vec::new(),
        logs: Vec::new(),
        replies: ReplyStats::default(),
        delta,
    };
    for tally in tallies {
        let t = tally?;
        outcome.latencies_us.extend(t.latencies_us);
        outcome.done_s.extend(t.done_s);
        outcome.completed += t.completed;
        outcome.failed += t.failed;
        outcome.warm_failed += t.warm_failed;
        outcome.errors.extend(t.errors);
        outcome.logs.push(t.log);
        outcome.replies += t.replies;
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup;

    /// Offset of the first result's document id in an OK reply payload:
    /// `u16` echo count, 8 bytes per echoed term, `u32` result count.
    fn first_result_doc(payload: &[u8]) -> usize {
        let echoed = usize::from(u16::from_le_bytes([payload[0], payload[1]]));
        2 + 8 * echoed + 4
    }

    /// An outcome whose samples complete evenly over `seconds`, with
    /// `steal[k]` ticks of 100 stolen in slice `k` (none where `steal`
    /// is short).
    fn outcome(latencies_us: Vec<f64>, seconds: f64, steal: &[u64]) -> Outcome {
        let n = latencies_us.len();
        let mut stolen = 0;
        Outcome {
            done_s: (0..n).map(|i| seconds * i as f64 / n as f64).collect(),
            latencies_us,
            marks: (0..=SLICES)
                .map(|k| {
                    if k > 0 {
                        stolen += steal.get(k - 1).copied().unwrap_or(0);
                    }
                    Mark {
                        t: seconds * k as f64 / SLICES as f64,
                        allocs: 0,
                        host: HostTicks {
                            steal: stolen,
                            total: 100 * k as u64,
                        },
                    }
                })
                .collect(),
            completed: n as u64,
            failed: 0,
            warm_failed: 0,
            errors: Vec::new(),
            logs: Vec::new(),
            replies: ReplyStats::default(),
            delta: Delta::default(),
        }
    }

    #[test]
    fn slices_report_rates_per_slice() {
        let o = outcome(vec![5.0; 1000], 10.0, &[]);
        let slices = o.slices();
        assert_eq!(slices.len(), SLICES);
        for s in slices {
            assert_eq!(s.completed, 50);
            assert!((s.qps - 100.0).abs() < 1e-9);
            assert_eq!(s.steal_share, 0.0);
        }
    }

    #[test]
    fn groups_merge_slices_until_they_hold_enough_samples() {
        // 50 completions per slice; slice k loses k ticks of 100 to steal.
        let steal: Vec<u64> = (0..SLICES as u64).collect();
        let o = outcome(vec![5.0; 1000], 10.0, &steal);
        let each = o.groups(1);
        assert_eq!(each.len(), SLICES);
        for (k, g) in each.iter().enumerate() {
            assert!((g.qps - 100.0).abs() < 1e-9);
            assert!((g.steal_share - k as f64 / 100.0).abs() < 1e-12);
        }
        // Three slices make 150 >= 120; the two left over join the last.
        let sizes: Vec<usize> = o.groups(120).iter().map(|g| g.latencies_us.len()).collect();
        assert_eq!(sizes, [150, 150, 150, 150, 150, 250]);
        let first = &o.groups(120)[0];
        assert!(
            (first.steal_share - 0.01).abs() < 1e-12,
            "(0 + 1 + 2) / 300"
        );
        // Fewer samples than asked for: the whole window.
        let all = o.groups(5000);
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].latencies_us.len(), 1000);
    }

    #[test]
    fn a_flipped_byte_fails_the_byte_gate_and_the_verify_gate() {
        let w = Workload::SyntheticTnra;
        let corpus = setup::corpus(w, 3, true);
        let d = setup::deploy(&corpus, w.mechanism()).expect("deploy");
        let queries = setup::queries(w, &d.engine, 3);
        let client = Client::new(d.params.clone());
        let mut log = SpanLog::new(Instant::now(), false);
        let mut stream = connect(d.handle.addr()).expect("connect");
        let mut payload = Vec::new();
        // The first query with a non-empty result.
        let (terms, kind) = queries
            .iter()
            .find_map(|terms| {
                let frame = request(terms).encode_frame().expect("encode");
                stream.write_all(&frame).expect("write");
                let kind = read_reply(&mut stream, &mut payload).expect("reply");
                let results = u32::from_le_bytes(
                    payload[first_result_doc(&payload) - 4..first_result_doc(&payload)]
                        .try_into()
                        .expect("4 bytes"),
                );
                (results > 0).then_some((terms, kind))
            })
            .expect("some query has results");

        let references = References::new(1);
        check_reply(&client, terms, kind, &payload, &mut log, 0, None)
            .expect("the honest reply verifies");
        references.set(0, kind, &payload);
        references
            .check(0, kind, &payload)
            .expect("the honest reply matches itself");

        // Flip one bit of the first result's document id. The reply
        // still decodes, so it is the proof check that must refuse it.
        let mut tampered = payload.clone();
        tampered[first_result_doc(&payload)] ^= 0x01;
        assert!(wire::decode_reply_payload(kind, &tampered).is_ok());
        let verify_gate = check_reply(&client, terms, kind, &tampered, &mut log, 0, None);
        assert!(
            verify_gate.is_err(),
            "the verify gate accepted a tampered reply"
        );
        assert!(references.check(0, kind, &tampered).is_err());

        // Any single flipped byte fails the byte gate.
        for at in (0..payload.len()).step_by(97) {
            let mut t = payload.clone();
            t[at] ^= 0x80;
            assert!(references.check(0, kind, &t).is_err(), "byte {at}");
        }
        assert!(references.check(0, kind ^ 1, &payload).is_err());
        assert!(References::new(1).check(0, kind, &payload).is_err());
        d.shutdown();
    }
}

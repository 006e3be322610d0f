//! PR 9 perf-trajectory benchmark: the event-driven server core and
//! the fixed-width / fused-squaring Montgomery kernels.
//!
//! Emits machine-readable `BENCH_PR9.json` (override the path with
//! `--out <path>`; corpus with `--scale <frac>`, key with
//! `--key-bits <n>`, workload with `--queries <n>`, parked crowd with
//! `--idle-conns <n>`). Three sections:
//!
//! * **transport** — a verified `query_terms` workload against the
//!   reactor, reporting syscalls per query (accepts + reads + writes +
//!   polls from [`authsearch_core::TransportStats`], divided by
//!   `requests_ok`), allocations and allocated bytes per reply
//!   (counting global allocator; process-wide, so the client's share
//!   is included), and reply bytes on the wire
//!   (`bytes_out / requests_ok`);
//! * **idle capacity** — the reactor parks `--idle-conns` raw
//!   connections, serves verified traffic past them, and proves a
//!   sample still answers. Honest caveats: both endpoints are
//!   in-process on loopback, CI gives ~1 CPU, and each parked
//!   connection costs two fds in-process, so the ceiling here is the
//!   fd limit, not the reactor (9,900 parked connections verified
//!   locally under `ulimit -n` 20000);
//! * **crypto kernels** — chained-REDC microbenchmarks at the paper's
//!   two widths (k = 8 limbs / 512-bit, k = 16 / 1024-bit) comparing
//!   the PR-1 generic CIOS path against the PR-9 fixed-width kernels
//!   and the fused squaring kernel, plus end-to-end sign/verify rows
//!   at both key sizes.
//!
//! Plain `std::time` loops, no dev-dependencies, CI-smoke friendly.

use authsearch_bench::json::{num, Json};
use authsearch_core::{AuthConfig, DataOwner, Mechanism, SearchEngine, VerifierParams};
use authsearch_core::{
    Connection, Server, ServerConfig, ServerMetricsSnapshot, TransportStatsSnapshot,
};
use authsearch_corpus::SyntheticConfig;
use authsearch_crypto::bignum::bench_kernels::{redc_reps, BenchKernel};
use authsearch_crypto::bignum::{BigUint, Montgomery};
use authsearch_crypto::keys::{cached_keypair, PAPER_KEY_BITS};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `System` allocator wrapped with relaxed alloc/byte counters, so the
/// transport section can report allocations per reply without any
/// profiler dependency.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method delegates to `System` with the caller's own
// layout/pointer arguments unchanged, so `System`'s contract is the
// one the caller already promised; the counters are atomics and add
// no unsafety of their own.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: forwards the caller's layout to `System.alloc` untouched.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }
    // SAFETY: forwards the caller's pointer and layout to
    // `System.dealloc` untouched.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    // SAFETY: forwards the caller's pointer, layout, and size to
    // `System.realloc` untouched.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_snapshot() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

const TOP_R: usize = 5;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = String::from("BENCH_PR9.json");
    let mut scale_frac = 0.01f64;
    let mut key_bits = PAPER_KEY_BITS;
    let mut num_queries = 60usize;
    let mut idle_conns = 512usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out_path = it.next().expect("--out needs a value").clone(),
            "--scale" => {
                scale_frac = it
                    .next()
                    .expect("--scale needs a value")
                    .parse()
                    .expect("bad --scale value")
            }
            "--key-bits" => {
                key_bits = it
                    .next()
                    .expect("--key-bits needs a value")
                    .parse()
                    .expect("bad --key-bits value")
            }
            "--queries" => {
                num_queries = it
                    .next()
                    .expect("--queries needs a value")
                    .parse()
                    .expect("bad --queries value")
            }
            "--idle-conns" => {
                idle_conns = it
                    .next()
                    .expect("--idle-conns needs a value")
                    .parse()
                    .expect("bad --idle-conns value")
            }
            other => panic!("unknown flag {other:?}"),
        }
    }

    eprintln!(
        "bench_pr9: scale={scale_frac} key_bits={key_bits} queries={num_queries} \
         idle_conns={idle_conns}"
    );

    let (engine, params, workloads) = fixture(scale_frac, key_bits);

    eprintln!("bench_pr9: transport workload on the reactor...");
    let reactor = transport_run(&engine, params.clone(), &workloads, num_queries);

    eprintln!("bench_pr9: parking {idle_conns} idle connections on the reactor...");
    let idle = idle_run(&engine, params, &workloads, idle_conns);

    eprintln!("bench_pr9: crypto kernel rows (k = 8 and k = 16)...");
    let kernels: Vec<KernelRow> = [8usize, 16].iter().map(|&k| kernel_run(k)).collect();

    eprintln!("bench_pr9: sign/verify rows (512- and 1024-bit keys)...");
    let signatures: Vec<SignRow> = [512usize, 1024]
        .iter()
        .map(|&bits| sign_run(bits))
        .collect();

    let json = render(
        scale_frac,
        key_bits,
        num_queries,
        &reactor,
        &idle,
        &kernels,
        &signatures,
    );
    std::fs::write(&out_path, &json).expect("write bench output");
    println!("{json}");
    eprintln!("bench_pr9: wrote {out_path}");
}

/// Engine, broadcast verifier parameters, and `(term, f_qt)` workloads.
type Fixture = (Arc<SearchEngine>, VerifierParams, Vec<Vec<(u32, u32)>>);

fn fixture(scale_frac: f64, key_bits: usize) -> Fixture {
    let docs = ((172_961.0 * scale_frac) as usize).max(120);
    let corpus = SyntheticConfig::tiny(docs, 41).generate();
    let owner = DataOwner::with_cached_key(key_bits);
    let config = AuthConfig {
        key_bits,
        ..AuthConfig::new(Mechanism::TnraCmht)
    };
    let publication = owner.publish(&corpus, config);
    let num_terms = publication.auth.index().num_terms();
    let workloads: Vec<Vec<(u32, u32)>> =
        authsearch_corpus::workload::synthetic(num_terms, 6, 2, 9)
            .into_iter()
            .map(|terms| {
                let mut pairs: Vec<(u32, u32)> = terms.iter().map(|&t| (t, 1)).collect();
                pairs.sort_unstable();
                pairs.dedup_by_key(|p| p.0);
                pairs
            })
            .collect();
    (
        Arc::new(SearchEngine::new(publication.auth, corpus)),
        publication.verifier_params,
        workloads,
    )
}

/// One transport measurement: syscall, allocation, and wire-byte costs
/// of `queries` verified roundtrips against the reactor.
struct TransportRow {
    queries: u64,
    elapsed: Duration,
    transport: TransportStatsSnapshot,
    metrics: ServerMetricsSnapshot,
    allocs: u64,
    alloc_bytes: u64,
}

fn transport_run(
    engine: &Arc<SearchEngine>,
    params: VerifierParams,
    workloads: &[Vec<(u32, u32)>],
    queries: usize,
) -> TransportRow {
    let handle = Server::start(Arc::clone(engine), "127.0.0.1:0", ServerConfig::default())
        .expect("bind loopback");
    let mut connection = Connection::connect(handle.addr(), params).expect("connect");

    // Warm both sides (cache fills, lazy buffers) outside the window.
    let warm = &workloads[0];
    connection.query_terms(warm, TOP_R).expect("warm query");

    let transport_before = handle.transport_stats();
    let (allocs_before, bytes_before) = alloc_snapshot();
    let started = Instant::now();
    for i in 0..queries {
        let pairs = &workloads[i % workloads.len()];
        let (verified, response) = connection.query_terms(pairs, TOP_R).expect("verified");
        assert_eq!(verified.result, response.result);
    }
    let elapsed = started.elapsed();
    let (allocs_after, bytes_after) = alloc_snapshot();
    let transport_after = handle.transport_stats();

    drop(connection);
    let metrics = handle.shutdown();
    TransportRow {
        queries: queries as u64,
        elapsed,
        transport: TransportStatsSnapshot {
            accepts: transport_after.accepts - transport_before.accepts,
            reads: transport_after.reads - transport_before.reads,
            writes: transport_after.writes - transport_before.writes,
            polls: transport_after.polls - transport_before.polls,
        },
        metrics,
        allocs: allocs_after - allocs_before,
        alloc_bytes: bytes_after - bytes_before,
    }
}

/// Idle-capacity measurement on the reactor: park `target` raw
/// connections, serve verified traffic past them, prove a sample still
/// answers.
struct IdleRow {
    target: usize,
    establish: Duration,
    serviced_after_idle: usize,
    total: Duration,
}

fn idle_run(
    engine: &Arc<SearchEngine>,
    params: VerifierParams,
    workloads: &[Vec<(u32, u32)>],
    target: usize,
) -> IdleRow {
    let handle = Server::start(
        Arc::clone(engine),
        "127.0.0.1:0",
        ServerConfig {
            max_connections: target + 16,
            idle_deadline: Duration::ZERO, // parked forever is legal here
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");

    let started = Instant::now();
    let mut parked: Vec<TcpStream> = Vec::with_capacity(target);
    for i in 0..target {
        match TcpStream::connect(handle.addr()) {
            Ok(stream) => parked.push(stream),
            Err(e) => panic!("dial {i}/{target} failed: {e} (raise ulimit -n?)"),
        }
    }
    let establish = started.elapsed();

    let mut connection = Connection::connect(handle.addr(), params).expect("connect");
    for pairs in workloads {
        let (verified, response) = connection.query_terms(pairs, TOP_R).expect("verified");
        assert_eq!(verified.result, response.result);
    }

    let sample = [0, target / 2, target - 1];
    for &idx in &sample {
        let (kind, _) = raw_roundtrip(&mut parked[idx], &workloads[0]);
        assert_eq!(
            kind,
            authsearch_core::wire::kind::REPLY_OK,
            "parked conn {idx} must answer"
        );
    }
    let total = started.elapsed();

    drop(parked);
    drop(connection);
    let stats = handle.shutdown();
    assert_eq!(stats.connections as usize, target + 1);
    assert_eq!(stats.connections_shed, 0);
    IdleRow {
        target,
        establish,
        serviced_after_idle: sample.len(),
        total,
    }
}

/// Write one `REQ_TERMS` frame on a raw stream and read back exactly
/// one reply frame, returning `(kind, payload)`.
fn raw_roundtrip(stream: &mut TcpStream, pairs: &[(u32, u32)]) -> (u8, Vec<u8>) {
    use authsearch_core::wire;
    let frame = wire::Request::Terms {
        terms: pairs.to_vec(),
        r: TOP_R as u32,
        want_digests: false,
    }
    .encode_frame()
    .expect("encodable request");
    stream.write_all(&frame).expect("request written");
    let mut header = [0u8; wire::FRAME_HEADER_LEN];
    stream.read_exact(&mut header).expect("reply header");
    let (kind, len) = wire::decode_frame_header(&header).expect("reply header decodes");
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload).expect("reply payload");
    (kind, payload)
}

/// Chained-REDC nanoseconds per op for every kernel variant at one
/// width, from the same deterministic modulus and operand.
struct KernelRow {
    k: usize,
    mul_generic_ns: f64,
    mul_fixed_ns: f64,
    sqr_via_mul_ns: f64,
    sqr_fused_generic_ns: f64,
    sqr_fused_fixed_ns: f64,
}

/// xorshift64* — deterministic operand material for the kernel rows.
fn limb_stream(mut state: u64) -> impl FnMut() -> u64 {
    move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

fn kernel_run(k: usize) -> KernelRow {
    let mut next = limb_stream(0x9E37_79B9_7F4A_7C15 ^ k as u64);
    // Odd modulus with the top bit set: a valid Montgomery width-k
    // modulus shaped like an RSA-n of the same size.
    let mut modulus_limbs: Vec<u64> = (0..k).map(|_| next()).collect();
    modulus_limbs[0] |= 1;
    modulus_limbs[k - 1] |= 1 << 63;
    let modulus = biguint_from_limbs(&modulus_limbs);
    let ctx = Montgomery::new(&modulus).expect("odd modulus");
    let seed_limbs: Vec<u64> = (0..k - 1).map(|_| next()).collect();
    let seed = biguint_from_limbs(&seed_limbs);

    let reps = 200_000 / k; // same total limb work per width
    let time = |kernel: BenchKernel| -> f64 {
        // Best-of-3 to shrug off scheduler noise on shared CI.
        let mut best = f64::INFINITY;
        let mut sink = 0u64;
        for _ in 0..3 {
            let started = Instant::now();
            sink ^= redc_reps(&ctx, &seed, reps, kernel);
            let ns = started.elapsed().as_nanos() as f64 / reps as f64;
            best = best.min(ns);
        }
        assert_ne!(sink, u64::MAX, "keep the chain alive");
        best
    };

    KernelRow {
        k,
        mul_generic_ns: time(BenchKernel::MulGeneric),
        mul_fixed_ns: time(BenchKernel::MulDispatch),
        sqr_via_mul_ns: time(BenchKernel::SqrViaGenericMul),
        sqr_fused_generic_ns: time(BenchKernel::SqrGenericFused),
        sqr_fused_fixed_ns: time(BenchKernel::SqrDispatch),
    }
}

/// Big-endian bytes from little-endian limbs, then through the public
/// [`BigUint`] constructor (its `limbs` field is crate-private).
fn biguint_from_limbs(limbs: &[u64]) -> BigUint {
    let mut bytes = Vec::with_capacity(limbs.len() * 8);
    for limb in limbs.iter().rev() {
        bytes.extend_from_slice(&limb.to_be_bytes());
    }
    BigUint::from_bytes_be(&bytes)
}

/// End-to-end sign/verify wall times at one key size.
struct SignRow {
    bits: usize,
    sign_us: f64,
    verify_us: f64,
}

fn sign_run(bits: usize) -> SignRow {
    let key = cached_keypair(bits);
    let reps = if bits >= 1024 { 40 } else { 120 };
    let message = b"bench_pr9 sign/verify row";
    let signature = key.sign(message).expect("sign");

    let started = Instant::now();
    for _ in 0..reps {
        key.sign(message).expect("sign");
    }
    let sign_us = started.elapsed().as_micros() as f64 / reps as f64;

    let public = key.public_key();
    let started = Instant::now();
    for _ in 0..reps {
        public.verify(message, &signature).expect("verify");
    }
    let verify_us = started.elapsed().as_micros() as f64 / reps as f64;

    SignRow {
        bits,
        sign_us,
        verify_us,
    }
}

fn per_query(total: u64, queries: u64) -> f64 {
    total as f64 / queries.max(1) as f64
}

fn render(
    scale_frac: f64,
    key_bits: usize,
    num_queries: usize,
    reactor: &TransportRow,
    idle: &IdleRow,
    kernels: &[KernelRow],
    signatures: &[SignRow],
) -> String {
    let mut json = Json::new();
    json.open(1, "config");
    json.field(2, "scale", &num(scale_frac), false);
    json.field(2, "key_bits", &key_bits.to_string(), false);
    json.field(2, "queries", &num_queries.to_string(), false);
    json.field(2, "mechanism", "\"tnra_cmht\"", true);
    json.close(1, false);

    json.open(1, "transport");
    json.open(2, "reactor");
    let q = reactor.queries;
    let syscalls = reactor.transport.accepts
        + reactor.transport.reads
        + reactor.transport.writes
        + reactor.transport.polls;
    json.field(3, "queries", &q.to_string(), false);
    json.field(
        3,
        "queries_per_sec",
        &num(q as f64 / reactor.elapsed.as_secs_f64()),
        false,
    );
    json.field(3, "reads", &reactor.transport.reads.to_string(), false);
    json.field(3, "writes", &reactor.transport.writes.to_string(), false);
    json.field(3, "polls", &reactor.transport.polls.to_string(), false);
    json.field(3, "syscalls_per_query", &num(per_query(syscalls, q)), false);
    json.field(
        3,
        "allocs_per_reply_process_wide",
        &num(per_query(reactor.allocs, q)),
        false,
    );
    json.field(
        3,
        "alloc_bytes_per_reply_process_wide",
        &num(per_query(reactor.alloc_bytes, q)),
        false,
    );
    json.field(
        3,
        "reply_bytes_per_query",
        &num(per_query(
            reactor.metrics.bytes_out,
            reactor.metrics.requests_ok,
        )),
        false,
    );
    json.field(
        3,
        "requests_ok",
        &reactor.metrics.requests_ok.to_string(),
        true,
    );
    json.close(2, true);
    json.close(1, false);

    json.open(1, "idle_capacity_reactor");
    json.field(2, "parked_connections", &idle.target.to_string(), false);
    json.field(
        2,
        "establish_secs",
        &num(idle.establish.as_secs_f64()),
        false,
    );
    json.field(
        2,
        "serviced_after_idle",
        &idle.serviced_after_idle.to_string(),
        false,
    );
    json.field(2, "total_secs", &num(idle.total.as_secs_f64()), false);
    json.field(
        2,
        "note",
        "\"both endpoints in-process on loopback, ~1 CPU in CI; each parked \
         connection costs two fds in-process so the ceiling is the fd limit, \
         not the reactor (9900 parked connections verified locally under \
         ulimit -n 20000)\"",
        true,
    );
    json.close(1, false);

    json.open(1, "montgomery_kernels");
    for (i, row) in kernels.iter().enumerate() {
        json.open(2, &format!("k{}", row.k));
        json.field(3, "limbs", &row.k.to_string(), false);
        json.field(3, "mul_generic_ns", &num(row.mul_generic_ns), false);
        json.field(3, "mul_fixed_ns", &num(row.mul_fixed_ns), false);
        json.field(
            3,
            "mul_fixed_speedup",
            &num(row.mul_generic_ns / row.mul_fixed_ns),
            false,
        );
        json.field(3, "sqr_via_generic_mul_ns", &num(row.sqr_via_mul_ns), false);
        json.field(
            3,
            "sqr_fused_generic_ns",
            &num(row.sqr_fused_generic_ns),
            false,
        );
        json.field(3, "sqr_fused_fixed_ns", &num(row.sqr_fused_fixed_ns), false);
        json.field(
            3,
            "sqr_fused_speedup_vs_mul",
            &num(row.sqr_via_mul_ns / row.sqr_fused_fixed_ns),
            true,
        );
        json.close(2, i + 1 == kernels.len());
    }
    json.close(1, false);

    json.open(1, "signatures");
    for (i, row) in signatures.iter().enumerate() {
        json.open(2, &format!("rsa{}", row.bits));
        json.field(3, "sign_us", &num(row.sign_us), false);
        json.field(3, "verify_us", &num(row.verify_us), true);
        json.close(2, i + 1 == signatures.len());
    }
    json.close(1, true);
    json.finish()
}

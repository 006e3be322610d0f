//! Benchmark of verified queries against the authenticated search server.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload synthetic_tnra --seed 1 --seconds 25 --trace 0
//! ```
//!
//! One process sets up the system (owner key, index, signed structures,
//! server on loopback), drives one workload from two client connections,
//! checks every answer, and prints one JSON result as the last line of
//! stdout. `--trace 0` prints the end-to-end metrics; `--trace 1` runs an
//! untraced and then a traced window and prints the per-layer metrics.
//! See `perfbench/README.md` for the workloads and metrics.

mod crypto;
mod load;
mod procfs;
mod report;
mod setup;
mod stats;
mod trace;
mod window;

use load::Outcome;
use report::{Values, END_TO_END, PER_LAYER};
use setup::{Deployment, Workload};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::SpanLog;

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// Environment variables that change the program under measurement
/// (pool width, server core, admission cap, idle deadline).
const PINNED_ENV: [&str; 4] = [
    "AUTHSEARCH_THREADS",
    "AUTHSEARCH_CORE",
    "AUTHSEARCH_MAX_CONNECTIONS",
    "AUTHSEARCH_IDLE_MS",
];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    /// Smoke-test size: a tiny corpus, one set-up, short warm-up.
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut tiny = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--tiny" => tiny = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.unwrap_or(false),
        tiny,
    })
}

fn refuse_pinned_env() -> Result<(), String> {
    let set: Vec<&str> = PINNED_ENV
        .into_iter()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: it changes the program under measurement",
            set.join(", ")
        ))
    }
}

/// Set up `reps` times and keep the last deployment running. Earlier
/// ones are shut down before the next starts, so their threads are gone.
fn set_up(
    corpus: &authsearch_corpus::Corpus,
    workload: Workload,
    reps: usize,
) -> Result<(Deployment, Vec<setup::SetupTiming>), String> {
    let mut timings = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        if let Some(previous) = last.take() {
            Deployment::shutdown(previous);
        }
        let d = setup::deploy(corpus, workload.mechanism())?;
        timings.push(d.timing);
        last = Some(d);
    }
    let d = last.ok_or("no set-up ran")?;
    Ok((d, timings))
}

fn p(sorted: &[f64], pct: f64, what: &str) -> Result<f64, String> {
    stats::percentile(sorted, pct)
        .map(|p| p.value)
        .map_err(|e| format!("{what}: {e}"))
}

/// `(steal share, rate)` of each slice of a window.
fn rate_points(o: &Outcome) -> Vec<(f64, f64)> {
    o.groups(1).iter().map(|g| (g.steal_share, g.qps)).collect()
}

/// `(steal share, pct-th latency)` of each run of slices that holds
/// enough samples for a p99 (ten beyond it). A window short of that
/// (`trec_tra`) is one group.
fn latency_points(o: &Outcome, pct: f64) -> Result<Vec<(f64, f64)>, String> {
    o.groups((stats::MIN_BEYOND * 100) as u64)
        .iter()
        .map(|g| {
            let value = p(&stats::sorted(g.latencies_us.clone()), pct, "latency")?;
            Ok((g.steal_share, value))
        })
        .collect()
}

fn points_json(points: &[(f64, f64)]) -> String {
    points
        .iter()
        .map(|(steal, value)| format!("[{value:.1}, {steal:.4}]"))
        .collect::<Vec<_>>()
        .join(", ")
}

fn per(total: u64, n: u64) -> f64 {
    total as f64 / n.max(1) as f64
}

/// Everything a run measured, before it is turned into metrics.
struct Run {
    workload: Workload,
    timings: Vec<setup::SetupTiming>,
    pool_width: usize,
    untraced: Outcome,
    traced: Option<Outcome>,
    crypto: Option<crypto::CryptoRates>,
    peak_rss_mib: f64,
}

impl Run {
    fn outcomes(&self) -> impl Iterator<Item = &Outcome> {
        [Some(&self.untraced), self.traced.as_ref()]
            .into_iter()
            .flatten()
    }

    /// Failed queries, counted on both sides: the client's failures
    /// (transport errors, BUSY/TIMEOUT frames, byte mismatches, rejected
    /// proofs) and the server's own error count, whichever is larger.
    fn failed(&self) -> u64 {
        self.outcomes()
            .map(|o| (o.failed + o.warm_failed).max(o.delta.server_failures()))
            .sum()
    }

    fn attempted(&self) -> u64 {
        let client: u64 = self
            .outcomes()
            .map(|o| o.completed + o.failed + o.warm_failed)
            .sum();
        client.max(self.failed())
    }

    fn errors(&self) -> impl Iterator<Item = &String> {
        self.outcomes().flat_map(|o| o.errors.iter())
    }

    fn end_to_end(&self, v: &mut Values) -> Result<(), String> {
        // Wall-clock figures at zero steal: one point per slice, or per
        // run of slices holding enough samples for the percentile, each
        // scaled by the share of the CPU the host left.
        let o = &self.untraced;
        let k = self.workload.steal_exponents();
        v.set(
            "verified_qps",
            stats::at_zero_steal(&rate_points(o), k.rate, false),
        );
        v.set(
            "latency_p50_us",
            stats::at_zero_steal(&latency_points(o, 50.0)?, k.p50, true),
        );
        v.set(
            "latency_p99_us",
            stats::at_zero_steal(&latency_points(o, 99.0)?, k.p99, true),
        );
        // Process CPU is read only at the window's edges: one point.
        let cpu_us_per_query = o.delta.process_cpu_s * 1e6 / o.completed.max(1) as f64;
        v.set(
            "cpu_us_per_query",
            stats::at_zero_steal(&[(o.delta.steal_share, cpu_us_per_query)], k.cpu, true),
        );
        v.set(
            "reply_bytes_per_query",
            o.delta.per_request(o.delta.bytes_out),
        );
        let totals: Vec<f64> = self.timings.iter().map(|t| t.total_s()).collect();
        v.set("setup_s", stats::median(&totals));
        v.set("peak_rss_mib", self.peak_rss_mib);
        Ok(())
    }

    fn per_layer(&self, v: &mut Values) -> Result<(), String> {
        let median_of = |f: fn(&setup::SetupTiming) -> f64| {
            stats::median(&self.timings.iter().map(f).collect::<Vec<_>>())
        };
        v.set("owner.keygen_s", median_of(|t| t.keygen_s));
        v.set("index.build_s", median_of(|t| t.index_s));
        v.set("auth.build_s", median_of(|t| t.auth_s));
        v.set("server.start_s", median_of(|t| t.start_s));

        // Counters: from the untraced window.
        let o = &self.untraced;
        let d = &o.delta;
        let per_query = |cpu_s: f64| cpu_s * 1e6 / o.completed.max(1) as f64;
        v.set("pool.cpu_us_per_query", per_query(d.pool_cpu_s));
        v.set("reactor.cpu_us_per_query", per_query(d.reactor_cpu_s));
        v.set("client.cpu_us_per_query", per_query(d.client_cpu_s()));
        v.set("transport.syscalls_per_query", d.per_request(d.syscalls));
        v.set(
            "cache.term_hit_ratio",
            window::hit_ratio(d.term_hits, d.term_misses),
        );
        v.set("cache.term_misses_per_query", d.per_request(d.term_misses));
        v.set(
            "cache.doc_hit_ratio",
            window::hit_ratio(d.doc_hits, d.doc_misses),
        );
        v.set("cache.doc_misses_per_query", d.per_request(d.doc_misses));
        v.set("wire.request_bytes_per_query", d.per_request(d.bytes_in));

        // Spans and per-reply counts: from the traced window.
        let t = self
            .traced
            .as_ref()
            .ok_or("the traced window did not run")?;
        let logs = &t.logs;
        let span_p =
            |name: &str, pct: f64| p(&stats::sorted(SpanLog::durations_us(logs, name)), pct, name);
        v.set(
            "wire.request_encode_us.p50",
            span_p("wire.request_encode", 50.0)?,
        );
        v.set("transport.rtt_us.p50", span_p("transport.rtt", 50.0)?);
        v.set("transport.rtt_us.p99", span_p("transport.rtt", 99.0)?);
        v.set(
            "wire.reply_decode_us.p50",
            span_p("wire.reply_decode", 50.0)?,
        );
        v.set("verify.us.p50", span_p("verify", 50.0)?);
        v.set("verify.us.p99", span_p("verify", 99.0)?);
        let r = &t.replies;
        v.set(
            "engine.entries_read_per_query",
            per(r.entries_read, r.replies),
        );
        v.set("vo.data_bytes", per(r.vo_data_bytes, r.replies));
        v.set("vo.digest_bytes", per(r.vo_digest_bytes, r.replies));
        v.set("vo.signatures", per(r.signatures, r.replies));
        let (verify_allocs, verifies) = SpanLog::allocs(logs, "verify");
        let (decode_allocs, decodes) = SpanLog::allocs(logs, "wire.reply_decode");
        v.set(
            "alloc.verify_per_query",
            per(verify_allocs, verifies as u64),
        );
        v.set(
            "alloc.reply_decode_per_query",
            per(decode_allocs, decodes as u64),
        );
        // Allocations are counted in the traced slices only.
        let (traced_slices, _) = t.phases();
        v.set(
            "alloc.process_per_query",
            per(
                traced_slices.iter().map(|s| s.allocs).sum(),
                traced_slices.iter().map(|s| s.completed).sum(),
            ),
        );

        let c = self.crypto.ok_or("the crypto probe did not run")?;
        v.set("crypto.sha256_mib_s", c.sha256_mib_s);
        v.set("crypto.combine_ns", c.combine_ns);
        v.set("crypto.rsa_verify_us", c.rsa_verify_us);
        v.set("crypto.rsa_sign_us", c.rsa_sign_us);

        v.set("trace.overhead_pct", t.trace_overhead_pct()?);
        Ok(())
    }

    /// A line of context for every result: host, pool width, steal,
    /// sample counts, and the CPU split of the untraced window.
    fn context_json(&self, seed: u64) -> String {
        let o = &self.untraced;
        let d = &o.delta;
        let share = |s: f64| s / d.process_cpu_s.max(f64::MIN_POSITIVE);
        format!(
            "{{\"context\": {{\"workload\": {}, \"seed\": {seed}, \"traced\": {}, \
             \"available_parallelism\": {}, \"pool_threads\": {}, \"cpu_model\": {}, \
             \"steal_share\": {:.4}, \"window_s\": {:.3}, \"latency_samples\": {}, \
             \"cpu_share\": {{\"client\": {:.3}, \"pool\": {:.3}, \"reactor\": {:.3}}}, \
             \"term_hit_ratio\": {:.4}, \"error_rate\": {}, \"setup_s\": [{}], \
             \"window_qps\": {:.1}, \"qps_and_steal_by_slice\": [{}], \
             \"p50_and_steal_by_group\": [{}], \"p99_and_steal_by_group\": [{}]{}}}}}",
            report::json_str(self.workload.name()),
            self.traced.is_some(),
            authsearch_core::pool::available_parallelism(),
            self.pool_width,
            report::json_str(&procfs::cpu_model()),
            d.steal_share,
            d.wall_s,
            o.latencies_us.len(),
            share(d.client_cpu_s()),
            share(d.pool_cpu_s),
            share(d.reactor_cpu_s),
            window::hit_ratio(d.term_hits, d.term_misses),
            per(self.failed(), self.attempted()),
            self.timings
                .iter()
                .map(|t| format!("{:.4}", t.total_s()))
                .collect::<Vec<_>>()
                .join(", "),
            o.completed as f64 / d.wall_s,
            points_json(&rate_points(o)),
            points_json(&latency_points(o, 50.0).unwrap_or_default()),
            points_json(&latency_points(o, 99.0).unwrap_or_default()),
            self.traced
                .as_ref()
                .map(|t| {
                    let (on, off) = t.phases();
                    format!(
                        ", \"trace_steal_share\": {{\"traced\": {:.4}, \"untraced\": {:.4}}}",
                        mean_steal(&on),
                        mean_steal(&off)
                    )
                })
                .unwrap_or_default(),
        )
    }
}

/// Mean steal share over `slices` (weighted by their length).
fn mean_steal(slices: &[load::Slice]) -> f64 {
    let time: f64 = slices.iter().map(|s| s.t1 - s.t0).sum();
    slices
        .iter()
        .map(|s| s.steal_share * (s.t1 - s.t0))
        .sum::<f64>()
        / time.max(f64::MIN_POSITIVE)
}

/// Where the traced run writes its spans: beside the build output.
fn spans_path(workload: Workload) -> std::path::PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("perfbench/target"));
    dir.join("perfbench-spans")
        .join(format!("{}.jsonl", workload.name()))
}

fn write_spans(workload: Workload, logs: &[SpanLog]) -> Result<std::path::PathBuf, String> {
    let path = spans_path(workload);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    trace::write_jsonl(logs, &mut out).map_err(|e| format!("{}: {e}", path.display()))?;
    std::io::Write::flush(&mut out).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn measure(args: &Args) -> Result<Run, String> {
    let w = args.workload;
    let epoch = Instant::now();
    eprintln!(
        "perfbench: {} seed {} — generating corpus",
        w.name(),
        args.seed
    );
    let corpus = setup::corpus(w, args.seed, args.tiny);
    let reps = if args.tiny { 1 } else { SETUP_REPS };
    let (d, timings) = set_up(&corpus, w, reps)?;
    let queries = setup::queries(w, &d.engine, args.seed);
    let pool_width = d.engine.auth().config().build_threads();
    let warmup = Duration::from_secs_f64(if args.tiny { 0.2 } else { 1.0 });
    eprintln!(
        "perfbench: {} docs, {} terms, {} queries; set-up {:.2}s; measuring {}s",
        corpus.num_docs(),
        corpus.num_terms(),
        queries.len(),
        timings.iter().map(|t| t.total_s()).sum::<f64>(),
        args.seconds
    );
    let result = (|| {
        // The traced run measures its untraced baseline (counters and the
        // rate that trace overhead is judged against) over half a window.
        // Windows that report a p99 run until it has ten samples beyond it.
        let p99_samples = (stats::MIN_BEYOND * 100) as u64;
        let (untraced_s, untraced_min) = if args.traced {
            (args.seconds / 2.0, 0)
        } else {
            (args.seconds, p99_samples)
        };
        let untraced = load::run(
            &d,
            w,
            &queries,
            untraced_s,
            untraced_min,
            warmup,
            false,
            epoch,
        )?;
        let (traced, crypto) = if args.traced {
            let traced = load::run(
                &d,
                w,
                &queries,
                args.seconds,
                p99_samples,
                warmup,
                true,
                epoch,
            )?;
            let budget = Duration::from_secs_f64(if args.tiny { 0.02 } else { 0.25 });
            let key = setup::owner(d.engine.auth().config().key_bits);
            (Some(traced), Some(crypto::probe(key.key(), budget)?))
        } else {
            (None, None)
        };
        Ok::<_, String>((untraced, traced, crypto))
    })();
    Deployment::shutdown(d);
    let (untraced, traced, crypto) = result?;
    Ok(Run {
        workload: w,
        timings,
        pool_width,
        untraced,
        traced,
        crypto,
        peak_rss_mib: procfs::peak_rss_mib()?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args().and_then(|a| refuse_pinned_env().map(|()| a)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--tiny]",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let run = match measure(&args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", run.context_json(args.seed));

    let failed = run.failed();
    for e in run.errors() {
        eprintln!("perfbench: failure: {e}");
    }
    let spec: &[(&str, &str)] = if args.traced { &PER_LAYER } else { &END_TO_END };
    let mut values = Values::default();
    let measured = if args.traced {
        run.per_layer(&mut values)
    } else {
        run.end_to_end(&mut values)
    };
    let metrics = measured.and_then(|()| values.metrics_json(spec));
    if let Some(t) = &run.traced {
        match write_spans(args.workload, &t.logs) {
            Ok(path) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: spans not written: {e}"),
        }
    }
    eprint!("{}", values.table(spec));
    if !args.traced {
        // The eighth end-to-end figure; the result line carries it as
        // `failed` over `attempted`.
        let error_rate = per(failed, run.attempted());
        eprintln!("  {:<32} {error_rate:>14.3} ratio", "error_rate");
    }
    match metrics {
        Ok(metrics) if failed == 0 => {
            println!(
                "{}",
                report::result_line(true, run.attempted(), 0, &metrics)
            );
            ExitCode::SUCCESS
        }
        Ok(_) => {
            eprintln!("perfbench: {failed} queries failed; no metric is reported");
            println!(
                "{}",
                report::result_line(false, run.attempted(), failed, "{}")
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            println!(
                "{}",
                report::result_line(false, run.attempted(), failed, "{}")
            );
            ExitCode::FAILURE
        }
    }
}

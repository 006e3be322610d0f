//! Workload definitions, inputs, and the timed deployment of the system.

use crate::procfs::ServerThreads;
use authsearch_core::{
    AuthConfig, DataOwner, Mechanism, SearchEngine, Server, ServerConfig, ServerHandle,
    VerifierParams,
};
use authsearch_corpus::workload::{synthetic, trec_like};
use authsearch_corpus::{Corpus, SyntheticConfig, TermId};
use authsearch_index::{build_index, OkapiParams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

/// Result size of every query (the paper's default r).
pub const R: usize = 10;

/// A query as the user poses it: `(term, f_{Q,t})`, ascending by term.
pub type Terms = Vec<(TermId, u32)>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// TNRA-CMHT, 3 uniform terms per query, closed loop.
    SyntheticTnra,
    /// TRA-MHT, TREC-like 2–20 term queries, closed loop.
    TrecTra,
    /// TNRA-CMHT, 4,096 distinct uniform queries cycled through a
    /// raw-frame pipeline; the term cache overflows.
    ServeTnraUniform,
}

/// How a workload drives the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    /// Each connection waits for its verdict before the next query.
    Closed,
    /// Each connection keeps [`PIPELINE_DEPTH`] raw request frames in flight.
    Pipeline,
}

/// Requests in flight per pipelined connection; equal to the client's
/// own `PIPELINE_WINDOW` and fixed here so a change to that constant
/// does not change the workload.
pub const PIPELINE_DEPTH: usize = 8;

/// Client connections (one thread each) on every workload.
pub const CONNECTIONS: usize = 2;

/// Distinct queries cycled by `serve_tnra_uniform`.
const SERVE_DISTINCT_QUERIES: usize = 4096;
/// Size of the query pools the closed loops cycle through. A `trec_tra`
/// window (about 1,000 queries) covers most of its pool, so the few
/// very costly TREC-like queries weigh alike in every window of a seed.
const SYNTHETIC_POOL: usize = 8192;
const TREC_POOL: usize = 1024;
/// Terms per synthetic query (the paper's Table 1 default).
const SYNTHETIC_TERMS: usize = 3;
/// Share of df-weighted terms in TREC-like queries.
const TREC_COMMON_PROB: f64 = 0.35;

/// Seed of the owner's key; the same as the process-wide cached key
/// (`authsearch_crypto::keys::cached_keypair`), so every set-up
/// generates the identical key and pays the same key-generation work.
const OWNER_KEY_SEED: u64 = 0xa117_5ea6_c000_0000;

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SyntheticTnra,
        Workload::TrecTra,
        Workload::ServeTnraUniform,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SyntheticTnra => "synthetic_tnra",
            Workload::TrecTra => "trec_tra",
            Workload::ServeTnraUniform => "serve_tnra_uniform",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn mechanism(self) -> Mechanism {
        match self {
            Workload::TrecTra => Mechanism::TraMht,
            Workload::SyntheticTnra | Workload::ServeTnraUniform => Mechanism::TnraCmht,
        }
    }

    pub fn load(self) -> Load {
        match self {
            Workload::ServeTnraUniform => Load::Pipeline,
            Workload::SyntheticTnra | Workload::TrecTra => Load::Closed,
        }
    }

    /// How steeply the workload's wall-clock figures move with the
    /// host's steal share (see [`StealExponents`]).
    pub fn steal_exponents(self) -> StealExponents {
        match self {
            Workload::SyntheticTnra => StealExponents {
                rate: 2.25,
                p50: 1.1,
                p99: 3.0,
                cpu: 0.5,
            },
            Workload::TrecTra => StealExponents {
                rate: 1.1,
                p50: 0.6,
                p99: 1.3,
                cpu: 0.0,
            },
            Workload::ServeTnraUniform => StealExponents {
                rate: 2.75,
                p50: 2.0,
                p99: 5.0,
                cpu: 1.2,
            },
        }
    }

    /// WSJ scale of the corpus. `tiny` is the smoke-test size.
    pub fn scale(self, tiny: bool) -> f64 {
        match (tiny, self) {
            (true, _) => 0.002,
            (false, Workload::ServeTnraUniform) => 0.05,
            (false, Workload::SyntheticTnra | Workload::TrecTra) => 0.02,
        }
    }
}

/// How a workload's figures move with the host's steal share `s`: the
/// rate goes as `(1 - s)^rate`; the p50 and p99 latencies and the CPU
/// per query go as `(1 - s)^-p50`, `(1 - s)^-p99` and `(1 - s)^-cpu`.
/// Steal takes `s` of the CPU, and a stall of the vCPU under one stage
/// of a query also stalls the stages waiting on it, so the exponents
/// grow with the stages that must run at once; a latency's tail feels
/// the stalls most. Fitted by least squares of the log of each figure
/// on ln(1 - steal) on a 2-vCPU VM whose steal share ranged from 0.1%
/// to 33% over several hours: the rates over 44–54 runs of each
/// workload, the latencies over the slices of 4 runs, the CPU over
/// about 20 runs (see the README).
#[derive(Debug, Clone, Copy)]
pub struct StealExponents {
    pub rate: f64,
    pub p50: f64,
    pub p99: f64,
    /// CPU per query also grows with steal, though CPU time excludes
    /// it: the other tenants contend for the cores' caches too.
    pub cpu: f64,
}

/// The seeded corpus of a workload.
pub fn corpus(workload: Workload, seed: u64, tiny: bool) -> Corpus {
    SyntheticConfig {
        seed,
        ..SyntheticConfig::wsj(workload.scale(tiny))
    }
    .generate()
}

/// Wall-clock seconds of each set-up step.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTiming {
    pub keygen_s: f64,
    pub index_s: f64,
    pub auth_s: f64,
    pub start_s: f64,
}

impl SetupTiming {
    pub fn total_s(&self) -> f64 {
        self.keygen_s + self.index_s + self.auth_s + self.start_s
    }
}

/// A running server with everything a client needs to talk to it.
pub struct Deployment {
    pub handle: ServerHandle,
    pub threads: ServerThreads,
    pub engine: Arc<SearchEngine>,
    pub params: VerifierParams,
    pub timing: SetupTiming,
}

impl Deployment {
    /// Stop the server and wait for its threads to end.
    pub fn shutdown(self) {
        let Deployment { handle, engine, .. } = self;
        handle.shutdown();
        // The last reference: dropping it joins the serving pool.
        drop(engine);
    }
}

/// The data owner, with a freshly generated key of `bits` bits.
pub fn owner(bits: usize) -> DataOwner {
    DataOwner::generate(
        bits,
        &mut StdRng::seed_from_u64(OWNER_KEY_SEED ^ bits as u64),
    )
}

/// Everything the program does before the first query, timed step by
/// step: owner key generation, indexing, building and signing the
/// authentication structures, and starting the server (which warms the
/// caches). Uses the shipped defaults throughout.
pub fn deploy(corpus: &Corpus, mechanism: Mechanism) -> Result<Deployment, String> {
    let served_corpus = corpus.clone();
    let config = AuthConfig::new(mechanism);
    let workers = pool_workers(config.build_threads())?;

    let t = Instant::now();
    let owner = owner(config.key_bits);
    let keygen_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let index = build_index(corpus, OkapiParams::default());
    let index_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let publication = owner.publish_index(index, config, corpus);
    let auth_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let engine = Arc::new(SearchEngine::new(publication.auth, served_corpus));
    let handle = Server::start(Arc::clone(&engine), "127.0.0.1:0", ServerConfig::default())
        .map_err(|e| format!("server start: {e}"))?;
    let start_s = t.elapsed().as_secs_f64();

    let threads = ServerThreads::find(workers)?;

    Ok(Deployment {
        handle,
        threads,
        engine,
        params: publication.verifier_params,
        timing: SetupTiming {
            keygen_s,
            index_s,
            auth_s,
            start_s,
        },
    })
}

fn as_terms(ids: &[TermId]) -> Terms {
    let mut terms: Terms = ids.iter().map(|&t| (t, 1)).collect();
    terms.sort_unstable();
    terms
}

/// OS worker threads of a serving pool of `width`: the caller is the
/// nth. A width-1 pool has none and runs every job inline on the
/// reactor, where its CPU could not be told apart from the reactor's.
pub fn pool_workers(width: usize) -> Result<usize, String> {
    match width.checked_sub(1) {
        Some(workers) if workers > 0 => Ok(workers),
        _ => Err(format!(
            "a serving pool of width {width} has no worker thread to measure; \
             the benchmark needs at least 2 CPUs"
        )),
    }
}

/// The seeded query pool of a workload over the deployed dictionary.
pub fn queries(workload: Workload, engine: &SearchEngine, seed: u64) -> Vec<Terms> {
    // Decorrelate from the corpus generator, which uses `seed` itself.
    let seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let index = engine.auth().index();
    let num_terms = index.num_terms();
    match workload {
        Workload::SyntheticTnra => synthetic(num_terms, SYNTHETIC_POOL, SYNTHETIC_TERMS, seed)
            .iter()
            .map(|q| as_terms(q))
            .collect(),
        Workload::TrecTra => trec_like(
            index.document_frequencies(),
            TREC_POOL,
            TREC_COMMON_PROB,
            seed,
        )
        .iter()
        .map(|q| as_terms(q))
        .collect(),
        Workload::ServeTnraUniform => {
            let mut seen = BTreeSet::new();
            let mut out = Vec::with_capacity(SERVE_DISTINCT_QUERIES);
            let mut round = 0u64;
            while out.len() < SERVE_DISTINCT_QUERIES {
                let batch = synthetic(
                    num_terms,
                    SERVE_DISTINCT_QUERIES,
                    SYNTHETIC_TERMS,
                    seed.wrapping_add(round),
                );
                for q in batch {
                    let terms = as_terms(&q);
                    if out.len() < SERVE_DISTINCT_QUERIES && seen.insert(terms.clone()) {
                        out.push(terms);
                    }
                }
                round += 1;
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pool_without_a_worker_thread_is_refused() {
        assert!(pool_workers(0).is_err());
        assert!(pool_workers(1).is_err(), "a width-1 pool runs jobs inline");
        assert_eq!(pool_workers(2), Ok(1));
        assert_eq!(pool_workers(8), Ok(7));
    }
}

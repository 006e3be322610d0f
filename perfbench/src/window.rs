//! Counters read at both edges of a timed window, and their deltas.
//!
//! Every counter the system keeps from start-up on (cache statistics,
//! transport syscalls, server metrics, thread CPU) is taken as a delta
//! over the window: the start-up cache warm alone records thousands of
//! misses that have nothing to do with the queries being measured.

use crate::procfs::{self, HostTicks, ServerCpu};
use crate::setup::Deployment;
use crate::trace;
use authsearch_core::{CacheStats, ServerMetricsSnapshot, TransportStatsSnapshot};
use std::time::Instant;

/// A reading of every counter at one instant.
pub struct Counters {
    pub at: Instant,
    pub process_cpu_s: f64,
    server: ServerCpu,
    pub host: HostTicks,
    metrics: ServerMetricsSnapshot,
    transport: TransportStatsSnapshot,
    cache: CacheStats,
    pub allocs: u64,
}

impl Counters {
    /// Read every counter. The server's threads must be alive: their CPU
    /// is read per thread, and an exited one is an error.
    pub fn read(d: &Deployment) -> Result<Counters, String> {
        Ok(Counters {
            server: d.threads.cpu()?,
            process_cpu_s: procfs::process_cpu_s()?,
            host: procfs::host_ticks()?,
            metrics: d.handle.metrics(),
            transport: d.handle.transport_stats(),
            cache: d.engine.auth().cache_stats(),
            allocs: trace::process_allocs(),
            at: Instant::now(),
        })
    }
}

/// What happened between two readings.
#[derive(Debug, Clone, Copy, Default)]
pub struct Delta {
    pub wall_s: f64,
    pub process_cpu_s: f64,
    pub pool_cpu_s: f64,
    pub reactor_cpu_s: f64,
    pub steal_share: f64,
    pub requests_ok: u64,
    pub requests_err: u64,
    pub connections_shed: u64,
    pub connections_timed_out: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
    pub syscalls: u64,
    pub term_hits: u64,
    pub term_misses: u64,
    pub doc_hits: u64,
    pub doc_misses: u64,
}

impl Delta {
    pub fn between(a: &Counters, b: &Counters) -> Delta {
        let (ta, tb) = (&a.transport, &b.transport);
        let syscalls = |t: &TransportStatsSnapshot| t.accepts + t.reads + t.writes + t.polls;
        Delta {
            wall_s: (b.at - a.at).as_secs_f64(),
            process_cpu_s: b.process_cpu_s - a.process_cpu_s,
            pool_cpu_s: b.server.pool_s - a.server.pool_s,
            reactor_cpu_s: b.server.reactor_s - a.server.reactor_s,
            steal_share: procfs::steal_share(a.host, b.host),
            requests_ok: b.metrics.requests_ok - a.metrics.requests_ok,
            requests_err: b.metrics.requests_err - a.metrics.requests_err,
            connections_shed: b.metrics.connections_shed - a.metrics.connections_shed,
            connections_timed_out: b.metrics.connections_timed_out
                - a.metrics.connections_timed_out,
            bytes_in: b.metrics.bytes_in - a.metrics.bytes_in,
            bytes_out: b.metrics.bytes_out - a.metrics.bytes_out,
            syscalls: syscalls(tb) - syscalls(ta),
            term_hits: b.cache.hits - a.cache.hits,
            term_misses: b.cache.misses - a.cache.misses,
            doc_hits: b.cache.doc_hits - a.cache.doc_hits,
            doc_misses: b.cache.doc_misses - a.cache.doc_misses,
        }
    }

    /// Server-side failures: error replies, shed and timed-out peers.
    pub fn server_failures(&self) -> u64 {
        self.requests_err + self.connections_shed + self.connections_timed_out
    }

    /// Per served request (the server's own count).
    pub fn per_request(&self, v: u64) -> f64 {
        v as f64 / self.requests_ok.max(1) as f64
    }

    /// Client CPU: the process total minus the server's threads. Client
    /// threads exit before the window closes, and an exited thread's CPU
    /// survives only in the process total.
    pub fn client_cpu_s(&self) -> f64 {
        self.process_cpu_s - self.pool_cpu_s - self.reactor_cpu_s
    }
}

/// `hits / (hits + misses)`; 1 when there was no lookup at all.
pub fn hit_ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        1.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

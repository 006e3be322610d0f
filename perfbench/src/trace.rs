//! Spans and allocation counts for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around its calls
//! into each layer's public functions. Each client thread keeps its own
//! [`SpanLog`]; the logs are merged and written out when the run ends.
//! The allocator counts only while [`set_counting`] has switched it on,
//! so the untraced run pays one relaxed load per allocation and counts
//! nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// `System` with an on/off allocation counter: a process-wide total
/// and a per-thread count that spans read around a call.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static PROCESS_ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // `const` initialisation: no lazy set-up and no destructor, so the
    // allocator may touch it at any point of a thread's life.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    if COUNTING.load(Ordering::Relaxed) {
        PROCESS_ALLOCS.fetch_add(1, Ordering::Relaxed);
        // `try_with` fails only during thread teardown; such an
        // allocation belongs to no span.
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
    }
}

// lint:allow(unsafe-audit): a counting allocator has to implement the unsafe GlobalAlloc trait
// SAFETY: every method forwards the caller's arguments unchanged to
// `System`, whose contract is the one the caller already upholds; the
// counters are an atomic and a thread-local `Cell` and add no unsafety.
unsafe impl GlobalAlloc for CountingAlloc {
    // lint:allow(unsafe-audit): a GlobalAlloc method is an unsafe fn by the trait's signature
    // SAFETY: forwards the caller's layout to `System.alloc` untouched.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }
    // lint:allow(unsafe-audit): a GlobalAlloc method is an unsafe fn by the trait's signature
    // SAFETY: forwards the caller's layout to `System.alloc_zeroed` untouched.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }
    // lint:allow(unsafe-audit): a GlobalAlloc method is an unsafe fn by the trait's signature
    // SAFETY: forwards the caller's pointer and layout to `System.dealloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    // lint:allow(unsafe-audit): a GlobalAlloc method is an unsafe fn by the trait's signature
    // SAFETY: forwards pointer, layout and size to `System.realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

/// Switch allocation counting on or off for the whole process.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::SeqCst);
}

/// Allocations counted in the whole process so far.
pub fn process_allocs() -> u64 {
    PROCESS_ALLOCS.load(Ordering::Relaxed)
}

/// Allocations counted on the calling thread so far.
pub fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// The query this span belongs to; shared by all its spans.
    pub query: u64,
    /// Index of the causing span in the same log, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Allocations made on this thread inside the span.
    pub allocs: u64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// A thread's spans, in start order. A disabled log records nothing.
pub struct SpanLog {
    epoch: Instant,
    pub enabled: bool,
    pub spans: Vec<Span>,
}

/// A span that has started and not yet ended.
pub struct Open {
    index: usize,
    allocs_at_start: u64,
}

impl SpanLog {
    pub fn new(epoch: Instant, enabled: bool) -> SpanLog {
        SpanLog {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Start a span; end it with [`SpanLog::end`].
    pub fn start(&mut self, name: &'static str, query: u64, parent: Option<&Open>) -> Open {
        if !self.enabled {
            return Open {
                index: usize::MAX,
                allocs_at_start: 0,
            };
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            query,
            parent: parent.map(|p| p.index),
            start_ns,
            end_ns: start_ns,
            allocs: 0,
        });
        Open {
            index: self.spans.len() - 1,
            allocs_at_start: thread_allocs(),
        }
    }

    pub fn end(&mut self, open: Open) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let allocs = thread_allocs() - open.allocs_at_start;
        if let Some(span) = self.spans.get_mut(open.index) {
            span.end_ns = end_ns;
            span.allocs = allocs;
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        query: u64,
        parent: Option<&Open>,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.start(name, query, parent);
        let out = f();
        self.end(open);
        out
    }

    /// Durations, in µs, of the spans named `name`.
    pub fn durations_us(logs: &[SpanLog], name: &str) -> Vec<f64> {
        logs.iter()
            .flat_map(|l| l.spans.iter())
            .filter(|s| s.name == name)
            .map(Span::duration_us)
            .collect()
    }

    /// Allocations inside all spans named `name`, and how many there are.
    pub fn allocs(logs: &[SpanLog], name: &str) -> (u64, usize) {
        logs.iter()
            .flat_map(|l| l.spans.iter())
            .filter(|s| s.name == name)
            .fold((0, 0), |(a, n), s| (a + s.allocs, n + 1))
    }
}

/// Write every span as one JSON object per line. Parent indices are
/// rewritten to global line numbers so the file stands alone.
pub fn write_jsonl(logs: &[SpanLog], out: &mut impl Write) -> std::io::Result<()> {
    let mut base = 0;
    for (thread, log) in logs.iter().enumerate() {
        for (i, s) in log.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or("null".to_string(), |p| (base + p).to_string());
            writeln!(
                out,
                "{{\"id\":{},\"thread\":{thread},\"query\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"allocs\":{}}}",
                base + i,
                s.query,
                s.name,
                s.start_ns,
                s.end_ns,
                s.allocs
            )?;
        }
        base += log.spans.len();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_count_allocations() {
        set_counting(true);
        let mut log = SpanLog::new(Instant::now(), true);
        let root = log.start("query", 7, None);
        let v = log.time("alloc", 7, Some(&root), || vec![1u8; 64]);
        log.end(root);
        assert_eq!(v.len(), 64);
        assert_eq!(log.spans.len(), 2);
        assert_eq!(log.spans[1].parent, Some(0));
        assert!(log.spans[1].allocs >= 1);
        assert!(log.spans[0].end_ns >= log.spans[1].end_ns);
        let mut out = Vec::new();
        write_jsonl(&[log], &mut out).expect("write");
        let text = String::from_utf8(out).expect("utf8");
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"parent\":0"));
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::new(Instant::now(), false);
        let root = log.start("query", 1, None);
        assert_eq!(log.time("inner", 1, Some(&root), || 5), 5);
        log.end(root);
        assert!(log.spans.is_empty());
    }
}

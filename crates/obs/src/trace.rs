//! Request tracing: trace-context propagation and a lock-free span
//! collector exporting Chrome `trace_event` JSON.
//!
//! A [`TraceCtx`] names one causal chain — an HTTP request, a training
//! run — with a `trace_id`, plus the current span (`span_id`) and its
//! parent (`parent_id`). Contexts are tiny `Copy` values made to be
//! carried across thread boundaries (a serve request's context rides
//! its queued job through the batcher), so a request's queue wait,
//! batch assembly and scoring time link into one trace even though
//! three threads produced them.
//!
//! Completed spans land in a fixed-capacity ring buffer: producers
//! take a ticket with one `fetch_add`, claim its slot with a
//! compare-exchange and publish it seqlock-style (odd sequence while
//! writing, a ticket-unique even value when stable), so recording
//! never blocks and the newest spans overwrite the oldest under
//! overload; a span whose slot another writer holds is dropped.
//! Readers ([`snapshot_spans`], [`take_spans`]) discard any slot
//! whose sequence moved while they were reading it — a torn span can
//! never be observed.
//!
//! Gating mirrors `FD_LOG`:
//!
//! * `FD_TRACE` — `on`/`1`/`true` enables collection (default off; the
//!   off path is one relaxed atomic load per call site).
//! * `FD_TRACE_FILE` — where [`flush`] writes the Chrome JSON.
//! * `FD_TRACE_SAMPLE` — keep 1 in N traces (default 1 = every trace).
//!   Sampling is decided once per root context from its `trace_id`, so
//!   a trace is either recorded whole or not at all.
//!
//! The export is a Chrome `trace_event` document (`{"traceEvents":
//! [...]}` of `"ph":"X"` complete events) loadable in `chrome://tracing`
//! or <https://ui.perfetto.dev>. Each trace is exported on its own
//! `tid` row so its spans nest by time containment, and every event
//! carries `args.trace`/`args.span`/`args.parent` for programmatic
//! reassembly (`fdctl trace summarize`).

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Spans the collector can hold before drop-oldest kicks in. ~72 bytes
/// per slot, so the buffer is ~1.2 MiB — enough for several seconds of
/// serve traffic at full sampling.
pub const RING_CAPACITY: usize = 16 * 1024;

/// Distinct span names the interner can hold; later names collapse to
/// an `"?overflow"` bucket instead of failing.
const MAX_NAMES: usize = 512;

// ---------------------------------------------------------------------------
// Configuration (FD_TRACE / FD_TRACE_SAMPLE), overridable for tests.

static ENABLED: AtomicU64 = AtomicU64::new(0); // 0 = unresolved, 1 = off, 2 = on
static SAMPLE: AtomicU64 = AtomicU64::new(0); // 0 = unresolved, else N

/// Whether span collection is on (`FD_TRACE=on|1|true`, or
/// [`set_enabled`]). One relaxed load on the fast path.
#[inline]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        0 => {
            let on = std::env::var("FD_TRACE")
                .map(|v| matches!(v.trim().to_ascii_lowercase().as_str(), "on" | "1" | "true"))
                .unwrap_or(false);
            ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
            on
        }
        2 => true,
        _ => false,
    }
}

/// Overrides the `FD_TRACE` gate at runtime — used by tests and the
/// overhead benchmark; production code lets the env decide.
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// The sampling modulus: keep traces whose `trace_id % N == 0`.
fn sample_n() -> u64 {
    match SAMPLE.load(Ordering::Relaxed) {
        0 => {
            let n = std::env::var("FD_TRACE_SAMPLE")
                .ok()
                .and_then(|v| v.trim().parse::<u64>().ok())
                .filter(|&n| n >= 1)
                .unwrap_or(1);
            SAMPLE.store(n, Ordering::Relaxed);
            n
        }
        n => n,
    }
}

/// Overrides `FD_TRACE_SAMPLE` at runtime (`n >= 1`; 1 = keep all).
pub fn set_sample(n: u64) {
    SAMPLE.store(n.max(1), Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// The shared monotonic clock.

static START: OnceLock<Instant> = OnceLock::new();

/// Microseconds since the first trace observation in this process —
/// the clock every span timestamp uses. Monotonic, never wall time.
#[inline]
pub fn now_us() -> u64 {
    START.get_or_init(Instant::now).elapsed().as_micros() as u64
}

// ---------------------------------------------------------------------------
// Ids.

static NEXT_ID: AtomicU64 = AtomicU64::new(0);
static ID_SEED: OnceLock<u64> = OnceLock::new();

/// A process-unique, run-randomised 64-bit id: a per-process random
/// seed (std's `RandomState`, no rand dependency) mixed with an atomic
/// counter through a splitmix64 round, so ids from concurrent threads
/// never collide and differ across runs.
fn fresh_id() -> u64 {
    let seed = *ID_SEED.get_or_init(|| {
        let mut h = RandomState::new().build_hasher();
        h.write_u64(0x5eed);
        h.finish() | 1
    });
    let n = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    mix64(seed.wrapping_add(n.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
}

/// splitmix64 finaliser — also used to spread request-id hashes.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over the bytes of an inbound request id, so the same
/// `X-Request-Id` always maps to the same trace id.
fn hash_request_id(id: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in id.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    mix64(h).max(1)
}

// ---------------------------------------------------------------------------
// Trace context.

/// A causal position inside one trace: which trace, which span, and
/// that span's parent. `Copy` so it travels freely across channels and
/// thread boundaries; 33 bytes of state, no heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// The trace every span of one request/run shares.
    pub trace_id: u64,
    /// The current span's id (0 only in [`TraceCtx::off`]).
    pub span_id: u64,
    /// The enclosing span's id; 0 at the root.
    pub parent_id: u64,
    /// Whether this trace is being recorded. Decided once at the root
    /// from `FD_TRACE` + `FD_TRACE_SAMPLE`; children inherit it, so a
    /// trace is recorded whole or not at all.
    pub sampled: bool,
}

impl TraceCtx {
    /// A new root context with a fresh random trace id, sampled per
    /// the `FD_TRACE`/`FD_TRACE_SAMPLE` gates.
    pub fn root() -> TraceCtx {
        let trace_id = fresh_id().max(1);
        Self::root_with_id(trace_id)
    }

    /// A root context derived from an inbound request id (e.g. an
    /// `X-Request-Id` header): the same id always yields the same
    /// trace id, so retries and upstream logs line up.
    pub fn from_request_id(request_id: &str) -> TraceCtx {
        Self::root_with_id(hash_request_id(request_id))
    }

    fn root_with_id(trace_id: u64) -> TraceCtx {
        let sampled = enabled() && trace_id.is_multiple_of(sample_n());
        TraceCtx { trace_id, span_id: fresh_id(), parent_id: 0, sampled }
    }

    /// The inert context: never sampled, records nothing. What trace
    /// plumbing carries when tracing is off.
    pub const fn off() -> TraceCtx {
        TraceCtx { trace_id: 0, span_id: 0, parent_id: 0, sampled: false }
    }

    /// A child position: fresh span id, parented to this span, same
    /// trace and sampling decision.
    pub fn child(&self) -> TraceCtx {
        if !self.sampled {
            return TraceCtx::off();
        }
        TraceCtx {
            trace_id: self.trace_id,
            span_id: fresh_id(),
            parent_id: self.span_id,
            sampled: true,
        }
    }

    /// Records this context's span with an explicit start and
    /// duration — the form used across thread boundaries, where the
    /// start was stamped on one thread and the end observed on
    /// another. No-op unless sampled.
    pub fn record(&self, name: &'static str, start_us: u64, dur_us: u64) {
        if self.sampled {
            ring().push(self, name, start_us, dur_us);
        }
    }

    /// Opens an RAII child span that records itself on drop. When the
    /// trace is not sampled this is a no-op guard (no clock read).
    pub fn span(&self, name: &'static str) -> TraceGuard {
        let child = self.child();
        TraceGuard { ctx: child, name, start_us: child.sampled.then(now_us) }
    }

    /// The trace id as the 16-hex-digit string used in exports and
    /// echoed `X-Request-Id` headers.
    pub fn trace_hex(&self) -> String {
        format!("{:016x}", self.trace_id)
    }
}

/// Guard returned by [`TraceCtx::span`]; records the span on drop.
#[must_use = "a trace span ends when the guard drops — bind it with `let`"]
pub struct TraceGuard {
    ctx: TraceCtx,
    name: &'static str,
    start_us: Option<u64>,
}

impl TraceGuard {
    /// The guard's own context — parent for further nested spans.
    pub fn ctx(&self) -> &TraceCtx {
        &self.ctx
    }
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        if let Some(start_us) = self.start_us {
            self.ctx.record(self.name, start_us, now_us().saturating_sub(start_us));
        }
    }
}

// ---------------------------------------------------------------------------
// Name interning: &'static str -> small index, lock-free after the
// first record per name, so slots carry a plain u64 instead of a
// pointer that could tear.

struct NameTable {
    /// Pointer identity of interned names (0 = empty); index here is
    /// the name id stored in slots.
    ptrs: Box<[AtomicUsize]>,
    /// id -> name, appended under the mutex; reads happen on the
    /// export path only.
    names: Mutex<Vec<&'static str>>,
}

static NAME_TABLE: OnceLock<NameTable> = OnceLock::new();

fn name_table() -> &'static NameTable {
    NAME_TABLE.get_or_init(|| NameTable {
        ptrs: (0..MAX_NAMES).map(|_| AtomicUsize::new(0)).collect(),
        names: Mutex::new(Vec::new()),
    })
}

fn lock_names(t: &NameTable) -> std::sync::MutexGuard<'_, Vec<&'static str>> {
    t.names.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The interned id for `name`. Fast path: scan published pointers
/// (each record site hits its own name within the first few entries).
/// Slow path (first use of a name): register under the mutex, dedup
/// by content so the same literal from two codegen units shares an id.
fn intern(name: &'static str) -> u64 {
    let table = name_table();
    let ptr = name.as_ptr() as usize;
    for (i, slot) in table.ptrs.iter().enumerate() {
        match slot.load(Ordering::Acquire) {
            0 => break,
            p if p == ptr => return i as u64,
            _ => {}
        }
    }
    let mut names = lock_names(table);
    if let Some(i) = names.iter().position(|&n| std::ptr::eq(n.as_ptr(), name.as_ptr()) || n == name)
    {
        return i as u64;
    }
    if names.len() >= MAX_NAMES {
        return 0; // overflow bucket: the very first interned name
    }
    names.push(name);
    let i = names.len() - 1;
    table.ptrs[i].store(ptr, Ordering::Release);
    i as u64
}

fn name_of(id: u64) -> &'static str {
    let names = lock_names(name_table());
    names.get(id as usize).copied().unwrap_or("?")
}

// ---------------------------------------------------------------------------
// The ring collector.

/// One completed span as read back out of the ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Trace this span belongs to.
    pub trace_id: u64,
    /// This span's id.
    pub span_id: u64,
    /// Parent span id (0 = root).
    pub parent_id: u64,
    /// Span name as passed to `record`.
    pub name: &'static str,
    /// Start, microseconds on the [`now_us`] clock.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
}

#[derive(Default)]
struct Slot {
    /// 0 = never written; odd = write in progress; even = stable, and
    /// unique per write ticket, so a reader can detect any concurrent
    /// overwrite.
    seq: AtomicU64,
    trace_id: AtomicU64,
    span_id: AtomicU64,
    parent_id: AtomicU64,
    name_id: AtomicU64,
    start_us: AtomicU64,
    dur_us: AtomicU64,
}

struct Ring {
    slots: Box<[Slot]>,
    /// Total spans ever pushed; `head % capacity` is the next slot.
    head: AtomicU64,
}

static RING: OnceLock<Ring> = OnceLock::new();

fn ring() -> &'static Ring {
    RING.get_or_init(|| Ring {
        slots: (0..RING_CAPACITY).map(|_| Slot::default()).collect(),
        head: AtomicU64::new(0),
    })
}

impl Ring {
    /// Lock-free push: take a ticket, claim its slot by swapping a
    /// stable seq (0 or even) older than the ticket for the ticket's odd
    /// seq, store the fields, publish with the ticket's unique even
    /// seq. Tickets `t` and `t + RING_CAPACITY` share a slot; the claim
    /// gives it one writer at a time, so a span that finds the slot
    /// held, or already holding a newer span, is dropped instead of
    /// being interleaved with the other write.
    fn push(&self, ctx: &TraceCtx, name: &'static str, start_us: u64, dur_us: u64) {
        let name_id = intern(name);
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket % RING_CAPACITY as u64) as usize];
        let writing = ticket * 2 + 1;
        let mut current = slot.seq.load(Ordering::Relaxed);
        loop {
            if current % 2 == 1 || current > writing {
                return;
            }
            match slot.seq.compare_exchange_weak(
                current,
                writing,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => current = seen,
            }
        }
        // The odd seq must be visible before any field store is.
        fence(Ordering::Release);
        slot.trace_id.store(ctx.trace_id, Ordering::Relaxed);
        slot.span_id.store(ctx.span_id, Ordering::Relaxed);
        slot.parent_id.store(ctx.parent_id, Ordering::Relaxed);
        slot.name_id.store(name_id, Ordering::Relaxed);
        slot.start_us.store(start_us, Ordering::Relaxed);
        slot.dur_us.store(dur_us, Ordering::Relaxed);
        slot.seq.store(writing + 1, Ordering::Release);
    }

    /// Reads every stable slot, discarding any that a concurrent
    /// writer touched mid-read (seqlock validation).
    fn collect(&self) -> Vec<Span> {
        let mut out = Vec::new();
        for slot in self.slots.iter() {
            let before = slot.seq.load(Ordering::Acquire);
            if before == 0 || before % 2 == 1 {
                continue;
            }
            let span = Span {
                trace_id: slot.trace_id.load(Ordering::Relaxed),
                span_id: slot.span_id.load(Ordering::Relaxed),
                parent_id: slot.parent_id.load(Ordering::Relaxed),
                name: name_of(slot.name_id.load(Ordering::Relaxed)),
                start_us: slot.start_us.load(Ordering::Relaxed),
                dur_us: slot.dur_us.load(Ordering::Relaxed),
            };
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Acquire) != before {
                continue; // overwritten while reading — discard, never tear
            }
            out.push(span);
        }
        out.sort_by_key(|s| (s.start_us, s.span_id));
        out
    }

    /// `collect` + clear: marks every stable slot empty again so tests
    /// and repeated flushes see only new spans. A slot a writer holds is
    /// left to that writer: only a stable seq is swapped for 0.
    fn drain(&self) -> Vec<Span> {
        let spans = self.collect();
        for slot in self.slots.iter() {
            let seq = slot.seq.load(Ordering::Relaxed);
            if seq % 2 == 0 {
                let _ = slot.seq.compare_exchange(seq, 0, Ordering::AcqRel, Ordering::Relaxed);
            }
        }
        spans
    }
}

/// Every stable span currently in the buffer, oldest first. Leaves the
/// buffer intact.
pub fn snapshot_spans() -> Vec<Span> {
    ring().collect()
}

/// Drains the buffer: returns the stable spans and resets every slot.
pub fn take_spans() -> Vec<Span> {
    ring().drain()
}

/// Spans ever recorded (including those already overwritten); with
/// [`RING_CAPACITY`] this tells how many the buffer dropped.
pub fn recorded_total() -> u64 {
    ring().head.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Chrome trace_event export.

/// Serialises `spans` as a Chrome `trace_event` JSON document. Each
/// span becomes a `"ph":"X"` complete event; the `tid` is derived from
/// the trace id so every trace renders as its own row (spans of one
/// request nest by time containment), and `args` carries the raw
/// trace/span/parent ids for programmatic analysis.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(128 * spans.len() + 32);
    out.push_str("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n{\"name\":");
        crate::json::push_json_string(&mut out, s.name);
        use std::fmt::Write as _;
        let _ = write!(
            out,
            ",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\
             \"args\":{{\"trace\":\"{:016x}\",\"span\":\"{:016x}\",\"parent\":\"{:016x}\"}}}}",
            s.start_us,
            s.dur_us,
            s.trace_id % 1_000_000,
            s.trace_id,
            s.span_id,
            s.parent_id,
        );
    }
    out.push_str("\n]}\n");
    out
}

/// Writes the buffered spans to `FD_TRACE_FILE` as Chrome trace JSON
/// and clears the buffer. Returns the path written, `None` when
/// tracing is off or no file is configured. Call sites: `fdctl train`,
/// `fdctl obs`, `fdctl serve` shutdown, and the bench binaries.
pub fn flush() -> Result<Option<String>, String> {
    if !enabled() {
        return Ok(None);
    }
    let Ok(path) = std::env::var("FD_TRACE_FILE") else {
        return Ok(None);
    };
    if path.is_empty() {
        return Ok(None);
    }
    let spans = take_spans();
    std::fs::write(&path, chrome_json(&spans)).map_err(|e| format!("{path}: {e}"))?;
    Ok(Some(path))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The gates and the ring are process-global; serialise the tests
    /// that mutate them so parallel test threads don't race.
    static LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        let guard = LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        set_enabled(true);
        set_sample(1);
        guard
    }

    #[test]
    fn off_context_records_nothing() {
        let _l = locked();
        let before = recorded_total();
        let off = TraceCtx::off();
        off.record("trace.test.off", 0, 1);
        let _g = off.span("trace.test.off_guard");
        drop(_g);
        assert_eq!(recorded_total(), before);
    }

    #[test]
    fn child_inherits_trace_and_parents_to_creator() {
        let _l = locked();
        let root = TraceCtx::root();
        let child = root.child();
        assert_eq!(child.trace_id, root.trace_id);
        assert_eq!(child.parent_id, root.span_id);
        assert_ne!(child.span_id, root.span_id);
    }

    #[test]
    fn request_id_mapping_is_deterministic() {
        let _l = locked();
        let a = TraceCtx::from_request_id("req-42");
        let b = TraceCtx::from_request_id("req-42");
        let c = TraceCtx::from_request_id("req-43");
        assert_eq!(a.trace_id, b.trace_id);
        assert_ne!(a.trace_id, c.trace_id);
    }

    #[test]
    fn recorded_spans_come_back_in_exports() {
        let _l = locked();
        let root = TraceCtx::root();
        root.record("trace.test.export", 100, 50);
        let spans = snapshot_spans();
        let mine: Vec<_> = spans.iter().filter(|s| s.trace_id == root.trace_id).collect();
        assert_eq!(mine.len(), 1);
        assert_eq!(mine[0].name, "trace.test.export");
        assert_eq!((mine[0].start_us, mine[0].dur_us), (100, 50));
        let json = chrome_json(&spans.iter().filter(|s| s.trace_id == root.trace_id).cloned().collect::<Vec<_>>());
        assert!(json.contains("\"name\":\"trace.test.export\""), "{json}");
        assert!(json.contains(&format!("\"trace\":\"{:016x}\"", root.trace_id)), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
    }

    #[test]
    fn sampling_drops_whole_traces() {
        let _l = locked();
        set_sample(u64::MAX); // only trace_id 0 % MAX == 0 is kept — i.e. none
        let root = TraceCtx::root();
        assert!(!root.sampled);
        assert!(!root.child().sampled);
        set_sample(1);
        assert!(TraceCtx::root().sampled);
    }

    #[test]
    fn guard_records_on_drop_with_nesting() {
        let _l = locked();
        let root = TraceCtx::root();
        {
            let outer = root.span("trace.test.outer");
            let _inner = outer.ctx().span("trace.test.inner");
        }
        let spans: Vec<_> =
            snapshot_spans().into_iter().filter(|s| s.trace_id == root.trace_id).collect();
        assert_eq!(spans.len(), 2, "{spans:?}");
        let outer = spans.iter().find(|s| s.name == "trace.test.outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "trace.test.inner").unwrap();
        assert_eq!(inner.parent_id, outer.span_id);
        assert!(inner.start_us >= outer.start_us);
        assert!(inner.start_us + inner.dur_us <= outer.start_us + outer.dur_us + 1);
    }

    #[test]
    fn interning_dedupes_and_survives_overflow() {
        assert_eq!(intern("trace.test.name_a"), intern("trace.test.name_a"));
        let id = intern("trace.test.name_b");
        assert_eq!(name_of(id), "trace.test.name_b");
    }
}

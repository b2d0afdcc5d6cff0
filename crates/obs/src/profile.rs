//! Cooperative sampling profiler over stage spans.
//!
//! Each thread publishes its current stage-span stack into a per-thread
//! atomic slot: up to [`MAX_DEPTH`] frames, each a stage's 8-bit id from
//! the [`Stage`] catalog, packed into one `u64` so a single atomic store
//! publishes the whole stack and a single atomic load samples it
//! tear-free. A stage span ([`crate::span`]) pushes on open and pops on
//! drop whenever profiling is enabled, so instrumented code needs no
//! changes beyond its existing spans.
//!
//! A sampler thread (the serve layer's, at ~100 Hz) calls [`sample_all`],
//! which folds every thread's current stack into a fixed open-addressing
//! table of atomic counters — the sample path takes no locks besides the
//! registry mutex and performs no allocation. [`render_folded`] exports
//! the counts in flamegraph.pl's folded format (`frame;frame;frame N`),
//! and [`chrome_events`] emits them as a Chrome-trace counter event.
//!
//! This is *cooperative* profiling: only code inside stage spans is
//! attributed, and threads between spans sample as `idle`. The trade-off
//! versus signal-based profiling (no `SIGPROF`, no unwinding, no signal
//! safety concerns) is discussed in DESIGN.md §13.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::json::Json;
use crate::span::Stage;

/// Maximum stack frames published per thread; deeper frames still balance
/// push/pop but are not sampled.
pub const MAX_DEPTH: usize = 8;

/// Folded-stack table slots (power of two). With well under a hundred
/// distinct stacks in practice, collisions are rare.
const FOLD_SLOTS: usize = 1024;

/// Probe limit before a sample is dropped instead of folded.
const MAX_PROBE: usize = 32;

static ENABLED: AtomicBool = AtomicBool::new(false);
static SAMPLES: AtomicU64 = AtomicU64::new(0);

/// Turn the profiler on or off. Spans started while disabled are never
/// published; flipping mid-span is safe (pops are depth-balanced locally).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether stacks are currently being published and sampled.
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The splitmix64 finalizer: a cheap, well-mixed 64-bit hash for the
/// fold table's probes.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Per-thread published stack: one atomic word, stored whole on every
/// push/pop so the sampler never observes a torn stack.
struct Slot {
    stack: AtomicU64,
}

fn registry() -> &'static Mutex<Vec<Arc<Slot>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<Slot>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

struct ThreadState {
    slot: std::cell::RefCell<Option<Arc<Slot>>>,
    bits: std::cell::Cell<u64>,
    depth: std::cell::Cell<u32>,
}

impl Drop for ThreadState {
    /// Unregisters the exiting thread's slot, so the sampler stops
    /// counting a dead thread as `idle`.
    fn drop(&mut self) {
        if let Some(slot) = self.slot.get_mut().take() {
            let mut reg = registry().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            reg.retain(|s| !Arc::ptr_eq(s, &slot));
        }
    }
}

thread_local! {
    static TLS: ThreadState = const {
        ThreadState {
            slot: std::cell::RefCell::new(None),
            bits: std::cell::Cell::new(0),
            depth: std::cell::Cell::new(0),
        }
    };
}

/// Publish `bits` as this thread's current stack, registering the
/// thread's slot on first use.
fn publish(state: &ThreadState, bits: u64) {
    let mut slot = state.slot.borrow_mut();
    let slot = slot.get_or_insert_with(|| {
        let s = Arc::new(Slot { stack: AtomicU64::new(0) });
        registry().lock().unwrap().push(Arc::clone(&s));
        s
    });
    slot.stack.store(bits, Ordering::Release);
}

/// Push a stage frame for the current thread. Returns whether a matching
/// [`pop`] is owed (i.e. profiling was enabled at push time).
pub fn push(stage: Stage) -> bool {
    if !enabled() {
        return false;
    }
    TLS.with(|t| {
        let depth = t.depth.get();
        t.depth.set(depth + 1);
        if (depth as usize) < MAX_DEPTH {
            let bits = t.bits.get() | u64::from(stage as u8) << (8 * depth);
            t.bits.set(bits);
            publish(t, bits);
        }
    });
    true
}

/// Pop the innermost stage frame pushed by [`push`].
pub fn pop() {
    TLS.with(|t| {
        let depth = t.depth.get();
        if depth == 0 {
            return;
        }
        let depth = depth - 1;
        t.depth.set(depth);
        if (depth as usize) < MAX_DEPTH {
            let bits = t.bits.get() & !(0xffu64 << (8 * depth));
            t.bits.set(bits);
            publish(t, bits);
        }
    });
}

/// Folded-stack counters: open addressing, keys are the packed stack
/// words offset by one so 0 can mean "empty slot" (the idle stack, packed
/// as 0, is stored as 1). Counts are plain atomics so concurrent samplers
/// and readers need no lock.
struct FoldTable {
    keys: Box<[AtomicU64]>,
    counts: Box<[AtomicU64]>,
    dropped: AtomicU64,
}

impl FoldTable {
    fn record(&self, bits: u64) {
        let stored = bits.wrapping_add(1);
        let mask = FOLD_SLOTS - 1;
        let mut idx = (mix64(bits) as usize) & mask;
        for _ in 0..MAX_PROBE {
            let k = self.keys[idx].load(Ordering::Relaxed);
            if k == stored {
                self.counts[idx].fetch_add(1, Ordering::Relaxed);
                return;
            }
            if k == 0 {
                match self.keys[idx].compare_exchange(
                    0,
                    stored,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        self.counts[idx].fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                    Err(actual) if actual == stored => {
                        self.counts[idx].fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                    Err(_) => {}
                }
            }
            idx = (idx + 1) & mask;
        }
        self.dropped.fetch_add(1, Ordering::Relaxed);
    }
}

fn fold_table() -> &'static FoldTable {
    static TABLE: OnceLock<FoldTable> = OnceLock::new();
    TABLE.get_or_init(|| FoldTable {
        keys: (0..FOLD_SLOTS).map(|_| AtomicU64::new(0)).collect(),
        counts: (0..FOLD_SLOTS).map(|_| AtomicU64::new(0)).collect(),
        dropped: AtomicU64::new(0),
    })
}

/// Sample every registered thread's published stack into the fold table.
/// Allocation-free (pinned by the `trace_overhead` bench); call at a fixed
/// cadence (~100 Hz) from a dedicated thread.
pub fn sample_all() {
    if !enabled() {
        return;
    }
    let table = fold_table();
    let reg = registry().lock().unwrap();
    for slot in reg.iter() {
        table.record(slot.stack.load(Ordering::Acquire));
    }
    SAMPLES.fetch_add(reg.len() as u64, Ordering::Relaxed);
}

/// Total stack samples taken since start (or the last [`reset`]).
#[must_use]
pub fn samples() -> u64 {
    SAMPLES.load(Ordering::Relaxed)
}

/// Samples dropped because the fold table was full.
#[must_use]
pub fn dropped() -> u64 {
    fold_table().dropped.load(Ordering::Relaxed)
}

/// Decode a packed stack word into `name;name;name` (or `idle` for the
/// empty stack).
fn decode(bits: u64, out: &mut String) {
    if bits == 0 {
        out.push_str("idle");
        return;
    }
    for frame in 0..MAX_DEPTH {
        let id = (bits >> (8 * frame)) & 0xff;
        if id == 0 {
            break;
        }
        if frame > 0 {
            out.push(';');
        }
        match Stage::NAMES.get(id as usize - 1) {
            Some(name) => out.push_str(name),
            None => out.push('?'),
        }
    }
}

/// Folded stacks with counts, highest count first (ties: stack name
/// ascending, so output is deterministic for a fixed sample set).
#[must_use]
pub fn folded() -> Vec<(String, u64)> {
    let table = fold_table();
    let mut out = Vec::new();
    for i in 0..FOLD_SLOTS {
        let k = table.keys[i].load(Ordering::Relaxed);
        if k == 0 {
            continue;
        }
        let count = table.counts[i].load(Ordering::Relaxed);
        if count == 0 {
            continue;
        }
        let mut stack = String::new();
        decode(k.wrapping_sub(1), &mut stack);
        out.push((stack, count));
    }
    out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    out
}

/// Render the fold table in flamegraph.pl's folded format: one
/// `frame;frame;frame count` line per distinct stack.
#[must_use]
pub fn render_folded() -> String {
    let mut out = String::new();
    for (stack, count) in folded() {
        out.push_str(&stack);
        out.push(' ');
        out.push_str(&count.to_string());
        out.push('\n');
    }
    out
}

/// The fold table as Chrome-trace counter events, mergeable into the
/// flight recorder's `trace.json` export: one `ph:"C"` event whose args
/// carry each folded stack as a series.
#[must_use]
pub fn chrome_events() -> Vec<Json> {
    let stacks = folded();
    if stacks.is_empty() {
        return Vec::new();
    }
    let args = Json::Obj(
        stacks.into_iter().map(|(stack, count)| (stack, Json::num_u(count))).collect(),
    );
    vec![Json::Obj(vec![
        ("name".to_owned(), Json::Str("profile.samples".to_owned())),
        ("cat".to_owned(), Json::Str("profile".to_owned())),
        ("ph".to_owned(), Json::Str("C".to_owned())),
        ("ts".to_owned(), Json::num_u(0)),
        ("pid".to_owned(), Json::num_u(1)),
        ("tid".to_owned(), Json::num_u(0)),
        ("args".to_owned(), args),
    ])]
}

/// Zero the fold table and sample counter (for tests and benches). Does
/// not unregister thread slots.
pub fn reset() {
    let table = fold_table();
    for i in 0..FOLD_SLOTS {
        table.keys[i].store(0, Ordering::Relaxed);
        table.counts[i].store(0, Ordering::Relaxed);
    }
    table.dropped.store(0, Ordering::Relaxed);
    SAMPLES.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All profiler tests share process-global state (the enabled flag,
    /// fold table, and this thread's published stack), so they run as one
    /// test body to avoid interleaving. No other test in this crate opens
    /// `store` or `generalize` spans, so stacks of those are this thread's.
    #[test]
    fn push_pop_sample_and_render() {
        set_enabled(true);
        // Register this thread's slot (lazily created on first push), then
        // start counting from a clean fold table.
        push(Stage::Store);
        pop();
        reset();

        // An empty stack samples as idle. (Counts are asserted as lower
        // bounds where other test threads may also have registered slots.)
        sample_all();
        let stacks = folded();
        assert!(stacks.iter().any(|(s, c)| s == "idle" && *c >= 1), "no idle stack in {stacks:?}");

        // Nested frames publish innermost-last and unwind cleanly. The
        // store/generalize stacks are unique to this thread, so their
        // counts are exact.
        let pushed = push(Stage::Store);
        assert!(pushed);
        push(Stage::Generalize);
        sample_all();
        pop();
        sample_all();
        pop();
        sample_all();

        let stacks = folded();
        let get = |name: &str| stacks.iter().find(|(s, _)| s == name).map(|&(_, c)| c);
        assert_eq!(get("store;generalize"), Some(1));
        assert_eq!(get("store"), Some(1));
        assert!(get("idle").unwrap_or(0) >= 2);
        assert!(samples() >= 4);
        assert_eq!(dropped(), 0);

        // Folded rendering matches flamegraph.pl's line format.
        let rendered = render_folded();
        for line in rendered.lines() {
            let (stack, count) = line.rsplit_once(' ').expect("line must be `stack count`");
            assert!(!stack.is_empty() && !stack.contains(' '));
            assert!(count.parse::<u64>().is_ok(), "bad count in {line:?}");
        }
        assert!(rendered.lines().any(|l| l.starts_with("store;generalize ")));

        // Chrome export carries every folded stack as a counter series.
        let events = chrome_events();
        assert_eq!(events.len(), 1);
        let args = events[0].get("args").unwrap().as_obj().unwrap();
        assert!(args.iter().any(|(k, _)| k == "store;generalize"));

        // Frames deeper than MAX_DEPTH are skipped but stay balanced.
        for _ in 0..(MAX_DEPTH + 3) {
            push(Stage::Generalize);
        }
        for _ in 0..(MAX_DEPTH + 3) {
            pop();
        }
        sample_all();
        assert!(folded().iter().any(|(s, _)| s == "idle"));

        // Disabled pushes report nothing to pop.
        set_enabled(false);
        assert!(!push(Stage::Store));
        let before = samples();
        sample_all();
        assert_eq!(samples(), before, "sampling while disabled must be a no-op");
        reset();
    }
}

//! Allocation-count smoke test for the kernel hot path and the monitor's
//! check stage.
//!
//! A counting global allocator wraps the system allocator; after a warm-up
//! solve has sized the pooled [`KernelScratch`] buffers, repeating the same
//! search must perform (almost) no heap allocations — the test fails CI the
//! moment someone reintroduces a per-node `Vec`, a per-search hash map, or a
//! boxed visited key, instead of waiting for the bench gate to notice the
//! slowdown.
//!
//! The budget below is deliberately not zero: constructing the
//! `SearchProblem` itself (the caller's side) clones candidate records, and
//! a hash-set re-insert may probe-rehash.  What the budget rules out is
//! anything proportional to the number of search nodes.

use evlin_checker::kernel::{self, KernelScratch, SearchLimits};
use evlin_checker::Linearizability;
use evlin_checker::{fi, kernel::ConsistencyCondition};
use evlin_history::{HistoryBuilder, ObjectUniverse, ProcessId};
use evlin_spec::{FetchIncrement, Register, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Counts every allocation made through the global allocator.
struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Serializes the measuring tests: the allocation counter is process-global,
/// so a concurrently running test's allocations would land inside another
/// test's measured window and spuriously blow its budget under the default
/// parallel test harness.
static MEASURE: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn allocations<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, result)
}

/// An unsatisfiable multi-write register history: refutation forces the
/// kernel to exhaust its whole search space (many nodes, many visited-cache
/// inserts), which is exactly where per-node allocations would multiply.
fn refutation_history() -> (ObjectUniverse, evlin_history::History) {
    let mut u = ObjectUniverse::new();
    let r = u.add_object(Register::new(Value::from(0i64)));
    let mut b = HistoryBuilder::new();
    for p in 0..4usize {
        b = b.invoke(ProcessId(p), r, Register::write(Value::from(p as i64 + 1)));
    }
    b = b.invoke(ProcessId(4), r, Register::read());
    for p in 0..4usize {
        b = b.respond(ProcessId(p), r, Value::Unit);
    }
    let h = b.respond(ProcessId(4), r, Value::from(99i64)).build();
    (u, h)
}

#[test]
fn warmed_up_kernel_solves_are_allocation_free() {
    let _serial = MEASURE
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let (u, h) = refutation_history();
    let problem = Linearizability.problem(&h);
    let mut scratch = KernelScratch::new();
    let limits = SearchLimits::default();
    // Warm-up: sizes every pooled buffer.
    let (result, warm_stats) = kernel::solve_with_scratch(&problem, &u, limits, &mut scratch);
    assert!(!result.is_yes());
    assert!(warm_stats.nodes > 20, "refutation must do real work");
    // Steady state: the same search through the warm scratch.
    let (allocs, (result, stats)) =
        allocations(|| kernel::solve_with_scratch(&problem, &u, limits, &mut scratch));
    assert!(!result.is_yes());
    assert_eq!(stats.nodes, warm_stats.nodes);
    // What remains is the spec layer's `transitions()` enumeration — one
    // short-lived `Vec<Transition>` per *distinct* `(invocation, state)`
    // pair, bounded by the memoized transition table, never by the node
    // count.  The two assertions keep both halves honest.
    assert!(
        allocs <= 32,
        "a warmed-up kernel solve must only allocate for the spec-layer \
         transition enumeration: {allocs} allocations for {} nodes",
        stats.nodes
    );
    assert!(
        allocs < stats.nodes,
        "allocations ({allocs}) must stay strictly below the node count ({})",
        stats.nodes
    );
}

#[test]
fn warmed_up_fi_checks_stay_linear_in_allocations() {
    let _serial = MEASURE
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    // The specialized fetch&increment checker is the monitor's throughput
    // path: its per-check allocation count must stay a small constant (its
    // own working vectors), not grow per operation.
    let x = evlin_history::ObjectId(0);
    let mut b = HistoryBuilder::new();
    for k in 0..1000i64 {
        b = b.complete(
            ProcessId((k % 4) as usize),
            x,
            FetchIncrement::fetch_inc(),
            Value::from(k),
        );
    }
    let h = b.build();
    assert_eq!(fi::is_linearizable(&h, 0), Ok(true)); // warm up allocator pools
    let (allocs, ok) = allocations(|| fi::is_linearizable(&h, 0));
    assert_eq!(ok, Ok(true));
    assert!(
        allocs <= 40,
        "fi::is_linearizable allocated {allocs} times for 1000 ops — \
         its working set must not grow per operation"
    );
}

#[test]
fn warmed_up_monitor_check_stays_within_a_per_segment_budget() {
    use evlin_checker::monitor::{stages, MonitorConfig};
    let _serial = MEASURE
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    // The check stage on the counter workloads' shape: every segment is one
    // fetch&increment on its own object, 64 segments over 64 objects per
    // batch, all decided by the `fi` fast path.
    const OBJECTS: usize = 64;
    let mut u = ObjectUniverse::new();
    let objects: Vec<_> = (0..OBJECTS)
        .map(|_| u.add_object(FetchIncrement::new()))
        .collect();
    let config = MonitorConfig {
        segment_batch: OBJECTS,
        ..MonitorConfig::default()
    };
    let (mut ingest, mut check) = stages(u, config);
    let mut round = 0i64;
    let mut next_batch = || {
        for (k, &object) in objects.iter().enumerate() {
            let p = ProcessId(k % 4);
            ingest
                .invoke(p, object, FetchIncrement::fetch_inc())
                .unwrap();
            ingest.respond(p, object, Value::from(round)).unwrap();
        }
        round += 1;
        ingest.take_ready_batch().expect("one segment per object")
    };
    // Warm-up: sizes the pooled buffers and every object's frontier.
    for _ in 0..4 {
        check.check_batch(next_batch());
    }
    let batch = next_batch();
    assert_eq!(batch.len(), OBJECTS);
    let (allocs, ()) = allocations(|| check.check_batch(batch));
    assert!(check.verdict_so_far().is_ok());
    // Six allocations per segment are `fi::is_linearizable`'s own working
    // vectors on a one-operation projection; the drain itself allocates
    // nothing once warm (pairs, outgoing frontiers and frontier vectors are
    // pooled, and no thread is spawned per batch).
    const PER_SEGMENT: usize = 6;
    assert!(
        allocs <= PER_SEGMENT * OBJECTS,
        "check_batch allocated {allocs} times for {OBJECTS} fast-path segments \
         (budget {PER_SEGMENT} per segment)"
    );
}

//! The unified Wing–Gong check kernel.
//!
//! Every consistency condition of the paper reduces to the same question:
//! *is there a legal sequential arrangement of a set of operations that
//! (a) includes every required operation, (b) assigns each operation a legal
//! response, matching the fixed response where one is imposed, and
//! (c) respects a given precedence relation between operations?*
//!
//! This module is the single decision procedure behind all of them:
//!
//! * [`ConsistencyCondition`] — how a condition turns a history into that
//!   question: candidate-operation enumeration ([`candidates`]), per-operation
//!   constraints ([`ConstrainedOp`]), precedence edges ([`precedence`]) and an
//!   acceptance predicate ([`accepted`]).  `linearizability`,
//!   `t_linearizability`, `weak_consistency` and `eventual` are all thin
//!   implementations of this trait;
//! * [`solve`] — one iterative (non-recursive) Wing–Gong searcher over
//!   partial linearizations.  Object states and responses are interned to
//!   dense `u32` identifiers, transition lookups are memoized per
//!   `(invocation, state)` pair into a pooled span arena, interchangeable
//!   operations are merged into classes, and the visited
//!   `(linearized-multiset, object-states)` cache keys on an *incrementally
//!   maintained* Zobrist fold — one linearization step updates the key with
//!   four word mixes instead of serializing the pair.  The fold identifies
//!   states up to a 64-bit hash: a key collision (probability ~nodes²/2⁶⁵
//!   per search) could prune a genuinely new subtree, the same vanishing
//!   risk the simulator's fingerprint deduplication documents and accepts —
//!   the debug cross-check guards against maintenance drift, and the
//!   brute-force differential suite fuzzes the end-to-end verdicts;
//! * [`check_local`] — the locality pre-pass: for conditions whose
//!   decomposition is [`Locality::Exact`] (the Herlihy–Wing locality theorem
//!   for linearizability, Lemma 8 for weak consistency), a multi-object
//!   history is split into independent per-object subproblems, checked in
//!   parallel via [`crate::parallel`], and the per-object witnesses are
//!   composed back into a global one;
//! * [`KernelScratch`] — reusable search state (visited cache, taken-set,
//!   and the pooled searcher tables and arenas) so that e.g. the binary
//!   search of `min_stabilization`, the weak-consistency per-operation loop
//!   and the monitor's per-segment chains run allocation-free after their
//!   first search.
//!
//! [`candidates`]: ConsistencyCondition::candidates
//! [`precedence`]: ConsistencyCondition::precedence
//! [`accepted`]: ConsistencyCondition::accepted

use crate::parallel;
use crate::util::{self, BitSet, FxHashMap, FxHashSet};
use evlin_history::{History, ObjectId, ObjectUniverse, OperationRecord};
use evlin_spec::{Invocation, Value};

// ---------------------------------------------------------------------------
// Problem statement types
// ---------------------------------------------------------------------------

/// One operation of a search problem, together with its constraints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConstrainedOp {
    /// The underlying operation (object, invocation, original indices).
    pub record: OperationRecord,
    /// Whether the operation must appear in the sequential witness.
    /// Operations that completed in the history are required; pending
    /// operations are optional.
    pub required: bool,
    /// The response the witness must assign, or `None` if any legal response
    /// is acceptable (pending operations, and operations whose response fell
    /// in the unconstrained prefix for `t`-linearizability).
    pub fixed_response: Option<Value>,
}

/// A constrained-linearization problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchProblem {
    /// The operations, with their constraints.
    pub ops: Vec<ConstrainedOp>,
    /// Precedence edges `(i, j)`: if both operations appear in the witness,
    /// operation `i` must be placed before operation `j`.
    ///
    /// All reductions in this crate only create edges whose source is a
    /// *required* operation, which lets the search treat an edge as "source
    /// must already be linearized before the target can be taken".
    pub precedence: Vec<(usize, usize)>,
}

/// A successful search outcome: a witness linearization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Witness {
    /// Indices (into [`SearchProblem::ops`]) of the operations included in
    /// the witness, in linearization order.
    pub order: Vec<usize>,
    /// The response assigned to each included operation, in the same order.
    pub responses: Vec<Value>,
}

/// Limits placed on the search to keep worst-case behaviour under control.
#[derive(Debug, Clone, Copy)]
pub struct SearchLimits {
    /// Maximum number of search nodes to expand before giving up.
    pub max_nodes: usize,
}

impl Default for SearchLimits {
    fn default() -> Self {
        SearchLimits {
            max_nodes: 2_000_000,
        }
    }
}

/// The verdict of a search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SearchResult {
    /// A witness linearization exists.
    Yes(Witness),
    /// No witness linearization exists.
    No,
    /// The search gave up after expanding [`SearchLimits::max_nodes`] nodes.
    Unknown,
}

impl SearchResult {
    /// `true` iff the result is [`SearchResult::Yes`].
    pub fn is_yes(&self) -> bool {
        matches!(self, SearchResult::Yes(_))
    }

    /// Extracts the witness, if any.
    pub fn witness(self) -> Option<Witness> {
        match self {
            SearchResult::Yes(w) => Some(w),
            _ => None,
        }
    }
}

/// Counters describing one search run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Search nodes expanded (summed over subproblems when the locality
    /// pre-pass decomposed the history).
    pub nodes: usize,
    /// Nodes cut off because their `(linearized-multiset, object-states)`
    /// key had already been visited — the Wing–Gong memoization at work.
    pub memo_hits: usize,
    /// Peak bytes of live kernel bookkeeping (visited cache, interners,
    /// transition arena, per-op tables) across this run and every absorbed
    /// one — a function of the explored key sets and problem sizes, so it is
    /// deterministic across thread counts.  Because [`KernelScratch`] pools
    /// these buffers, repeated searches reuse rather than re-grow them; the
    /// monitor's per-segment accounting test pins that down.
    pub arena_bytes: usize,
}

impl SearchStats {
    /// Accumulates another run's counters into this one (used when a check
    /// is split into subproblems — per object, per segment, per probe).
    /// Node counters add; the memory high-water mark takes the maximum.
    pub fn absorb(&mut self, other: SearchStats) {
        self.nodes += other.nodes;
        self.memo_hits += other.memo_hits;
        self.arena_bytes = self.arena_bytes.max(other.arena_bytes);
    }
}

/// Progress snapshot handed to [`ConsistencyCondition::accepted`].
#[derive(Debug, Clone, Copy)]
pub struct SearchProgress {
    /// Required operations linearized so far.
    pub required_taken: usize,
    /// Total number of required operations in the problem.
    pub required_total: usize,
    /// Operations (required or optional) linearized so far.
    pub taken_total: usize,
}

// ---------------------------------------------------------------------------
// The condition trait
// ---------------------------------------------------------------------------

/// How a condition decomposes across objects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Locality {
    /// The condition holds of a history iff it holds of every per-object
    /// projection, *and* the condition's [`ConsistencyCondition::candidates`]
    /// returns exactly one candidate per operation of the history, in
    /// [`History::operations`] order (needed to map per-object witnesses back
    /// to global operation indices).  Linearizability is the canonical
    /// example (the Herlihy–Wing locality theorem).
    Exact,
    /// No sound per-object decomposition; the history must be checked whole.
    /// `t`-linearizability for a fixed `t > 0` is the canonical example:
    /// Lemma 7 only decomposes "`t`-linearizable for *some* `t`", and the
    /// composed index is not tight.
    Global,
}

/// A consistency condition, expressed as the ingredients of a
/// constrained-linearization search: which operations may appear in the
/// sequential witness and under which constraints, which precedence edges
/// the witness must respect, and when a partial linearization is accepted.
pub trait ConsistencyCondition: Sync {
    /// Human-readable name (used in diagnostics).
    fn name(&self) -> &'static str;

    /// Enumerates the candidate operations of the search, with their
    /// constraints.
    fn candidates(&self, history: &History) -> Vec<ConstrainedOp>;

    /// Precedence edges `(i, j)` over `candidates`: if both appear in the
    /// witness, `i` must precede `j`.  Sources must be required candidates.
    fn precedence(&self, history: &History, candidates: &[ConstrainedOp]) -> Vec<(usize, usize)>;

    /// Acceptance predicate: when is a partial linearization a witness?
    /// The default — every required candidate has been linearized — is what
    /// all the paper's conditions use.
    fn accepted(&self, progress: &SearchProgress) -> bool {
        progress.required_taken == progress.required_total
    }

    /// Whether the condition admits the exact per-object decomposition used
    /// by [`check_local`].
    fn locality(&self) -> Locality {
        Locality::Global
    }

    /// Builds the full search problem for a history.
    fn problem(&self, history: &History) -> SearchProblem {
        let ops = self.candidates(history);
        let precedence = self.precedence(history, &ops);
        SearchProblem { ops, precedence }
    }
}

// ---------------------------------------------------------------------------
// Reusable scratch state
// ---------------------------------------------------------------------------

/// Reusable search state: the visited cache, the taken-set, and the pooled
/// searcher buffers (interners, per-operation tables, the transition arena,
/// the DFS frame stack).
///
/// Every allocation of a search survives into the next one, so repeated
/// probes — the binary search of `min_stabilization`, the per-operation loop
/// of the weak-consistency checker, the monitor's per-segment chains — run
/// allocation-free after warm-up (the allocation-count smoke test in
/// `tests/alloc_smoke.rs` enforces this).  `BitSet::clear` and
/// `BitSet::count` keep the taken-set sound across reuses: bits left set by
/// a successful search are cleared one by one, and the emptiness invariant is
/// asserted before the next run.
#[derive(Default)]
pub struct KernelScratch {
    visited: FxHashSet<u64>,
    taken: BitSet,
    capacity: usize,
    bufs: SearcherBufs,
    /// Distinct accepting frontiers seen by [`solve_frontiers`].
    frontier_seen: FxHashSet<Box<[u32]>>,
}

impl KernelScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        KernelScratch::default()
    }

    /// Prepares the scratch for a problem with `n` operations: clears the
    /// visited cache and the frontier-dedup keys (keeping their allocations)
    /// and ensures the taken-set has capacity for `n` bits and is empty.
    fn prepare(&mut self, n: usize) {
        self.visited.clear();
        self.frontier_seen.clear();
        if self.capacity < n || self.capacity == 0 {
            self.taken = BitSet::with_capacity(n.max(1));
            self.capacity = n.max(1);
        }
        debug_assert_eq!(
            self.taken.count(),
            0,
            "taken-set must be empty between searches"
        );
    }
}

/// Retention cap for the thread-local scratch: a pool grown past this many
/// live bytes by one unusually large search is dropped after the call
/// instead of pinning peak-sized buffers to the thread for the process
/// lifetime (long-lived rayon workers and monitor threads would otherwise
/// never release them).
const THREAD_SCRATCH_RETAIN_BYTES: usize = 1 << 20;

/// Runs `f` with a thread-local [`KernelScratch`], so entry points without a
/// caller-provided scratch ([`solve`], [`check`], the `is_linearizable`
/// facades) still reuse one warm buffer pool per thread instead of
/// reallocating per call.  Falls back to a fresh scratch on re-entrant use.
fn with_thread_scratch<R>(f: impl FnOnce(&mut KernelScratch) -> R) -> R {
    use std::cell::RefCell;
    thread_local! {
        static SCRATCH: RefCell<KernelScratch> = RefCell::new(KernelScratch::new());
    }
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => {
            let result = f(&mut scratch);
            if scratch.bufs.live_bytes() + scratch.visited.len() * std::mem::size_of::<u64>()
                > THREAD_SCRATCH_RETAIN_BYTES
            {
                *scratch = KernelScratch::new();
            }
            result
        }
        Err(_) => f(&mut KernelScratch::new()),
    })
}

/// The pooled per-search arrays of the searcher, owned by [`KernelScratch`]
/// between runs.  Everything is flat: variable-length per-item lists
/// (precedence predecessors, interchangeability-class members, memoized
/// transition lists) are spans into shared arena vectors instead of nested
/// `Vec<Vec<_>>`, so a search allocates nothing once the pool is warm.
#[derive(Default)]
struct SearcherBufs {
    /// Active objects, in first-appearance order.
    slots: Vec<ObjectId>,
    /// Interned `Value` table (object states and responses).
    values: Vec<Value>,
    /// Value-id lookup, engaged only past [`LINEAR_INTERN_MAX`] entries (the
    /// small-problem fast path scans `values` linearly instead of paying
    /// hash-map setup).
    value_map: FxHashMap<Value, u32>,
    /// Interned `(slot, invocation)` table (the object repeated for
    /// transition lookups).
    inv_table: Vec<(u32, ObjectId, Invocation)>,
    /// Invocation-id lookup, engaged only past [`LINEAR_INTERN_MAX`] rows.
    inv_map: FxHashMap<(u32, Invocation), u32>,
    // --- per-operation tables ---
    op_inv: Vec<u32>,
    op_slot: Vec<u32>,
    op_required: Vec<bool>,
    /// Fixed-response value id, or `INVALID` for a free response.
    op_fixed: Vec<u32>,
    incident: Vec<bool>,
    /// CSR of required predecessors: `pred_data[pred_offsets[j]..pred_offsets[j+1]]`.
    pred_offsets: Vec<u32>,
    pred_data: Vec<u32>,
    class_of: Vec<u32>,
    /// One `(inv, required, fixed, class)` row per mergeable class.
    class_reps: Vec<(u32, bool, u32, u32)>,
    /// Class lookup, engaged only past [`LINEAR_INTERN_MAX`] classes.
    class_map: FxHashMap<(u32, bool, u32), u32>,
    /// CSR of class members in ascending operation order.
    class_offsets: Vec<u32>,
    class_data: Vec<u32>,
    /// Reused counting-sort cursor.
    cursor: Vec<u32>,
    // --- mutable search state ---
    class_counts: Vec<u16>,
    states: Vec<u32>,
    order: Vec<u32>,
    responses: Vec<u32>,
    // --- memoized transitions ---
    /// `((inv as u64) << 32 | state)` → index into `trans_spans`.
    trans_index: FxHashMap<u64, u32>,
    /// `(start, len)` spans into `trans_data`.
    trans_spans: Vec<(u32, u32)>,
    trans_data: Vec<(u32, u32)>,
    /// Pooled DFS frame stack.
    frames: Vec<Frame>,
}

impl SearcherBufs {
    /// Clears every table (keeping capacity) for the next search.
    fn reset(&mut self) {
        self.slots.clear();
        self.values.clear();
        self.value_map.clear();
        self.inv_table.clear();
        self.inv_map.clear();
        self.op_inv.clear();
        self.op_slot.clear();
        self.op_required.clear();
        self.op_fixed.clear();
        self.incident.clear();
        self.pred_offsets.clear();
        self.pred_data.clear();
        self.class_of.clear();
        self.class_reps.clear();
        self.class_map.clear();
        self.class_offsets.clear();
        self.class_data.clear();
        self.cursor.clear();
        self.class_counts.clear();
        self.states.clear();
        self.order.clear();
        self.responses.clear();
        self.trans_index.clear();
        self.trans_spans.clear();
        self.trans_data.clear();
        self.frames.clear();
    }

    /// Bytes of live bookkeeping (by current lengths, not capacities, so the
    /// figure is a deterministic function of the search itself).
    fn live_bytes(&self) -> usize {
        use std::mem::size_of;
        self.slots.len() * size_of::<ObjectId>()
            + self.values.len() * size_of::<Value>()
            + self.inv_table.len() * size_of::<(u32, ObjectId, Invocation)>()
            + (self.op_inv.len() + self.op_slot.len() + self.op_fixed.len()) * size_of::<u32>()
            + self.op_required.len()
            + (self.pred_offsets.len() + self.pred_data.len()) * size_of::<u32>()
            + self.class_of.len() * size_of::<u32>()
            + self.class_reps.len() * size_of::<(u32, bool, u32, u32)>()
            + (self.class_offsets.len() + self.class_data.len()) * size_of::<u32>()
            + self.class_counts.len() * size_of::<u16>()
            + (self.states.len() + self.order.len() + self.responses.len()) * size_of::<u32>()
            + self.trans_index.len() * size_of::<(u64, u32)>()
            + self.trans_spans.len() * size_of::<(u32, u32)>()
            + self.trans_data.len() * size_of::<(u32, u32)>()
    }
}

/// Linear-scan interning bound: problems whose value table stays at or below
/// this size (the overwhelmingly common case — unit-test histories, bench
/// histories up to ~20 operations, per-object monitor segments) never touch
/// a hash map during setup.
const LINEAR_INTERN_MAX: usize = 32;

/// Domain tag of class-count components of the incremental visited key.
const TAG_CLASS: u64 = 0x636c_6173_7300_0001;
/// Domain tag of object-state components of the incremental visited key.
const TAG_STATE: u64 = 0x7374_6174_6500_0002;

// ---------------------------------------------------------------------------
// The iterative searcher
// ---------------------------------------------------------------------------

const INVALID: u32 = u32::MAX;

/// Raw frontier as collected by the searcher: interned per-slot final states
/// plus the taken-flags of the tracked operations.
type RawFrontier = (Vec<u32>, Vec<bool>);

/// One level of the explicit DFS stack: which candidate operation is being
/// explored and which of its transitions comes next, plus the undo record of
/// the step that produced this level.
struct Frame {
    /// Candidate operation currently being enumerated at this level.
    i: usize,
    /// Next transition index for operation `i`.
    k: u32,
    /// Index into the transition-span arena of operation `i`'s transitions at
    /// this level's entry state, or `INVALID` before it is computed.
    trans: u32,
    /// How this level's node was produced (`None` only for the root).
    undo: Option<Undo>,
}

/// Everything needed to retract one linearization step.
struct Undo {
    op: usize,
    class: usize,
    slot: usize,
    prev_state: u32,
    required: bool,
}

/// The iterative Wing–Gong searcher over one interned problem.
///
/// All of its arrays live in [`SearcherBufs`], borrowed from the caller's
/// [`KernelScratch`] for the duration of the search and returned afterwards,
/// so a warm scratch makes both construction and the search itself
/// allocation-free.  The visited cache keys on an *incrementally maintained*
/// Zobrist fold of the `(per-class taken counts, object states)` pair
/// ([`Searcher::vkey`]): one linearization step XORs out and in at most four
/// [`crate::util::zkey`] components instead of serializing a fresh boxed key
/// per node.
struct Searcher<'a> {
    universe: &'a ObjectUniverse,
    limits: SearchLimits,
    n: usize,
    required_count: usize,
    /// The pooled tables (see [`SearcherBufs`]).
    b: SearcherBufs,
    /// The incremental visited-cache key of the current search state.
    vkey: u64,
    // --- mutable search state ---
    required_taken: usize,
    nodes: usize,
    memo_hits: usize,
    exhausted: bool,
}

/// Interns `v` into the pooled value table: linear scan while the table is
/// small (the small-problem fast path — no hash-map setup for the common
/// tiny searches), hash lookup once it grows past [`LINEAR_INTERN_MAX`].
fn intern_value(b: &mut SearcherBufs, v: &Value) -> u32 {
    if b.value_map.is_empty() {
        if let Some(i) = b.values.iter().position(|x| x == v) {
            return i as u32;
        }
        let id = b.values.len() as u32;
        b.values.push(v.clone());
        if b.values.len() > LINEAR_INTERN_MAX {
            // Grown past the linear bound: engage the map from here on.
            for (i, x) in b.values.iter().enumerate() {
                b.value_map.insert(x.clone(), i as u32);
            }
        }
        return id;
    }
    if let Some(&i) = b.value_map.get(v) {
        return i;
    }
    let id = b.values.len() as u32;
    b.values.push(v.clone());
    b.value_map.insert(v.clone(), id);
    id
}

impl<'a> Searcher<'a> {
    /// Builds the interned problem inside `bufs` (taken from a
    /// [`KernelScratch`]; returned via [`Searcher::into_bufs`]).
    fn new(
        problem: &SearchProblem,
        universe: &'a ObjectUniverse,
        limits: SearchLimits,
        mut b: SearcherBufs,
    ) -> Self {
        b.reset();
        let n = problem.ops.len();

        // Active objects -> slots, and per-op interned invocations.  All
        // lookups are linear scans over the (small) tables — see
        // `LINEAR_INTERN_MAX` for the value interner's fallback.
        for i in 0..n {
            let cop = &problem.ops[i];
            let slot = match b.slots.iter().position(|&o| o == cop.record.object) {
                Some(s) => s,
                None => {
                    b.slots.push(cop.record.object);
                    b.slots.len() - 1
                }
            };
            b.op_slot.push(slot as u32);
            // Linear scan while the table is small; hash lookup once it
            // grows past the small-problem bound (mirrors `intern_value`, so
            // setup stays O(n) on large histories too).
            let found = if b.inv_map.is_empty() {
                b.inv_table
                    .iter()
                    .position(|(s, _, inv)| *s == slot as u32 && *inv == cop.record.invocation)
                    .map(|idx| idx as u32)
            } else {
                b.inv_map
                    .get(&(slot as u32, cop.record.invocation.clone()))
                    .copied()
            };
            let inv = match found {
                Some(idx) => idx,
                None => {
                    let id = b.inv_table.len() as u32;
                    b.inv_table.push((
                        slot as u32,
                        cop.record.object,
                        cop.record.invocation.clone(),
                    ));
                    if b.inv_table.len() > LINEAR_INTERN_MAX {
                        if b.inv_map.is_empty() {
                            for (idx, (s, _, inv)) in b.inv_table.iter().enumerate() {
                                b.inv_map.insert((*s, inv.clone()), idx as u32);
                            }
                        } else {
                            b.inv_map
                                .insert((slot as u32, cop.record.invocation.clone()), id);
                        }
                    }
                    id
                }
            };
            b.op_inv.push(inv);
            b.op_required.push(cop.required);
            let fixed = match &cop.fixed_response {
                Some(v) => intern_value(&mut b, v),
                None => INVALID,
            };
            b.op_fixed.push(fixed);
        }

        // Required predecessors as a CSR (edges with optional sources impose
        // nothing, matching the reductions in this crate, which only create
        // edges with required sources).
        b.incident.resize(n, false);
        b.cursor.resize(n, 0);
        for &(i, j) in &problem.precedence {
            b.incident[i] = true;
            b.incident[j] = true;
            if problem.ops[i].required {
                b.cursor[j] += 1;
            }
        }
        b.pred_offsets.reserve(n + 1);
        let mut acc = 0u32;
        for j in 0..n {
            b.pred_offsets.push(acc);
            acc += b.cursor[j];
        }
        b.pred_offsets.push(acc);
        b.pred_data.resize(acc as usize, 0);
        b.cursor.copy_from_slice(&b.pred_offsets[..n]);
        for &(i, j) in &problem.precedence {
            if problem.ops[i].required {
                b.pred_data[b.cursor[j] as usize] = i as u32;
                b.cursor[j] += 1;
            }
        }

        // Interchangeability classes: operations with the same interned
        // invocation, the same constraints and no incident precedence edge
        // are indistinguishable, so the search only ever takes the first
        // untaken member of a class and the visited cache keys on per-class
        // counts instead of exact subsets.  Class lookup is a linear scan
        // over the representative table (no hash map on this setup path).
        let mut class_count = 0u32;
        for i in 0..n {
            let class = if b.incident[i] {
                let c = class_count;
                class_count += 1;
                c
            } else {
                let key = (b.op_inv[i], b.op_required[i], b.op_fixed[i]);
                let found = if b.class_map.is_empty() {
                    b.class_reps
                        .iter()
                        .find(|(inv, req, fixed, _)| (*inv, *req, *fixed) == key)
                        .map(|&(_, _, _, c)| c)
                } else {
                    b.class_map.get(&key).copied()
                };
                match found {
                    Some(c) => c,
                    None => {
                        let c = class_count;
                        class_count += 1;
                        b.class_reps.push((key.0, key.1, key.2, c));
                        if b.class_reps.len() > LINEAR_INTERN_MAX {
                            if b.class_map.is_empty() {
                                for &(inv, req, fixed, c) in b.class_reps.iter() {
                                    b.class_map.insert((inv, req, fixed), c);
                                }
                            } else {
                                b.class_map.insert(key, c);
                            }
                        }
                        c
                    }
                }
            };
            b.class_of.push(class);
        }
        // Class members (ascending operation order) as a CSR.
        let class_count = class_count as usize;
        b.cursor.clear();
        b.cursor.resize(class_count, 0);
        for i in 0..n {
            b.cursor[b.class_of[i] as usize] += 1;
        }
        b.class_offsets.reserve(class_count + 1);
        let mut acc = 0u32;
        for c in 0..class_count {
            b.class_offsets.push(acc);
            acc += b.cursor[c];
        }
        b.class_offsets.push(acc);
        b.class_data.resize(n, 0);
        b.cursor.copy_from_slice(&b.class_offsets[..class_count]);
        for i in 0..n {
            let c = b.class_of[i] as usize;
            b.class_data[b.cursor[c] as usize] = i as u32;
            b.cursor[c] += 1;
        }
        b.class_counts.resize(class_count, 0);

        // Initial object states and the initial visited key.
        for slot in 0..b.slots.len() {
            let object = b.slots[slot];
            let id = intern_value(&mut b, universe.initial_state(object));
            b.states.push(id);
        }
        let mut vkey = 0u64;
        for (slot, &state) in b.states.iter().enumerate() {
            vkey ^= util::zkey(TAG_STATE, slot as u64, state as u64);
        }

        let required_count = problem.ops.iter().filter(|o| o.required).count();
        Searcher {
            universe,
            limits,
            n,
            required_count,
            b,
            vkey,
            required_taken: 0,
            nodes: 0,
            memo_hits: 0,
            exhausted: false,
        }
    }

    /// Releases the pooled buffers back to the scratch.
    fn into_bufs(self) -> SearcherBufs {
        self.b
    }

    fn stats(&self, scratch: &KernelScratch) -> SearchStats {
        use std::mem::size_of;
        // The frontier-dedup keys of `solve_frontiers` are part of the
        // search's working set too — without them a frontier-dominated
        // monitor segment would under-report its peak.
        let frontier_bytes: usize = scratch
            .frontier_seen
            .iter()
            .map(|k| size_of::<Box<[u32]>>() + k.len() * size_of::<u32>())
            .sum();
        SearchStats {
            nodes: self.nodes,
            memo_hits: self.memo_hits,
            arena_bytes: self.b.live_bytes()
                + scratch.visited.len() * size_of::<u64>()
                + frontier_bytes,
        }
    }

    /// The transitions of invocation `inv` in state `state`, memoized as a
    /// span into the pooled transition arena.
    fn transitions(&mut self, inv: u32, state: u32) -> u32 {
        let key = ((inv as u64) << 32) | state as u64;
        if let Some(&idx) = self.b.trans_index.get(&key) {
            return idx;
        }
        let (_, object, invocation) = self.b.inv_table[inv as usize].clone();
        let raw = self
            .universe
            .object_type(object)
            .transitions(&self.b.values[state as usize], &invocation);
        let start = self.b.trans_data.len() as u32;
        for t in raw {
            let r = intern_value(&mut self.b, &t.response);
            let s = intern_value(&mut self.b, &t.next_state);
            self.b.trans_data.push((r, s));
        }
        let len = self.b.trans_data.len() as u32 - start;
        let idx = self.b.trans_spans.len() as u32;
        self.b.trans_spans.push((start, len));
        self.b.trans_index.insert(key, idx);
        idx
    }

    /// Whether `i` is the first untaken member of its class (the canonical
    /// representative tried by the search).
    fn canonical(&self, i: usize, taken: &BitSet) -> bool {
        let c = self.b.class_of[i] as usize;
        let members = &self.b.class_data
            [self.b.class_offsets[c] as usize..self.b.class_offsets[c + 1] as usize];
        members.iter().find(|&&m| !taken.contains(m as usize)) == Some(&(i as u32))
    }

    fn preds_taken(&self, i: usize, taken: &BitSet) -> bool {
        let preds =
            &self.b.pred_data[self.b.pred_offsets[i] as usize..self.b.pred_offsets[i + 1] as usize];
        preds.iter().all(|&p| taken.contains(p as usize))
    }

    /// Recomputes the visited key from scratch — the debug cross-check for
    /// the incrementally maintained [`Searcher::vkey`] (run on every
    /// apply/retract under `debug_assertions`, i.e. by the whole test suite
    /// including the nightly differential fuzz job; compiled out of release
    /// builds).
    fn recomputed_vkey(&self) -> u64 {
        let mut key = 0u64;
        for (c, &count) in self.b.class_counts.iter().enumerate() {
            if count > 0 {
                key ^= util::zkey(TAG_CLASS, c as u64, count as u64);
            }
        }
        for (slot, &state) in self.b.states.iter().enumerate() {
            key ^= util::zkey(TAG_STATE, slot as u64, state as u64);
        }
        key
    }

    fn progress(&self) -> SearchProgress {
        SearchProgress {
            required_taken: self.required_taken,
            required_total: self.required_count,
            taken_total: self.b.order.len(),
        }
    }

    fn apply(&mut self, i: usize, resp: u32, next_state: u32, taken: &mut BitSet) -> Undo {
        let slot = self.b.op_slot[i] as usize;
        let class = self.b.class_of[i] as usize;
        let undo = Undo {
            op: i,
            class,
            slot,
            prev_state: self.b.states[slot],
            required: self.b.op_required[i],
        };
        taken.set(i);
        let count = self.b.class_counts[class];
        if count > 0 {
            self.vkey ^= util::zkey(TAG_CLASS, class as u64, count as u64);
        }
        self.vkey ^= util::zkey(TAG_CLASS, class as u64, (count + 1) as u64);
        self.b.class_counts[class] = count + 1;
        self.vkey ^= util::zkey(TAG_STATE, slot as u64, undo.prev_state as u64)
            ^ util::zkey(TAG_STATE, slot as u64, next_state as u64);
        self.b.states[slot] = next_state;
        self.b.order.push(i as u32);
        self.b.responses.push(resp);
        if undo.required {
            self.required_taken += 1;
        }
        debug_assert_eq!(self.vkey, self.recomputed_vkey(), "visited key drifted");
        undo
    }

    fn retract(&mut self, undo: Undo, taken: &mut BitSet) {
        taken.clear(undo.op);
        let count = self.b.class_counts[undo.class];
        self.vkey ^= util::zkey(TAG_CLASS, undo.class as u64, count as u64);
        if count > 1 {
            self.vkey ^= util::zkey(TAG_CLASS, undo.class as u64, (count - 1) as u64);
        }
        self.b.class_counts[undo.class] = count - 1;
        self.vkey ^= util::zkey(TAG_STATE, undo.slot as u64, self.b.states[undo.slot] as u64)
            ^ util::zkey(TAG_STATE, undo.slot as u64, undo.prev_state as u64);
        self.b.states[undo.slot] = undo.prev_state;
        self.b.order.pop();
        self.b.responses.pop();
        if undo.required {
            self.required_taken -= 1;
        }
        debug_assert_eq!(self.vkey, self.recomputed_vkey(), "visited key drifted");
    }

    fn witness(&self) -> Witness {
        Witness {
            order: self.b.order.iter().map(|&i| i as usize).collect(),
            responses: self
                .b
                .responses
                .iter()
                .map(|&r| self.b.values[r as usize].clone())
                .collect(),
        }
    }

    /// The iterative Wing–Gong search.
    fn run(
        &mut self,
        scratch: &mut KernelScratch,
        accept: &dyn Fn(&SearchProgress) -> bool,
    ) -> SearchResult {
        scratch.prepare(self.n);
        if accept(&self.progress()) {
            return SearchResult::Yes(self.witness());
        }
        self.nodes += 1;
        if self.nodes > self.limits.max_nodes {
            return SearchResult::Unknown;
        }
        scratch.visited.insert(self.vkey);

        let mut frames = std::mem::take(&mut self.b.frames);
        frames.push(Frame {
            i: 0,
            k: 0,
            trans: INVALID,
            undo: None,
        });
        // Split `taken` out of the scratch so `self` methods can borrow
        // freely; it is put back (empty) before returning.
        let mut taken = std::mem::take(&mut scratch.taken);

        let result = 'outer: loop {
            let Some(mut f) = frames.pop() else {
                break if self.exhausted {
                    SearchResult::Unknown
                } else {
                    SearchResult::No
                };
            };
            loop {
                if f.i >= self.n {
                    // This level is exhausted: retract the step that
                    // produced it and resume the parent.
                    if let Some(undo) = f.undo.take() {
                        self.retract(undo, &mut taken);
                    }
                    continue 'outer;
                }
                let i = f.i;
                if taken.contains(i) || !self.canonical(i, &taken) || !self.preds_taken(i, &taken) {
                    f.i += 1;
                    f.k = 0;
                    f.trans = INVALID;
                    continue;
                }
                if f.trans == INVALID {
                    f.trans = self
                        .transitions(self.b.op_inv[i], self.b.states[self.b.op_slot[i] as usize]);
                    f.k = 0;
                }
                let (start, len) = self.b.trans_spans[f.trans as usize];
                while f.k < len {
                    let (resp, next_state) = self.b.trans_data[(start + f.k) as usize];
                    f.k += 1;
                    let fixed = self.b.op_fixed[i];
                    if fixed != INVALID && resp != fixed {
                        continue;
                    }
                    let undo = self.apply(i, resp, next_state, &mut taken);
                    if accept(&self.progress()) {
                        let witness = self.witness();
                        // Leave the taken-set empty for the next reuse of
                        // the scratch.
                        for &op in &self.b.order {
                            taken.clear(op as usize);
                        }
                        break 'outer SearchResult::Yes(witness);
                    }
                    self.nodes += 1;
                    if self.nodes > self.limits.max_nodes {
                        self.exhausted = true;
                        self.retract(undo, &mut taken);
                        continue;
                    }
                    if !scratch.visited.insert(self.vkey) {
                        self.memo_hits += 1;
                        self.retract(undo, &mut taken);
                        continue;
                    }
                    frames.push(f);
                    frames.push(Frame {
                        i: 0,
                        k: 0,
                        trans: INVALID,
                        undo: Some(undo),
                    });
                    continue 'outer;
                }
                f.i += 1;
                f.k = 0;
                f.trans = INVALID;
            }
        };
        // Either every step was retracted on the way out (No/Unknown) or the
        // witness path cleared its bits explicitly; put the empty taken-set
        // back for the next reuse of the scratch.
        debug_assert_eq!(taken.count(), 0, "taken-set must be released empty");
        scratch.taken = taken;
        frames.clear();
        self.b.frames = frames;
        result
    }

    /// Exhaustive variant of [`Searcher::run`]: instead of stopping at the
    /// first accepting node, explore the whole (memoized) space and collect
    /// every *distinct accepting frontier* — the interned object-state vector
    /// together with which of the `tracked` operations were linearized.
    ///
    /// Returns `(frontiers, complete)`; `complete` is `false` when the node
    /// budget was exhausted, in which case the collection may be missing
    /// entries (but every returned entry is genuinely reachable).
    fn run_frontiers(
        &mut self,
        scratch: &mut KernelScratch,
        accept: &dyn Fn(&SearchProgress) -> bool,
        tracked: &[usize],
    ) -> (Vec<RawFrontier>, bool) {
        scratch.prepare(self.n);
        let mut out: Vec<RawFrontier> = Vec::new();
        let mut frames = std::mem::take(&mut self.b.frames);
        frames.push(Frame {
            i: 0,
            k: 0,
            trans: INVALID,
            undo: None,
        });
        let mut taken = std::mem::take(&mut scratch.taken);
        // Records the current node's frontier if it is accepting and new.
        // (A node reached twice is pruned by the visited cache before this
        // runs again, so `seen` only guards against distinct accepting nodes
        // that share a frontier.)
        fn record(
            searcher: &Searcher<'_>,
            taken: &BitSet,
            tracked: &[usize],
            seen: &mut FxHashSet<Box<[u32]>>,
            out: &mut Vec<(Vec<u32>, Vec<bool>)>,
        ) {
            let placed: Vec<bool> = tracked.iter().map(|&op| taken.contains(op)).collect();
            let mut key = Vec::with_capacity(searcher.b.states.len() + placed.len());
            key.extend_from_slice(&searcher.b.states);
            key.extend(placed.iter().map(|&b| b as u32));
            if seen.insert(key.into_boxed_slice()) {
                out.push((searcher.b.states.clone(), placed));
            }
        }

        self.nodes += 1;
        scratch.visited.insert(self.vkey);
        if accept(&self.progress()) {
            record(self, &taken, tracked, &mut scratch.frontier_seen, &mut out);
        }
        'outer: while let Some(mut f) = frames.pop() {
            loop {
                if f.i >= self.n {
                    if let Some(undo) = f.undo.take() {
                        self.retract(undo, &mut taken);
                    }
                    continue 'outer;
                }
                let i = f.i;
                if taken.contains(i) || !self.canonical(i, &taken) || !self.preds_taken(i, &taken) {
                    f.i += 1;
                    f.k = 0;
                    f.trans = INVALID;
                    continue;
                }
                if f.trans == INVALID {
                    f.trans = self
                        .transitions(self.b.op_inv[i], self.b.states[self.b.op_slot[i] as usize]);
                    f.k = 0;
                }
                let (start, len) = self.b.trans_spans[f.trans as usize];
                while f.k < len {
                    let (resp, next_state) = self.b.trans_data[(start + f.k) as usize];
                    f.k += 1;
                    let fixed = self.b.op_fixed[i];
                    if fixed != INVALID && resp != fixed {
                        continue;
                    }
                    let undo = self.apply(i, resp, next_state, &mut taken);
                    self.nodes += 1;
                    if self.nodes > self.limits.max_nodes {
                        self.exhausted = true;
                        self.retract(undo, &mut taken);
                        continue;
                    }
                    if !scratch.visited.insert(self.vkey) {
                        self.memo_hits += 1;
                        self.retract(undo, &mut taken);
                        continue;
                    }
                    // A new node: record its frontier if accepting, then keep
                    // exploring below it — unlike `run`, acceptance is not a
                    // stopping condition, because deeper nodes (more optional
                    // operations linearized) reach *different* frontiers.
                    if accept(&self.progress()) {
                        record(self, &taken, tracked, &mut scratch.frontier_seen, &mut out);
                    }
                    frames.push(f);
                    frames.push(Frame {
                        i: 0,
                        k: 0,
                        trans: INVALID,
                        undo: Some(undo),
                    });
                    continue 'outer;
                }
                f.i += 1;
                f.k = 0;
                f.trans = INVALID;
            }
        }
        debug_assert_eq!(taken.count(), 0, "taken-set must be released empty");
        scratch.taken = taken;
        frames.clear();
        self.b.frames = frames;
        (out, !self.exhausted)
    }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Solves a prebuilt constrained-linearization problem with the default
/// acceptance predicate (all required operations linearized).
pub fn solve(
    problem: &SearchProblem,
    universe: &ObjectUniverse,
    limits: SearchLimits,
) -> (SearchResult, SearchStats) {
    with_thread_scratch(|scratch| solve_with_scratch(problem, universe, limits, scratch))
}

/// Like [`solve`], reusing a caller-provided [`KernelScratch`] so repeated
/// solves over same-sized problems share their allocations.
pub fn solve_with_scratch(
    problem: &SearchProblem,
    universe: &ObjectUniverse,
    limits: SearchLimits,
    scratch: &mut KernelScratch,
) -> (SearchResult, SearchStats) {
    let bufs = std::mem::take(&mut scratch.bufs);
    let mut searcher = Searcher::new(problem, universe, limits, bufs);
    let result = searcher.run(scratch, &|p| p.required_taken == p.required_total);
    let stats = searcher.stats(scratch);
    scratch.bufs = searcher.into_bufs();
    (result, stats)
}

/// One distinct *accepting frontier* of a search problem: the final state of
/// every active object under some accepting linearization, together with
/// which of the caller's tracked operations that linearization included.
///
/// The online monitor ([`crate::monitor`]) threads these through a stream of
/// quiescent-cut segments: the frontiers of segment `k` become the candidate
/// initial states of segment `k + 1`, and the tracked operations are the
/// "floaters" of `t`-linearizability — forgiven-prefix operations that may be
/// linearized in any later segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frontier {
    /// Final state of each object that appears in the problem.
    pub states: Vec<(ObjectId, Value)>,
    /// For each tracked operation (in the caller's order), whether it was
    /// linearized by the accepting linearization reaching this frontier.
    pub placed: Vec<bool>,
}

/// The collection of accepting frontiers of a problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrontierSet {
    /// The distinct frontiers, in discovery order.
    pub entries: Vec<Frontier>,
    /// `false` when the node budget was exhausted before the search space was
    /// covered: the entries are all reachable, but some may be missing.
    pub complete: bool,
}

impl FrontierSet {
    /// Whether at least one accepting linearization exists (and the
    /// collection can be trusted to witness it).
    pub fn is_satisfiable(&self) -> bool {
        !self.entries.is_empty()
    }
}

/// Exhaustively solves a constrained-linearization problem, returning every
/// distinct accepting frontier instead of the first witness.
///
/// `tracked` lists problem operation indices whose inclusion the caller wants
/// reported per frontier (see [`Frontier::placed`]); pass `&[]` when only the
/// final states matter.  Unlike [`solve`], acceptance does not stop the
/// search: nodes below an accepting node are still explored, because
/// linearizing further optional operations reaches different frontiers.
pub fn solve_frontiers(
    problem: &SearchProblem,
    universe: &ObjectUniverse,
    limits: SearchLimits,
    tracked: &[usize],
    scratch: &mut KernelScratch,
) -> (FrontierSet, SearchStats) {
    let bufs = std::mem::take(&mut scratch.bufs);
    let mut searcher = Searcher::new(problem, universe, limits, bufs);
    let (raw, complete) =
        searcher.run_frontiers(scratch, &|p| p.required_taken == p.required_total, tracked);
    let entries = raw
        .into_iter()
        .map(|(states, placed)| Frontier {
            states: states
                .iter()
                .enumerate()
                .map(|(slot, &id)| {
                    (
                        searcher.b.slots[slot],
                        searcher.b.values[id as usize].clone(),
                    )
                })
                .collect(),
            placed,
        })
        .collect();
    let stats = searcher.stats(scratch);
    scratch.bufs = searcher.into_bufs();
    (FrontierSet { entries, complete }, stats)
}

/// Checks `condition` on the whole history (no locality decomposition).
pub fn check(
    condition: &dyn ConsistencyCondition,
    history: &History,
    universe: &ObjectUniverse,
    limits: SearchLimits,
) -> SearchResult {
    check_with_stats(condition, history, universe, limits).0
}

/// Like [`check`], additionally returning the search counters.
pub fn check_with_stats(
    condition: &dyn ConsistencyCondition,
    history: &History,
    universe: &ObjectUniverse,
    limits: SearchLimits,
) -> (SearchResult, SearchStats) {
    with_thread_scratch(|scratch| check_with_scratch(condition, history, universe, limits, scratch))
}

/// Like [`check_with_stats`], reusing a caller-provided [`KernelScratch`]
/// (the per-operation loop of the weak-consistency checker runs one search
/// per completed operation over the same history and shares one scratch
/// across them).
pub fn check_with_scratch(
    condition: &dyn ConsistencyCondition,
    history: &History,
    universe: &ObjectUniverse,
    limits: SearchLimits,
    scratch: &mut KernelScratch,
) -> (SearchResult, SearchStats) {
    let problem = condition.problem(history);
    let bufs = std::mem::take(&mut scratch.bufs);
    let mut searcher = Searcher::new(&problem, universe, limits, bufs);
    let result = searcher.run(scratch, &|p| condition.accepted(p));
    let stats = searcher.stats(scratch);
    scratch.bufs = searcher.into_bufs();
    (result, stats)
}

/// Checks `condition` with the locality pre-pass: a multi-object history is
/// split into per-object projections, each checked independently (in
/// parallel across objects via [`crate::parallel`]), and — when every
/// subproblem has a witness — the per-object witnesses are composed into a
/// global one.
///
/// For conditions whose [`ConsistencyCondition::locality`] is
/// [`Locality::Global`], and for histories touching at most one object, this
/// is exactly [`check`].
pub fn check_local(
    condition: &dyn ConsistencyCondition,
    history: &History,
    universe: &ObjectUniverse,
    limits: SearchLimits,
) -> SearchResult {
    check_local_with_stats(condition, history, universe, limits).0
}

/// Like [`check_local`], additionally returning the search counters (summed
/// over the per-object subproblems when the history was decomposed).
pub fn check_local_with_stats(
    condition: &dyn ConsistencyCondition,
    history: &History,
    universe: &ObjectUniverse,
    limits: SearchLimits,
) -> (SearchResult, SearchStats) {
    let objects = history.objects();
    if condition.locality() != Locality::Exact || objects.len() <= 1 {
        return check_with_stats(condition, history, universe, limits);
    }
    // Greedy probe: most histories produced by generators and recorders are
    // satisfiable and the depth-first searcher resolves them in roughly one
    // descent, where projecting and recomposing would only add overhead.
    // Give the whole-history search a budget linear in the operation count;
    // any definitive answer within it is final, and only a blown budget —
    // the signature of a combinatorial (product-space) search — pays for the
    // per-object decomposition.
    let probe_budget = (4 * history.operations().len() + 16).min(limits.max_nodes);
    let probe_limits = SearchLimits {
        max_nodes: probe_budget,
    };
    let (probe_result, mut stats) = check_with_stats(condition, history, universe, probe_limits);
    if !matches!(probe_result, SearchResult::Unknown) {
        return (probe_result, stats);
    }
    // Per-object subproblems, checked independently across all cores.
    let sub: Vec<(ObjectId, SearchResult, SearchStats)> = parallel::map_par(&objects, |&object| {
        let projection = history.project_object(object);
        let (result, stats) = check_with_stats(condition, &projection, universe, limits);
        (object, result, stats)
    });
    let mut unknown = false;
    for (_, result, s) in &sub {
        stats.absorb(*s);
        match result {
            SearchResult::No => return (SearchResult::No, stats),
            SearchResult::Unknown => unknown = true,
            SearchResult::Yes(_) => {}
        }
    }
    if unknown {
        return (SearchResult::Unknown, stats);
    }
    match compose_witnesses(condition, history, &sub) {
        Some(witness) => (SearchResult::Yes(witness), stats),
        None => {
            // Composition found a cycle, which the locality theorem rules
            // out for Locality::Exact conditions; fall back to the global
            // search rather than give a wrong answer.
            let (result, global_stats) = check_with_stats(condition, history, universe, limits);
            stats.absorb(global_stats);
            (result, stats)
        }
    }
}

/// Composes per-object witnesses into a global witness: the union of the
/// per-object linearization orders and the real-time precedence between the
/// included operations is acyclic (Herlihy–Wing locality), so a topological
/// sort interleaves them.  Ties are broken by smallest operation index, which
/// makes the composed witness deterministic.
fn compose_witnesses(
    condition: &dyn ConsistencyCondition,
    history: &History,
    sub: &[(ObjectId, SearchResult, SearchStats)],
) -> Option<Witness> {
    let candidates = condition.candidates(history);
    // Global candidate indices of each object's operations, in order — the
    // j-th operation of the projection is the j-th candidate on that object
    // (Locality::Exact guarantees the 1:1, order-preserving alignment).
    let mut included: Vec<(usize, Value)> = Vec::new();
    let mut chains: Vec<Vec<usize>> = Vec::new();
    for (object, result, _) in sub {
        let SearchResult::Yes(w) = result else {
            return None;
        };
        let on_object: Vec<usize> = (0..candidates.len())
            .filter(|&i| candidates[i].record.object == *object)
            .collect();
        let mut chain = Vec::with_capacity(w.order.len());
        for (j, &local) in w.order.iter().enumerate() {
            let global = *on_object.get(local)?;
            chain.push(global);
            included.push((global, w.responses[j].clone()));
        }
        chains.push(chain);
    }
    // Edges: consecutive pairs of each per-object chain, plus real-time
    // precedence between included operations.
    let mut position: FxHashMap<usize, usize> = FxHashMap::default();
    for (pos, (global, _)) in included.iter().enumerate() {
        position.insert(*global, pos);
    }
    let m = included.len();
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); m];
    let mut indegree = vec![0usize; m];
    let add_edge = |a: usize, b: usize, succs: &mut Vec<Vec<usize>>, indeg: &mut Vec<usize>| {
        succs[a].push(b);
        indeg[b] += 1;
    };
    for chain in &chains {
        for w in chain.windows(2) {
            add_edge(position[&w[0]], position[&w[1]], &mut succs, &mut indegree);
        }
    }
    for (pa, (a, _)) in included.iter().enumerate() {
        for (pb, (b, _)) in included.iter().enumerate() {
            if a != b
                && candidates[*a].record.object != candidates[*b].record.object
                && candidates[*a].record.precedes(&candidates[*b].record)
            {
                add_edge(pa, pb, &mut succs, &mut indegree);
            }
        }
    }
    // Kahn's algorithm with smallest-global-index tie-break.
    let mut order = Vec::with_capacity(m);
    let mut responses = Vec::with_capacity(m);
    let mut done = vec![false; m];
    for _ in 0..m {
        let next = (0..m)
            .filter(|&p| !done[p] && indegree[p] == 0)
            .min_by_key(|&p| included[p].0)?;
        done[next] = true;
        order.push(included[next].0);
        responses.push(included[next].1.clone());
        for &s in &succs[next] {
            indegree[s] -= 1;
        }
    }
    Some(Witness { order, responses })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linearizability::Linearizability;
    use evlin_history::{HistoryBuilder, ProcessId};
    use evlin_spec::{FetchIncrement, Register, Value};

    fn two_object_history() -> (ObjectUniverse, History) {
        let mut u = ObjectUniverse::new();
        let r = u.add_object(Register::new(Value::from(0i64)));
        let x = u.add_object(FetchIncrement::new());
        let h = HistoryBuilder::new()
            .complete(
                ProcessId(0),
                r,
                Register::write(Value::from(1i64)),
                Value::Unit,
            )
            .complete(
                ProcessId(1),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(0i64),
            )
            .complete(ProcessId(0), r, Register::read(), Value::from(1i64))
            .complete(
                ProcessId(1),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(1i64),
            )
            .build();
        (u, h)
    }

    #[test]
    fn local_and_global_checks_agree() {
        let (u, h) = two_object_history();
        let limits = SearchLimits::default();
        let global = check(&Linearizability, &h, &u, limits);
        let local = check_local(&Linearizability, &h, &u, limits);
        assert!(global.is_yes());
        assert!(local.is_yes());
    }

    #[test]
    fn composed_witness_respects_real_time_and_legality() {
        let (u, h) = two_object_history();
        let w = check_local(&Linearizability, &h, &u, SearchLimits::default())
            .witness()
            .expect("linearizable");
        assert_eq!(w.order.len(), 4);
        // Real-time precedence between the included operations must hold in
        // the composed order.
        let candidates = Linearizability.candidates(&h);
        let pos = |i: usize| w.order.iter().position(|&x| x == i).unwrap();
        for a in 0..candidates.len() {
            for b in 0..candidates.len() {
                if a != b && candidates[a].record.precedes(&candidates[b].record) {
                    assert!(pos(a) < pos(b), "edge ({a},{b}) violated in {:?}", w.order);
                }
            }
        }
        // And the rendered sequential history is legal.
        let s = crate::linearizability::witness_to_history(&h, &w);
        assert!(s.is_sequential());
        assert!(evlin_history::legal::is_legal_sequential(&s, &u));
    }

    #[test]
    fn locality_rejects_when_one_object_is_broken() {
        let mut u = ObjectUniverse::new();
        let r = u.add_object(Register::new(Value::from(0i64)));
        let x = u.add_object(FetchIncrement::new());
        let h = HistoryBuilder::new()
            .complete(
                ProcessId(0),
                r,
                Register::write(Value::from(1i64)),
                Value::Unit,
            )
            // Stale read strictly after the write: the register projection is
            // not linearizable.
            .complete(ProcessId(0), r, Register::read(), Value::from(0i64))
            .complete(
                ProcessId(1),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(0i64),
            )
            .build();
        assert_eq!(
            check_local(&Linearizability, &h, &u, SearchLimits::default()),
            SearchResult::No
        );
    }

    #[test]
    fn scratch_reuse_is_sound_across_outcomes() {
        let mut u = ObjectUniverse::new();
        let r = u.add_object(Register::new(Value::from(0i64)));
        let good = HistoryBuilder::new()
            .complete(
                ProcessId(0),
                r,
                Register::write(Value::from(1i64)),
                Value::Unit,
            )
            .complete(ProcessId(1), r, Register::read(), Value::from(1i64))
            .build();
        let bad = HistoryBuilder::new()
            .complete(
                ProcessId(0),
                r,
                Register::write(Value::from(1i64)),
                Value::Unit,
            )
            .complete(ProcessId(1), r, Register::read(), Value::from(7i64))
            .build();
        let mut scratch = KernelScratch::new();
        let limits = SearchLimits::default();
        for _ in 0..3 {
            let p = Linearizability.problem(&good);
            assert!(solve_with_scratch(&p, &u, limits, &mut scratch).0.is_yes());
            let p = Linearizability.problem(&bad);
            assert_eq!(
                solve_with_scratch(&p, &u, limits, &mut scratch).0,
                SearchResult::No
            );
        }
    }

    #[test]
    fn interchangeable_operations_are_merged_not_permuted() {
        // n identical concurrent reads: the canonical-representative rule
        // explores each multiset once, so the node count stays linear in n
        // instead of exponential (and far below n!).
        let mut u = ObjectUniverse::new();
        let r = u.add_object(Register::new(Value::from(0i64)));
        let n = 7usize;
        // The impossible read overlaps all the others, so there are no
        // precedence edges and the identical reads share one class.
        let mut b = HistoryBuilder::new().invoke(ProcessId(n), r, Register::read());
        for p in 0..n {
            b = b.invoke(ProcessId(p), r, Register::read());
        }
        for p in 0..n {
            b = b.respond(ProcessId(p), r, Value::from(0i64));
        }
        let h = b.respond(ProcessId(n), r, Value::from(7i64)).build();
        let p = Linearizability.problem(&h);
        let (result, stats) = solve(&p, &u, SearchLimits::default());
        assert_eq!(result, SearchResult::No);
        assert!(
            stats.nodes <= 2 * (n + 1),
            "interchangeable reads must collapse into one chain: {stats:?}"
        );
    }

    #[test]
    fn plain_solve_after_solve_frontiers_reports_no_stale_frontier_bytes() {
        // A scratch that last ran `solve_frontiers` must report the same
        // counters for a plain solve as a fresh scratch: the frontier-dedup
        // keys of the earlier run are not part of this search's working set.
        let (u, h) = two_object_history();
        let p = Linearizability.problem(&h);
        let limits = SearchLimits::default();
        let fresh = solve_with_scratch(&p, &u, limits, &mut KernelScratch::new());
        let mut reused = KernelScratch::new();
        let (frontiers, _) = solve_frontiers(&p, &u, limits, &[], &mut reused);
        assert!(frontiers.is_satisfiable());
        let after = solve_with_scratch(&p, &u, limits, &mut reused);
        assert_eq!(after.0, fresh.0);
        assert_eq!(after.1.nodes, fresh.1.nodes);
        assert_eq!(after.1.memo_hits, fresh.1.memo_hits);
        assert_eq!(after.1.arena_bytes, fresh.1.arena_bytes);
    }

    /// A hand-built problem over every operation of `history`: complete
    /// operations required, responses fixed when `fix_all`, and an explicit
    /// edge for every real-time-ordered pair.
    fn problem_from(history: &History, fix_all: bool) -> SearchProblem {
        let ops = history.operations();
        let precedence = (0..ops.len())
            .flat_map(|i| (0..ops.len()).map(move |j| (i, j)))
            .filter(|&(i, j)| i != j && ops[i].precedes(&ops[j]))
            .collect();
        SearchProblem {
            ops: ops
                .iter()
                .map(|op| ConstrainedOp {
                    required: op.is_complete(),
                    fixed_response: if fix_all { op.response.clone() } else { None },
                    record: op.clone(),
                })
                .collect(),
            precedence,
        }
    }

    #[test]
    fn witness_respects_precedence_and_fixed_responses() {
        let mut u = ObjectUniverse::new();
        let r = u.add_object(Register::new(Value::from(0i64)));
        let h = HistoryBuilder::new()
            .complete(
                ProcessId(0),
                r,
                Register::write(Value::from(1i64)),
                Value::Unit,
            )
            .complete(
                ProcessId(0),
                r,
                Register::write(Value::from(2i64)),
                Value::Unit,
            )
            .complete(ProcessId(1), r, Register::read(), Value::from(2i64))
            .build();
        let p = problem_from(&h, true);
        let w = solve(&p, &u, SearchLimits::default())
            .0
            .witness()
            .expect("linearizable");
        assert_eq!(w.order.len(), 3);
        let pos = |i: usize| w.order.iter().position(|&x| x == i).unwrap();
        for &(a, b) in &p.precedence {
            assert!(pos(a) < pos(b), "edge ({a},{b}) violated");
        }
        for (&i, response) in w.order.iter().zip(&w.responses) {
            assert_eq!(Some(response), p.ops[i].fixed_response.as_ref());
        }
    }

    #[test]
    fn pending_write_can_justify_a_read() {
        let mut u = ObjectUniverse::new();
        let r = u.add_object(Register::new(Value::from(0i64)));
        // p0's write(5) never completes, but p1 reads 5: linearizable by
        // including the pending write.
        let h = HistoryBuilder::new()
            .invoke(ProcessId(0), r, Register::write(Value::from(5i64)))
            .complete(ProcessId(1), r, Register::read(), Value::from(5i64))
            .build();
        let (result, _) = solve(&problem_from(&h, true), &u, SearchLimits::default());
        let w = result.witness().expect("linearizable with pending write");
        assert_eq!(w.order.len(), 2);
    }

    #[test]
    fn unfixed_responses_relax_the_problem() {
        let mut u = ObjectUniverse::new();
        let r = u.add_object(Register::new(Value::from(0i64)));
        let h = HistoryBuilder::new()
            .complete(
                ProcessId(0),
                r,
                Register::write(Value::from(1i64)),
                Value::Unit,
            )
            .complete(ProcessId(1), r, Register::read(), Value::from(99i64))
            .build();
        let limits = SearchLimits::default();
        // With fixed responses the read of 99 is illegal...
        assert_eq!(
            solve(&problem_from(&h, true), &u, limits).0,
            SearchResult::No
        );
        // ...but if responses are left free the operations can be arranged.
        assert!(solve(&problem_from(&h, false), &u, limits).0.is_yes());
    }

    #[test]
    fn node_budget_reports_unknown() {
        let mut u = ObjectUniverse::new();
        let r = u.add_object(Register::new(Value::from(0i64)));
        let mut b = HistoryBuilder::new();
        for i in 0..6 {
            b = b
                .invoke(ProcessId(i), r, Register::write(Value::from(i as i64)))
                .invoke(ProcessId(i + 6), r, Register::read());
        }
        for i in 0..6 {
            b = b.respond(ProcessId(i), r, Value::Unit).respond(
                ProcessId(i + 6),
                r,
                Value::from(((i + 1) % 6) as i64),
            );
        }
        let p = problem_from(&b.build(), true);
        let (result, _) = solve(&p, &u, SearchLimits { max_nodes: 3 });
        assert_eq!(result, SearchResult::Unknown);
    }

    #[test]
    fn memoization_hits_on_revisited_set_and_states() {
        // Three concurrent writes on three *distinct* registers, plus an
        // unsatisfiable fixed response (a read of 7 that nothing wrote): the
        // search must explore every subset of the writes, and different
        // interleavings of distinct operations reach the same
        // (linearized-multiset, object-states) key — every arrival after the
        // first must be answered by the Wing–Gong cache.
        let mut u = ObjectUniverse::new();
        let regs: Vec<_> = (0..3)
            .map(|_| u.add_object(Register::new(Value::from(0i64))))
            .collect();
        let bad = u.add_object(Register::new(Value::from(0i64)));
        let mut b = HistoryBuilder::new();
        for (p, &r) in regs.iter().enumerate() {
            b = b.invoke(ProcessId(p), r, Register::write(Value::from(1i64)));
        }
        for (p, &r) in regs.iter().enumerate() {
            b = b.respond(ProcessId(p), r, Value::Unit);
        }
        let h = b
            .complete(ProcessId(3), bad, Register::read(), Value::from(7i64))
            .build();
        let (result, stats) = solve(&problem_from(&h, true), &u, SearchLimits::default());
        assert_eq!(result, SearchResult::No);
        assert!(stats.nodes > 0);
        // 2^3 subsets of the writes, reachable along 3! orders: the cache
        // must absorb the difference (3 * 2^2 - (2^3 - 1) = 5 hits).
        assert!(
            stats.memo_hits >= 4,
            "revisited (multiset, states) keys must hit the cache: {stats:?}"
        );
    }

    #[test]
    fn empty_problem_is_trivially_satisfiable() {
        let p = SearchProblem {
            ops: Vec::new(),
            precedence: Vec::new(),
        };
        assert!(solve(&p, &ObjectUniverse::new(), SearchLimits::default())
            .0
            .is_yes());
    }
}

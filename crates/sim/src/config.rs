//! Configurations of the simulated system.
//!
//! A configuration bundles the state of every shared base object, the
//! programme state of every process, each process's remaining workload, and
//! the high-level history recorded so far.  Configurations are cheap to clone
//! (everything is an owned value), which is what the execution-tree explorer,
//! the valency analysis and the stable-configuration search rely on.

use crate::base::{BaseObject, PidDependence};
use crate::fault::{FaultStep, FaultTarget};
use crate::program::{Implementation, ProcessLogic, TaskStep};
use crate::workload::Workload;
use crate::zobrist::{self, TAG_EVENT, TAG_OBJECT, TAG_PROCESS};
use evlin_history::{Event, History, ObjectId, ProcessId};
use evlin_spec::Value;
use std::collections::VecDeque;
use std::fmt;
use std::hash::{Hash, Hasher};

/// What happened when a process was given one step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepOutcome {
    /// The process performed an internal or base-object step of its current
    /// operation; the operation is still running.
    Progressed,
    /// The process completed its current high-level operation with the given
    /// response.
    Completed(Value),
    /// The process has no operation to run (its workload is exhausted).
    Idle,
}

/// The *shape* of the next atomic step of a process, as seen by the
/// step-independence oracle of [`crate::engine`]: whether the step records a
/// history event and, for mid-operation base-object accesses, which object
/// it touches and whether it changes that object's state.
///
/// Two steps *commute* (executing them in either order reaches the same
/// configuration) iff both are [`StepShape::Access`]es to disjoint base
/// objects, or to the same object with neither writing.  Operation starts and
/// completions append to the recorded history, whose event order is part of
/// the configuration, so they never commute with anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepShape {
    /// The step starts a new high-level operation (records an invocation
    /// event).
    Start,
    /// A mid-operation access to a base object (records nothing).
    Access {
        /// Index of the base object the step accesses.
        object: usize,
        /// Whether the access changes the object's state (observed on its
        /// `Debug` rendering, which for the state machines in this workspace
        /// prints every field).
        writes: bool,
    },
    /// The step completes the current operation (records a response event).
    Complete,
}

#[derive(Clone, Debug)]
struct ProcessState {
    logic: Box<dyn ProcessLogic>,
    /// Remaining high-level operations to perform.
    remaining: VecDeque<evlin_spec::Invocation>,
    /// Whether an operation is currently being executed, and the response of
    /// the last base-object access to feed into the next step.
    running: bool,
    last_response: Option<Value>,
    completed: usize,
}

/// Largest process count for which the per-(process, rename-target) history
/// components are maintained (the symmetry reduction needs them for up to
/// [`crate::engine::SymmetryReduction::MAX_PROCESSES`] = 6 processes; beyond
/// this bound permuted fingerprints fall back to a physical rename).
const MAX_TRACKED_PROCESSES: usize = 16;

/// The incrementally maintained Zobrist fingerprint of a configuration (see
/// [`crate::zobrist`]): one XOR-folded [`zobrist::component`] per base
/// object, per process state and per recorded history event.
///
/// Every mutation of the configuration updates exactly the components it
/// touches — a step rehashes one process state and at most one base object,
/// an event append folds in one event key per rename target — so
/// [`Config::fingerprint`] is a field read instead of a full-state
/// serialization.
#[derive(Clone, Default)]
struct Fingerprint {
    /// Content hash of each base object's state (its `Debug` rendering).
    obj_raw: Vec<u64>,
    /// Content hash of each process state.
    proc_raw: Vec<u64>,
    /// XOR of all object components (`component(TAG_OBJECT, i, obj_raw[i])`).
    obj_fold: u64,
    /// XOR of all process components.
    proc_fold: u64,
    /// XOR of all identity event components (`ev(k, p, body)` for the event
    /// at position `k` by process `p`).
    hist_id: u64,
    /// `hist[p * n + q]`: XOR of the event components of process `p`'s events
    /// *as if* `p` were renamed to `q` — what lets a permuted fingerprint
    /// fold `n` precomputed words instead of rehashing the history.  Empty
    /// when the configuration has more than [`MAX_TRACKED_PROCESSES`]
    /// processes.
    hist: Vec<u64>,
}

/// The key of the event at position `k` by (renamed) process `q` with
/// content hash `body`.
#[inline]
fn ev_key(k: usize, q: usize, body: u64) -> u64 {
    zobrist::component(TAG_EVENT, zobrist::mix2(k as u64, q as u64), body)
}

impl Fingerprint {
    /// The combined fingerprint.
    #[inline]
    fn current(&self) -> u64 {
        self.obj_fold ^ self.proc_fold ^ self.hist_id
    }

    fn tracks_renames(&self, n: usize) -> bool {
        self.hist.len() == n * n
    }

    /// Folds the event at position `k` by process `p` into the history
    /// components.
    fn push_event(&mut self, n: usize, k: usize, p: usize, body: u64) {
        self.hist_id ^= ev_key(k, p, body);
        if self.tracks_renames(n) {
            for q in 0..n {
                self.hist[p * n + q] ^= ev_key(k, q, body);
            }
        }
    }

    /// Replaces the content hash of base object `i`.
    fn set_obj(&mut self, i: usize, raw: u64) {
        self.obj_fold ^= zobrist::component(TAG_OBJECT, i as u64, self.obj_raw[i])
            ^ zobrist::component(TAG_OBJECT, i as u64, raw);
        self.obj_raw[i] = raw;
    }

    /// Replaces the content hash of process `i`'s state.
    fn set_proc(&mut self, i: usize, raw: u64) {
        self.proc_fold ^= zobrist::component(TAG_PROCESS, i as u64, self.proc_raw[i])
            ^ zobrist::component(TAG_PROCESS, i as u64, raw);
        self.proc_raw[i] = raw;
    }
}

/// The content hash of one process state (programme state by `Debug`,
/// progress flags, in-flight response, remaining workload) — the same fields
/// the pre-incremental fingerprint serialized.
fn proc_content(state: &ProcessState) -> u64 {
    let mut hasher = zobrist::FxHasher::default();
    zobrist::hash_debug(&state.logic).hash(&mut hasher);
    state.running.hash(&mut hasher);
    state.last_response.hash(&mut hasher);
    state.completed.hash(&mut hasher);
    state.remaining.hash(&mut hasher);
    hasher.finish()
}

/// The content hash of one history event's body (object and kind; the
/// process id is folded separately so renamings can be applied per process).
fn event_body(event: &Event) -> u64 {
    let mut hasher = zobrist::FxHasher::default();
    event.object.hash(&mut hasher);
    event.kind.hash(&mut hasher);
    hasher.finish()
}

/// One slot of the step-shape memo: `None` = not computed for the current
/// state; `Some(shape)` = the memoized [`Config::peek_step_shape`] result
/// (itself an `Option`, since disabled processes have no shape).
type ShapeSlot = Option<Option<StepShape>>;

/// A configuration of the simulated system.
pub struct Config {
    base: Vec<Box<dyn BaseObject>>,
    processes: Vec<ProcessState>,
    history: History,
    steps: usize,
    /// The single high-level object id used in the recorded history.
    object_id: ObjectId,
    /// The maintained structural fingerprint.
    fp: Fingerprint,
    /// Whether `fp` is being maintained.  Off by default: only deduplicating
    /// exploration reads fingerprints, and maintaining them costs one
    /// state-content rehash per step, which pure tree walks and the long
    /// scheduler runs of `crate::runner` should not pay.  The engine flips
    /// this on (see [`Config::set_fingerprint_tracking`]) exactly when a
    /// dedup set exists.
    fp_live: bool,
    /// Remaining transient-fault budget: how many more [`FaultStep`]s this
    /// configuration's futures may inject (see [`crate::fault`]).  0 — the
    /// default — disables fault enumeration entirely.
    fault_budget: usize,
    /// Memoized per-process step shapes ([`Config::step_shape_memoized`]),
    /// cleared by every mutation that can change a pending step's shape —
    /// including fault corruption, whose staleness would otherwise let a
    /// write-detecting probe report the pre-corruption classification.
    /// Empty = cold.
    shape_memo: Vec<ShapeSlot>,
}

impl Clone for Config {
    fn clone(&self) -> Self {
        Config {
            base: self.base.clone(),
            processes: self.processes.clone(),
            history: self.history.clone(),
            steps: self.steps,
            object_id: self.object_id,
            fp: self.fp.clone(),
            fp_live: self.fp_live,
            fault_budget: self.fault_budget,
            // The memo would still be valid for the clone (same state), but
            // carrying it would cost an allocation per clone on the engine's
            // hot path; clones start cold instead.
            shape_memo: Vec::new(),
        }
    }
}

impl Config {
    /// Builds the initial configuration of `implementation` running
    /// `workload`.
    ///
    /// # Panics
    ///
    /// Panics if the workload has more processes than the implementation was
    /// instantiated for.
    pub fn initial(implementation: &dyn Implementation, workload: &Workload) -> Self {
        assert!(
            workload.processes() <= implementation.processes(),
            "workload has {} processes but the implementation supports {}",
            workload.processes(),
            implementation.processes()
        );
        let base = implementation.initial_base_objects();
        let processes = (0..workload.processes())
            .map(|i| ProcessState {
                logic: implementation.new_process(ProcessId(i)),
                remaining: workload.operations(i).iter().cloned().collect(),
                running: false,
                last_response: None,
                completed: 0,
            })
            .collect();
        Config {
            base,
            processes,
            history: History::new(),
            steps: 0,
            object_id: ObjectId(0),
            fp: Fingerprint::default(),
            fp_live: false,
            fault_budget: 0,
            shape_memo: Vec::new(),
        }
    }

    /// Switches incremental fingerprint maintenance on or off.
    ///
    /// Turning it on rebuilds the components once (O(|state| + |history|));
    /// every subsequent [`Config::step`] then updates them incrementally.
    /// `renames` additionally maintains the per-(process, rename-target)
    /// history rows that [`Config::canonical_permutation`] folds — only the
    /// symmetry-canonicalizing strategies read them, and they cost `n` extra
    /// event-key folds per recorded event plus an `n²`-word copy per clone,
    /// so plain deduplicating walks should pass `false`.  Turning tracking
    /// off drops the components, which also makes clones of this
    /// configuration slightly cheaper.  The exploration engine enables
    /// tracking on the root exactly when deduplication (or symmetry
    /// canonicalization) will read fingerprints.
    pub fn set_fingerprint_tracking(&mut self, on: bool, renames: bool) {
        if on && (!self.fp_live || self.fp.tracks_renames(self.processes.len()) != renames) {
            self.fp = self.rebuild_fingerprint_with(renames);
        } else if !on {
            self.fp = Fingerprint::default();
        }
        self.fp_live = on;
    }

    /// Rebuilds the fingerprint components from scratch, with rename rows
    /// matching the current tracking mode (the debug cross-check; every
    /// steady-state update is incremental).
    fn rebuild_fingerprint(&self) -> Fingerprint {
        self.rebuild_fingerprint_with(self.fp.tracks_renames(self.processes.len()))
    }

    /// Rebuilds the fingerprint components from scratch, building the
    /// per-(process, rename-target) history rows only when `renames` asks
    /// for them.
    fn rebuild_fingerprint_with(&self, renames: bool) -> Fingerprint {
        let n = self.processes.len();
        let obj_raw: Vec<u64> = self.base.iter().map(|b| zobrist::hash_debug(b)).collect();
        let proc_raw: Vec<u64> = self.processes.iter().map(proc_content).collect();
        let obj_fold = obj_raw.iter().enumerate().fold(0, |acc, (i, &raw)| {
            acc ^ zobrist::component(TAG_OBJECT, i as u64, raw)
        });
        let proc_fold = proc_raw.iter().enumerate().fold(0, |acc, (i, &raw)| {
            acc ^ zobrist::component(TAG_PROCESS, i as u64, raw)
        });
        let mut fp = Fingerprint {
            obj_raw,
            proc_raw,
            obj_fold,
            proc_fold,
            hist_id: 0,
            hist: if renames && n <= MAX_TRACKED_PROCESSES {
                vec![0; n * n]
            } else {
                Vec::new()
            },
        };
        for (k, event) in self.history.events().iter().enumerate() {
            fp.push_event(n, k, event.process.index(), event_body(event));
        }
        fp
    }

    /// Whether the incrementally maintained fingerprint agrees with a full
    /// rebuild — the cross-check the differential suite runs on every visited
    /// state of its seeded cases.  Vacuously true while tracking is off.
    pub fn fingerprint_consistent(&self) -> bool {
        if !self.fp_live {
            return true;
        }
        let fresh = self.rebuild_fingerprint();
        fresh.obj_raw == self.fp.obj_raw
            && fresh.proc_raw == self.fp.proc_raw
            && fresh.obj_fold == self.fp.obj_fold
            && fresh.proc_fold == self.fp.proc_fold
            && fresh.hist_id == self.fp.hist_id
            && fresh.hist == self.fp.hist
    }

    /// The number of processes.
    pub fn processes(&self) -> usize {
        self.processes.len()
    }

    /// The high-level history recorded so far.
    pub fn history(&self) -> &History {
        &self.history
    }

    /// Total number of steps taken so far.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Number of high-level operations completed by process `p`.
    pub fn completed(&self, p: ProcessId) -> usize {
        self.processes[p.index()].completed
    }

    /// Number of high-level operations completed by all processes.
    pub fn total_completed(&self) -> usize {
        self.processes.iter().map(|p| p.completed).sum()
    }

    /// Whether process `p` currently has an operation in progress.
    pub fn is_running(&self, p: ProcessId) -> bool {
        self.processes[p.index()].running
    }

    /// Whether process `p` can take a step (it has an operation in progress
    /// or more workload to start).
    pub fn is_enabled(&self, p: ProcessId) -> bool {
        let st = &self.processes[p.index()];
        st.running || !st.remaining.is_empty()
    }

    /// Whether every process has exhausted its workload and has no operation
    /// in progress.
    pub fn is_quiescent(&self) -> bool {
        self.processes
            .iter()
            .all(|p| !p.running && p.remaining.is_empty())
    }

    /// The processes that can currently take a step.
    pub fn enabled_processes(&self) -> Vec<ProcessId> {
        let mut out = Vec::new();
        self.enabled_into(&mut out);
        out
    }

    /// Collects the enabled processes into a caller-provided buffer (cleared
    /// first) — the allocation-free variant the exploration engine uses once
    /// per visited configuration.
    pub fn enabled_into(&self, out: &mut Vec<ProcessId>) {
        out.clear();
        out.extend(
            (0..self.processes.len())
                .map(ProcessId)
                .filter(|&p| self.is_enabled(p)),
        );
    }

    /// Appends an extra high-level operation to process `p`'s workload.
    pub fn push_operation(&mut self, p: ProcessId, invocation: evlin_spec::Invocation) {
        self.processes[p.index()].remaining.push_back(invocation);
        self.shape_memo.clear();
        self.refresh_proc_fingerprint(p.index());
    }

    /// Rehashes process `i`'s state into the maintained fingerprint (called
    /// after any mutation of that process's fields; no-op while tracking is
    /// off).
    fn refresh_proc_fingerprint(&mut self, i: usize) {
        if self.fp_live {
            let raw = proc_content(&self.processes[i]);
            self.fp.set_proc(i, raw);
        }
    }

    /// The current states of the base objects (used by the Proposition 18
    /// freezing machinery and by diagnostics).
    pub fn base_states(&self) -> Vec<Value> {
        self.base.iter().map(|b| b.state_value()).collect()
    }

    /// Clones the base objects (used to freeze a configuration into a new
    /// implementation).
    pub fn clone_base_objects(&self) -> Vec<Box<dyn BaseObject>> {
        self.base.clone()
    }

    /// Clones process `p`'s programme state (used to freeze a configuration).
    pub fn clone_process_logic(&self, p: ProcessId) -> Box<dyn ProcessLogic> {
        self.processes[p.index()].logic.clone()
    }

    /// A structural fingerprint of the configuration, used by deduplicating
    /// exploration ([`crate::engine::EngineOptions::dedup`]).
    ///
    /// Two configurations with equal fingerprints have (with overwhelming
    /// probability) identical base-object states, programme states, remaining
    /// workloads, in-flight responses *and recorded histories*.  Keeping the
    /// history in the key means only interleavings that differ in unrecorded
    /// internal base-object steps ever merge — a deliberate choice so that
    /// visitors which collect histories stay exact under deduplication.  The
    /// step counter is excluded: configurations agreeing on everything else
    /// have necessarily taken the same number of (non-idle) steps, so hashing
    /// it would add nothing.
    ///
    /// The fingerprint is a Zobrist-style XOR fold maintained incrementally
    /// by [`Config::step`] (see [`crate::zobrist`]), so with tracking enabled
    /// ([`Config::set_fingerprint_tracking`], as the deduplicating engine
    /// does) this is a field read — O(1) instead of O(|state|) per visited
    /// configuration.  Without tracking it falls back to a full rebuild.
    #[inline]
    pub fn fingerprint(&self) -> u64 {
        if self.fp_live {
            self.fp.current()
        } else {
            self.rebuild_fingerprint().current()
        }
    }

    /// The fingerprint of the configuration *as if* its processes had been
    /// renamed by `perm` (process `i` becomes `perm[i]`), without mutating
    /// anything.
    ///
    /// This is what the symmetry reduction minimizes over all permutations to
    /// pick a canonical representative; it agrees with
    /// [`Config::fingerprint`] after [`Config::apply_permutation`] with the
    /// same permutation.  Sound only when process programmes do not embed
    /// their own identity and every base object declares its process-id
    /// dependence (see [`crate::engine::SymmetryReduction`]).
    pub fn fingerprint_permuted(&self, perm: &[usize]) -> u64 {
        let n = self.processes.len();
        if n > MAX_TRACKED_PROCESSES {
            // Beyond the tracked bound: rename physically (cold path, never
            // taken by the symmetry reduction, which caps at 6 processes).
            let mut renamed = self.clone();
            renamed.apply_permutation(perm);
            return renamed.fingerprint();
        }
        if self.fp_live && self.fp.tracks_renames(n) {
            self.permuted_key(&self.fp, perm, self.permutable_components(&self.fp, perm))
        } else {
            // Rows not maintained (tracking off, or a non-canonicalizing
            // walk): derive them once for this call.
            let fp = self.rebuild_fingerprint_with(true);
            self.permuted_key(&fp, perm, self.permutable_components(&fp, perm))
        }
    }

    /// The object components of the configuration under `perm`: only
    /// pid-dependent objects change (their state mentions process ids), so
    /// everything else reuses the maintained component fold.
    fn permutable_components(&self, fp: &Fingerprint, perm: &[usize]) -> u64 {
        let mut fold = fp.obj_fold;
        for (i, b) in self.base.iter().enumerate() {
            if b.pid_dependence() == PidDependence::Permutable {
                let mut renamed = b.clone();
                renamed.permute_processes(perm);
                fold ^= zobrist::component(TAG_OBJECT, i as u64, fp.obj_raw[i])
                    ^ zobrist::component(TAG_OBJECT, i as u64, zobrist::hash_debug(&renamed));
            }
        }
        fold
    }

    /// The renamed fingerprint from precomputed components: `n` process-state
    /// folds plus `n` history-row folds — O(n) per candidate permutation,
    /// independent of the history length.
    fn permuted_key(&self, fp: &Fingerprint, perm: &[usize], obj_fold: u64) -> u64 {
        let n = self.processes.len();
        let mut proc_fold = 0u64;
        let mut hist_fold = 0u64;
        for (i, &target) in perm.iter().enumerate() {
            proc_fold ^= zobrist::component(TAG_PROCESS, target as u64, fp.proc_raw[i]);
            hist_fold ^= fp.hist[i * n + target];
        }
        obj_fold ^ proc_fold ^ hist_fold
    }

    /// Picks the permutation (an index into `perms`) whose renaming of this
    /// configuration has the least canonical key — the argmin the symmetry
    /// reduction rewrites configurations with.  Renamings of one another
    /// select the same representative (up to hash collision), because the
    /// key is a function of the renamed configuration alone (it equals
    /// [`Config::fingerprint_permuted`] of that renaming).
    ///
    /// The per-process and per-event components are maintained incrementally
    /// by [`Config::step`], so the `n!` candidates cost `O(n)` word folds
    /// each — the history is never rehashed, even though this runs once per
    /// configuration visited under symmetry reduction.
    pub fn canonical_permutation(&self, perms: &[Vec<usize>]) -> usize {
        let rebuilt;
        let fp = if self.fp_live && self.fp.tracks_renames(self.processes.len()) {
            &self.fp
        } else {
            rebuilt = self.rebuild_fingerprint_with(true);
            &rebuilt
        };
        debug_assert!(
            fp.tracks_renames(self.processes.len()),
            "canonicalization requires tracked rename components"
        );
        let mut best = 0usize;
        let mut best_key = u64::MAX;
        for (i, perm) in perms.iter().enumerate() {
            let obj_fold = self.permutable_components(fp, perm);
            let key = self.permuted_key(fp, perm, obj_fold);
            if key < best_key {
                best_key = key;
                best = i;
            }
        }
        best
    }

    /// Physically renames the processes: process `i` becomes `perm[i]`,
    /// permuting the per-process states, renaming every process id recorded
    /// by pid-dependent base objects, and renaming the history's events.
    ///
    /// Used by the symmetry reduction to rewrite a configuration into its
    /// canonical representative.  Sound only under the conditions checked by
    /// [`crate::engine::SymmetryReduction::detect`].
    pub fn apply_permutation(&mut self, perm: &[usize]) {
        assert_eq!(perm.len(), self.processes.len(), "permutation arity");
        self.shape_memo.clear();
        let n = self.processes.len();
        let old = std::mem::take(&mut self.processes);
        let mut slots: Vec<Option<ProcessState>> = (0..old.len()).map(|_| None).collect();
        for (i, state) in old.into_iter().enumerate() {
            slots[perm[i]] = Some(state);
        }
        self.processes = slots
            .into_iter()
            .map(|s| s.expect("perm must be a bijection"))
            .collect();
        let fp_live = self.fp_live;
        for (i, b) in self.base.iter_mut().enumerate() {
            if b.pid_dependence() == PidDependence::Permutable {
                b.permute_processes(perm);
                if fp_live {
                    let raw = zobrist::hash_debug(b);
                    self.fp.set_obj(i, raw);
                }
            }
        }
        let map: Vec<ProcessId> = perm.iter().map(|&i| ProcessId(i)).collect();
        self.history.rename_processes(&map);
        if !self.fp_live {
            return;
        }
        // Rename the fingerprint components along: process contents move to
        // their new positions, and each history row `hist[p][·]` (events of
        // old process `p` under every rename target) becomes the row of
        // `perm[p]`; the identity fold of the renamed configuration is the
        // old `perm`-fold.
        let old_proc_raw = std::mem::take(&mut self.fp.proc_raw);
        let mut proc_raw = vec![0u64; n];
        let mut proc_fold = 0u64;
        for (i, &target) in perm.iter().enumerate() {
            proc_raw[target] = old_proc_raw[i];
            proc_fold ^= zobrist::component(TAG_PROCESS, target as u64, old_proc_raw[i]);
        }
        self.fp.proc_raw = proc_raw;
        self.fp.proc_fold = proc_fold;
        if self.fp.tracks_renames(n) {
            let old_hist = std::mem::take(&mut self.fp.hist);
            let mut hist = vec![0u64; n * n];
            let mut hist_id = 0u64;
            for (p, &target) in perm.iter().enumerate() {
                hist[target * n..(target + 1) * n].copy_from_slice(&old_hist[p * n..(p + 1) * n]);
                hist_id ^= old_hist[p * n + target];
            }
            self.fp.hist = hist;
            self.fp.hist_id = hist_id;
        } else {
            self.fp = self.rebuild_fingerprint();
        }
        debug_assert!(
            self.fingerprint_consistent(),
            "permuted fingerprint drifted"
        );
    }

    /// Whether every per-process state is structurally identical: same
    /// programme state (by `Debug`), same progress flags and same remaining
    /// workload.  On the initial configuration of a uniform workload this is
    /// the structural evidence that the implementation is process-symmetric
    /// (programmes that embed their own id print differently).
    pub fn processes_structurally_symmetric(&self) -> bool {
        if self.processes.len() < 2 {
            return false;
        }
        let sig = |p: &ProcessState| {
            (
                format!("{:?}", p.logic),
                p.running,
                p.completed,
                p.last_response.clone(),
            )
        };
        let first = sig(&self.processes[0]);
        self.processes
            .iter()
            .skip(1)
            .all(|p| sig(p) == first && p.remaining == self.processes[0].remaining)
    }

    /// Whether every base object declares how its state depends on process
    /// ids (no [`PidDependence::Opaque`] object) — a precondition for
    /// symmetry canonicalization.
    pub fn base_objects_permutable(&self) -> bool {
        self.base
            .iter()
            .all(|b| b.pid_dependence() != PidDependence::Opaque)
    }

    /// The shape of the next atomic step process `p` would take, without
    /// taking it — the step-independence oracle behind the sleep-set
    /// reduction of [`crate::engine`].  Returns `None` if `p` is not enabled.
    ///
    /// Determining whether a base-object access *writes* costs one clone of
    /// the target object plus a probe invocation; operation starts and
    /// completions are classified from the programme state alone.
    pub fn peek_step_shape(&self, p: ProcessId) -> Option<StepShape> {
        let state = &self.processes[p.index()];
        if !state.running {
            return if state.remaining.is_empty() {
                None
            } else {
                Some(StepShape::Start)
            };
        }
        let mut logic = state.logic.clone();
        match logic.step(state.last_response.clone()) {
            TaskStep::Access { object, invocation } => {
                // Write detection compares streamed content hashes of the
                // probed object's debug rendering — no string allocations on
                // this path, which runs once per enabled process per node
                // under sleep-set reduction.  (A 2⁻⁶⁴ hash collision would
                // misclassify a write as a read — the same vanishing risk the
                // fingerprint-based deduplication already accepts.)
                let mut probe = self.base[object].clone();
                let before = zobrist::hash_debug(&probe);
                let _ = probe.invoke(p, &invocation);
                let writes = zobrist::hash_debug(&probe) != before;
                Some(StepShape::Access { object, writes })
            }
            TaskStep::Complete(_) => Some(StepShape::Complete),
        }
    }

    /// [`Config::peek_step_shape`] with a per-process memo, for callers that
    /// may classify the same pending step several times against one
    /// configuration (quiescence probes, external tooling; the engine's
    /// sleep-set expansion instead keeps one classification per process on
    /// its stack, which is cheaper for its classify-once pattern).  The memo
    /// is invalidated by every mutation that can
    /// change a pending step's shape — a process step, a permutation, a
    /// workload append and, crucially, a fault corruption: a corrupted base
    /// object can flip whether a pending access *writes* (e.g. a `cas` whose
    /// expected value no longer matches), and a corrupted programme state can
    /// change the step entirely, so serving the stale classification would
    /// unsoundly sleep dependent steps.
    pub fn step_shape_memoized(&mut self, p: ProcessId) -> Option<StepShape> {
        let n = self.processes.len();
        if self.shape_memo.len() != n {
            self.shape_memo.clear();
            self.shape_memo.resize(n, None);
        }
        if let Some(known) = self.shape_memo[p.index()] {
            return known;
        }
        let shape = self.peek_step_shape(p);
        self.shape_memo[p.index()] = Some(shape);
        shape
    }

    /// Gives one atomic step to process `p`.
    ///
    /// If `p` has no operation in progress and workload remains, the next
    /// operation is started (its invocation event is recorded) and its first
    /// programme step is executed; otherwise the programme of the operation
    /// in progress advances by one step.  A step is either one base-object
    /// access or the completion of the operation (whose response event is
    /// recorded).
    pub fn step(&mut self, p: ProcessId) -> StepOutcome {
        let idx = p.index();
        if !self.is_enabled(p) {
            return StepOutcome::Idle;
        }
        self.steps += 1;
        self.shape_memo.clear();
        let n = self.processes.len();
        if !self.processes[idx].running {
            let inv = self.processes[idx]
                .remaining
                .pop_front()
                .expect("enabled non-running process must have workload");
            let position = self.history.len();
            self.history.push_invoke(p, self.object_id, inv.clone());
            if self.fp_live {
                let body = event_body(self.history.events().last().expect("just pushed"));
                self.fp.push_event(n, position, idx, body);
            }
            self.processes[idx].logic.begin(inv);
            self.processes[idx].running = true;
            self.processes[idx].last_response = None;
        }
        let prev = self.processes[idx].last_response.take();
        let outcome = match self.processes[idx].logic.step(prev) {
            TaskStep::Access { object, invocation } => {
                let response = self.base[object].invoke(p, &invocation);
                if self.fp_live {
                    let raw = zobrist::hash_debug(&self.base[object]);
                    self.fp.set_obj(object, raw);
                }
                self.processes[idx].last_response = Some(response);
                StepOutcome::Progressed
            }
            TaskStep::Complete(value) => {
                let position = self.history.len();
                self.history.push_respond(p, self.object_id, value.clone());
                if self.fp_live {
                    let body = event_body(self.history.events().last().expect("just pushed"));
                    self.fp.push_event(n, position, idx, body);
                }
                self.processes[idx].running = false;
                self.processes[idx].completed += 1;
                StepOutcome::Completed(value)
            }
        };
        self.refresh_proc_fingerprint(idx);
        outcome
    }

    /// Runs process `p` alone until it completes its current operation (or
    /// its next one, if it is idle but has workload), up to `max_steps`
    /// steps.  Returns the response if the operation completed.
    ///
    /// This is the "run solo" primitive used throughout the paper's proofs
    /// (obstruction-freedom, the idle configuration of Proposition 18).
    pub fn run_solo_until_complete(&mut self, p: ProcessId, max_steps: usize) -> Option<Value> {
        for _ in 0..max_steps {
            match self.step(p) {
                StepOutcome::Completed(v) => return Some(v),
                StepOutcome::Progressed => continue,
                StepOutcome::Idle => return None,
            }
        }
        None
    }

    /// Lets every process run solo (in process order) until it finishes its
    /// in-progress operation, producing an *idle* configuration in the sense
    /// of Proposition 18.  Returns `false` if some process failed to finish
    /// within `max_steps_per_process`.
    pub fn quiesce_pending(&mut self, max_steps_per_process: usize) -> bool {
        for i in 0..self.processes.len() {
            let p = ProcessId(i);
            if self.is_running(p) {
                let mut finished = false;
                for _ in 0..max_steps_per_process {
                    match self.step(p) {
                        StepOutcome::Completed(_) => {
                            finished = true;
                            break;
                        }
                        StepOutcome::Progressed => continue,
                        StepOutcome::Idle => break,
                    }
                }
                if !finished {
                    return false;
                }
            }
        }
        true
    }

    /// The remaining transient-fault budget (see [`crate::fault`]).
    #[inline]
    pub fn fault_budget(&self) -> usize {
        self.fault_budget
    }

    /// Sets the transient-fault budget: at most `k` faults along any schedule
    /// continuing from this configuration.  The engine sets this on the root
    /// from [`crate::engine::EngineOptions::fault_budget`].
    pub fn set_fault_budget(&mut self, k: usize) {
        self.fault_budget = k;
    }

    /// Enumerates every fault injectable at this configuration, in
    /// deterministic order (objects by index, then processes by index, each
    /// by corruption variant).  Does nothing when the budget is exhausted —
    /// in particular, budget 0 (the default) costs one branch.
    pub fn for_each_fault(&self, mut f: impl FnMut(FaultStep)) {
        if self.fault_budget == 0 {
            return;
        }
        for (i, b) in self.base.iter().enumerate() {
            for variant in 0..b.corruption_count() {
                f(FaultStep {
                    target: FaultTarget::Object(i),
                    variant,
                });
            }
        }
        for (i, p) in self.processes.iter().enumerate() {
            for variant in 0..p.logic.corruption_count() {
                f(FaultStep {
                    target: FaultTarget::Process(i),
                    variant,
                });
            }
        }
    }

    /// Applies one transient fault: spends one budget unit and corrupts the
    /// target component, maintaining the incremental fingerprint exactly and
    /// invalidating the step-shape memo.  No history event is recorded —
    /// faults are environmental, not operations.  Returns `false` (and does
    /// nothing) when the budget is exhausted.
    pub fn apply_fault(&mut self, fault: &FaultStep) -> bool {
        if self.fault_budget == 0 {
            return false;
        }
        self.fault_budget -= 1;
        match fault.target {
            FaultTarget::Object(i) => {
                self.base[i].corrupt(fault.variant);
                if self.fp_live {
                    let raw = zobrist::hash_debug(&self.base[i]);
                    self.fp.set_obj(i, raw);
                }
            }
            FaultTarget::Process(i) => {
                self.processes[i].logic.corrupt(fault.variant);
                self.refresh_proc_fingerprint(i);
            }
        }
        self.shape_memo.clear();
        debug_assert!(
            self.fingerprint_consistent(),
            "fault mutation drifted the incremental fingerprint"
        );
        true
    }
}

impl fmt::Debug for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Config")
            .field("steps", &self.steps)
            .field("base", &self.base)
            .field("completed", &self.total_completed())
            .field("history_len", &self.history.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::LocalSpecImplementation;
    use evlin_spec::{FetchIncrement, Invocation};
    use std::sync::Arc;

    fn fi_local(processes: usize) -> LocalSpecImplementation {
        LocalSpecImplementation::new(Arc::new(FetchIncrement::new()), processes)
    }

    #[test]
    fn initial_configuration_is_idle_when_workload_empty() {
        let imp = fi_local(2);
        let w = Workload::new(vec![Vec::new(), Vec::new()]);
        let mut c = Config::initial(&imp, &w);
        assert!(c.is_quiescent());
        assert_eq!(c.step(ProcessId(0)), StepOutcome::Idle);
        assert_eq!(c.steps(), 0);
        assert!(c.enabled_processes().is_empty());
    }

    #[test]
    fn stepping_runs_operations_and_records_history() {
        let imp = fi_local(2);
        let w = Workload::uniform(2, FetchIncrement::fetch_inc(), 2);
        let mut c = Config::initial(&imp, &w);
        assert!(!c.is_quiescent());
        assert_eq!(c.enabled_processes().len(), 2);
        // The local-copy implementation completes each operation in one step.
        assert_eq!(
            c.step(ProcessId(0)),
            StepOutcome::Completed(Value::from(0i64))
        );
        assert_eq!(
            c.step(ProcessId(1)),
            StepOutcome::Completed(Value::from(0i64))
        );
        assert_eq!(
            c.step(ProcessId(0)),
            StepOutcome::Completed(Value::from(1i64))
        );
        assert_eq!(
            c.step(ProcessId(1)),
            StepOutcome::Completed(Value::from(1i64))
        );
        assert!(c.is_quiescent());
        assert_eq!(c.total_completed(), 4);
        assert_eq!(c.completed(ProcessId(0)), 2);
        let h = c.history();
        assert_eq!(h.len(), 8);
        assert!(h.is_well_formed());
    }

    #[test]
    fn run_solo_and_push_operation() {
        let imp = fi_local(1);
        let w = Workload::new(vec![Vec::new()]);
        let mut c = Config::initial(&imp, &w);
        assert_eq!(c.run_solo_until_complete(ProcessId(0), 10), None);
        c.push_operation(ProcessId(0), FetchIncrement::fetch_inc());
        assert_eq!(
            c.run_solo_until_complete(ProcessId(0), 10),
            Some(Value::from(0i64))
        );
    }

    #[test]
    fn quiesce_pending_completes_in_progress_operations() {
        let imp = fi_local(2);
        let w = Workload::uniform(2, FetchIncrement::fetch_inc(), 1);
        let mut c = Config::initial(&imp, &w);
        // Nothing is mid-flight, so quiescing just reports success without
        // forcing the workload to run.
        assert!(c.quiesce_pending(10));
        assert!(!c.is_quiescent()); // workload not yet started
        c.step(ProcessId(0));
        c.step(ProcessId(1));
        assert!(c.is_quiescent());
    }

    #[test]
    fn cloning_forks_the_execution() {
        let imp = fi_local(1);
        let w = Workload::uniform(1, FetchIncrement::fetch_inc(), 2);
        let mut a = Config::initial(&imp, &w);
        a.step(ProcessId(0));
        let mut b = a.clone();
        a.step(ProcessId(0));
        assert_eq!(a.total_completed(), 2);
        assert_eq!(b.total_completed(), 1);
        b.step(ProcessId(0));
        assert_eq!(b.total_completed(), 2);
        assert_eq!(a.history().len(), 4);
    }

    #[test]
    fn permuted_fingerprint_matches_physical_permutation() {
        let imp = fi_local(2);
        // Asymmetric workload, so renaming the processes genuinely changes
        // the configuration.
        let w = Workload::new(vec![
            vec![FetchIncrement::fetch_inc(); 2],
            vec![FetchIncrement::fetch_inc()],
        ]);
        let mut c = Config::initial(&imp, &w);
        c.step(ProcessId(0));
        let perm = [1usize, 0];
        let expected = c.fingerprint_permuted(&perm);
        assert_ne!(expected, c.fingerprint());
        let mut renamed = c.clone();
        renamed.apply_permutation(&perm);
        assert_eq!(renamed.fingerprint(), expected);
        // The identity permutation is a no-op.
        assert_eq!(c.fingerprint_permuted(&[0, 1]), c.fingerprint());
    }

    #[test]
    fn structural_symmetry_detection() {
        let imp = fi_local(2);
        let uniform = Config::initial(&imp, &Workload::uniform(2, FetchIncrement::fetch_inc(), 2));
        assert!(uniform.processes_structurally_symmetric());
        assert!(uniform.base_objects_permutable()); // vacuously: no base objects
        let skewed = Config::initial(
            &imp,
            &Workload::new(vec![vec![FetchIncrement::fetch_inc()], Vec::new()]),
        );
        assert!(!skewed.processes_structurally_symmetric());
        let solo = Config::initial(
            &fi_local(1),
            &Workload::uniform(1, FetchIncrement::fetch_inc(), 1),
        );
        assert!(!solo.processes_structurally_symmetric());
    }

    #[test]
    fn peek_step_shape_classifies_starts_and_idles() {
        let imp = fi_local(2);
        let w = Workload::new(vec![vec![FetchIncrement::fetch_inc()], Vec::new()]);
        let c = Config::initial(&imp, &w);
        assert_eq!(c.peek_step_shape(ProcessId(0)), Some(StepShape::Start));
        assert_eq!(c.peek_step_shape(ProcessId(1)), None);
        // Peeking takes no step and records nothing.
        assert_eq!(c.steps(), 0);
        assert!(c.history().is_empty());
    }

    #[test]
    #[should_panic(expected = "workload has")]
    fn workload_larger_than_implementation_panics() {
        let imp = fi_local(1);
        let w = Workload::uniform(2, FetchIncrement::fetch_inc(), 1);
        let _ = Config::initial(&imp, &w);
    }

    /// A one-shot programme over a cas base object: one dummy register read,
    /// then `cas(0 → 1)`, then complete — the pending cas is exactly the step
    /// whose *writes* classification flips when a fault corrupts the target.
    #[derive(Debug, Clone)]
    struct CasOnce;

    #[derive(Debug, Clone)]
    struct CasOnceLogic {
        at: usize,
    }

    impl Implementation for CasOnce {
        fn name(&self) -> String {
            "cas once".into()
        }
        fn processes(&self) -> usize {
            1
        }
        fn initial_base_objects(&self) -> Vec<Box<dyn BaseObject>> {
            vec![
                crate::base::objects::cas(Value::from(0i64)),
                crate::base::objects::register(Value::from(0i64)),
            ]
        }
        fn new_process(&self, _p: ProcessId) -> Box<dyn ProcessLogic> {
            Box::new(CasOnceLogic { at: 0 })
        }
    }

    impl ProcessLogic for CasOnceLogic {
        fn begin(&mut self, _invocation: evlin_spec::Invocation) {
            self.at = 0;
        }
        fn step(&mut self, _previous: Option<Value>) -> TaskStep {
            self.at += 1;
            match self.at {
                1 => TaskStep::Access {
                    object: 1,
                    invocation: evlin_spec::Register::read(),
                },
                2 => TaskStep::Access {
                    object: 0,
                    invocation: evlin_spec::CompareAndSwap::cas(
                        Value::from(0i64),
                        Value::from(1i64),
                    ),
                },
                _ => TaskStep::Complete(Value::Unit),
            }
        }
        fn clone_box(&self) -> Box<dyn ProcessLogic> {
            Box::new(self.clone())
        }
    }

    #[test]
    fn fault_application_spends_budget_and_keeps_fingerprint() {
        let imp = fi_local(2);
        let w = Workload::uniform(2, FetchIncrement::fetch_inc(), 1);
        let mut c = Config::initial(&imp, &w);
        c.set_fingerprint_tracking(true, false);
        c.set_fault_budget(2);
        let mut faults = Vec::new();
        c.for_each_fault(|f| faults.push(f));
        // Each local-copy programme state offers at least one corruption.
        assert!(faults.len() >= 2, "expected process faults, got {faults:?}");
        let before = c.fingerprint();
        assert!(c.apply_fault(&faults[0]));
        assert_eq!(c.fault_budget(), 1);
        assert_ne!(c.fingerprint(), before, "corruption must change the state");
        assert!(c.fingerprint_consistent());
        // Faults record no history events and advance no step counter.
        assert!(c.history().is_empty());
        assert_eq!(c.steps(), 0);
        assert!(c.apply_fault(&faults[0]));
        assert_eq!(c.fault_budget(), 0);
        // Budget exhausted: enumeration is empty and application refuses.
        let mut rest = Vec::new();
        c.for_each_fault(|f| rest.push(f));
        assert!(rest.is_empty());
        assert!(!c.apply_fault(&faults[0]));
    }

    #[test]
    fn fault_invalidates_stale_step_shape_memo() {
        let imp = CasOnce;
        let w = Workload::uniform(1, Invocation::nullary("op"), 1);
        let mut c = Config::initial(&imp, &w);
        let p = ProcessId(0);
        // Start the operation and take the dummy read: the pending step is
        // now `cas(0 → 1)` against a cas object holding 0.
        assert_eq!(c.step(p), StepOutcome::Progressed);
        assert_eq!(
            c.step_shape_memoized(p),
            Some(StepShape::Access {
                object: 0,
                writes: true
            })
        );
        // Memo hit: same answer without recomputation.
        assert_eq!(
            c.step_shape_memoized(p),
            Some(StepShape::Access {
                object: 0,
                writes: true
            })
        );
        // Corrupt the cas object (its only corruption state is 1): the
        // pending cas now fails, so the step no longer writes.  A stale memo
        // would keep reporting `writes: true`.
        c.set_fault_budget(1);
        let mut faults = Vec::new();
        c.for_each_fault(|f| faults.push(f));
        let on_cas: Vec<_> = faults
            .iter()
            .filter(|f| f.target == crate::fault::FaultTarget::Object(0))
            .collect();
        assert_eq!(on_cas.len(), 1, "cas(0) has exactly one corruption");
        assert!(c.apply_fault(on_cas[0]));
        assert_eq!(
            c.step_shape_memoized(p),
            Some(StepShape::Access {
                object: 0,
                writes: false
            })
        );
        // And `peek_step_shape` (the pure variant) agrees.
        assert_eq!(
            c.peek_step_shape(p),
            Some(StepShape::Access {
                object: 0,
                writes: false
            })
        );
    }
}

//! Bounded exhaustive exploration of all interleavings — the stable facade
//! over [`crate::engine`].
//!
//! The paper's results quantify over *every* execution of an implementation.
//! For small workloads this quantifier can be discharged mechanically: the
//! explorer enumerates every interleaving of process steps (up to a step
//! bound) and invokes a callback on each configuration, so properties like
//! "every history of this implementation is linearizable" (Theorem 12) or
//! "some reachable configuration is stable" (Proposition 18) can be checked
//! directly.
//!
//! Everything here delegates to the unified exploration engine: the
//! sequential and parallel variants are the *same* traversal selected by a
//! worker count, and [`crate::engine::EngineOptions::reduction`] can switch
//! on sleep-set partial-order reduction or process-symmetry
//! canonicalization.  The functions below keep today's unreduced semantics.

use crate::config::Config;
use crate::engine::{self, EngineOptions};
use crate::program::Implementation;
use crate::store::StoreConfig;
use crate::workload::Workload;
use evlin_history::ProcessId;

pub use crate::engine::{ExploreOptions, ExploreStats, Visit};

/// Exhaustively explores the executions of `implementation` on `workload`.
///
/// The `visitor` is called on every reachable configuration (including the
/// initial one) together with the depth at which it was reached.  Exploration
/// is depth-first; a configuration's successors are obtained by letting each
/// enabled process take one atomic step.
pub fn explore<F>(
    implementation: &dyn Implementation,
    workload: &Workload,
    options: ExploreOptions,
    visitor: F,
) -> ExploreStats
where
    F: FnMut(&Config, usize) -> Visit,
{
    engine::explore(
        implementation,
        workload,
        &EngineOptions {
            limits: options,
            workers: Some(1),
            ..EngineOptions::default()
        },
        visitor,
    )
}

/// Convenience wrapper: explores all executions and collects the histories of
/// every *terminal* configuration (quiescent or depth-bounded), sorted by
/// [`evlin_history::History`]'s structural order.
pub fn terminal_histories(
    implementation: &dyn Implementation,
    workload: &Workload,
    options: ExploreOptions,
) -> Vec<evlin_history::History> {
    engine::terminal_histories(
        implementation,
        workload,
        &EngineOptions {
            limits: options,
            workers: Some(1),
            ..EngineOptions::default()
        },
    )
}

/// Convenience wrapper: checks that `predicate` holds for the history of
/// every reachable configuration; returns the first offending history (in
/// depth-first order) if one exists.
pub fn find_history_violation<F>(
    implementation: &dyn Implementation,
    workload: &Workload,
    options: ExploreOptions,
    predicate: F,
) -> Option<evlin_history::History>
where
    F: Fn(&evlin_history::History) -> bool + Sync,
{
    engine::find_history_violation(
        implementation,
        workload,
        &EngineOptions {
            limits: options,
            workers: Some(1),
            ..EngineOptions::default()
        },
        predicate,
    )
}

/// Options controlling parallel exploration (see [`explore_par`]).
#[derive(Debug, Clone, Copy)]
pub struct ParExploreOptions {
    /// The depth and size bounds shared with the sequential explorer.
    pub base: ExploreOptions,
    /// Assumed worker count used to size the stealable frontier; `None`
    /// assumes `rayon::current_num_threads()`.
    ///
    /// Note this is a *sizing hint only*: the actual workers always come
    /// from the global rayon pool (bounded by the `RAYON_NUM_THREADS`
    /// environment variable), so `Some(1)` does **not** serialize
    /// [`explore_par`] — it merely carves out a smaller frontier.
    pub threads: Option<usize>,
    /// How many independent subtrees to carve out per assumed worker.  The
    /// root region is expanded breadth-first until at least
    /// `threads × subtrees_per_thread` frontier nodes exist; workers then
    /// steal whole subtrees from that frontier, so a larger factor smooths
    /// out imbalanced subtree sizes at the cost of a longer sequential
    /// prefix.
    pub subtrees_per_thread: usize,
    /// Deduplicate configurations: a configuration reached at the same depth
    /// with identical state *and identical recorded history*
    /// ([`Config::fingerprint`]) is visited only once, across *all* workers
    /// (the dedup set is shared and merged).  Because the recorded history
    /// is part of the key, only interleavings that differ in unrecorded
    /// internal base-object steps merge — which keeps every
    /// history-collecting visitor exact.  Off by default to match the
    /// sequential explorer's pure-tree semantics.
    pub dedup: bool,
    /// Transient-fault budget installed on the root (see [`crate::fault`]):
    /// at most this many corruption steps along any explored schedule.  0
    /// (the default) disables fault enumeration entirely.
    pub fault_budget: usize,
    /// Which visited-store backend holds the dedup set (see
    /// [`crate::store`]); ignored while `dedup` is off.  The default
    /// in-memory backend matches the pre-seam explorer exactly; the spill
    /// backend bounds resident memory for visited sets larger than RAM.
    pub store: StoreConfig,
}

impl Default for ParExploreOptions {
    fn default() -> Self {
        ParExploreOptions {
            base: ExploreOptions::default(),
            threads: None,
            subtrees_per_thread: 8,
            dedup: false,
            fault_budget: 0,
            store: StoreConfig::Mem,
        }
    }
}

impl ParExploreOptions {
    /// The equivalent engine options (no reduction).
    fn engine_options(&self) -> EngineOptions {
        EngineOptions {
            limits: self.base,
            workers: self.threads,
            subtrees_per_worker: self.subtrees_per_thread,
            dedup: self.dedup,
            reduction: engine::Reduction::None,
            fault_budget: self.fault_budget,
            store: self.store,
        }
    }
}

/// Exhaustively explores the executions of `implementation` on `workload`
/// using multiple worker threads.
///
/// Semantics match [`explore`]: the `visitor` sees every reachable
/// configuration with its depth, may prune or stop, and the returned
/// statistics count visited and terminal configurations.  The interleaving
/// tree is split into independent subtrees — the root region is expanded
/// breadth-first, then workers *steal* whole subtrees from the shared
/// frontier — so on a quiet machine with `N` cores the wall-clock time
/// approaches `1/N` of the sequential explorer's.
///
/// Determinism: with the default options (no dedup) the visited and terminal
/// counts equal the sequential explorer's exactly, for any thread count,
/// because the interleaving tree's node count is independent of traversal
/// order.  With `dedup` enabled the counts equal the number of unique
/// `(state, history, depth)` triples, which is likewise traversal-order
/// independent.
/// Only `Visit::Stop` and `max_configs` truncation are inherently
/// order-sensitive (the sequential explorer's "first" is meaningless under
/// concurrency); in those cases the exploration still stops promptly but the
/// exact counts may vary from run to run, just as they would between two
/// different sequential visit orders.
///
/// The visitor is shared across workers, hence `Fn + Sync` (not `FnMut`);
/// accumulate into a `Mutex` or atomics as [`terminal_histories_par`] does.
pub fn explore_par<F>(
    implementation: &dyn Implementation,
    workload: &Workload,
    options: ParExploreOptions,
    visitor: F,
) -> ExploreStats
where
    F: Fn(&Config, usize) -> Visit + Sync,
{
    engine::explore_shared(implementation, workload, &options.engine_options(), visitor)
}

/// Parallel counterpart of [`terminal_histories`]: collects the history of
/// every terminal configuration using the engine's parallel path.  The
/// histories are returned in a deterministic order (sorted by
/// [`evlin_history::History`]'s structural order), since parallel workers
/// reach terminals in a nondeterministic sequence.
pub fn terminal_histories_par(
    implementation: &dyn Implementation,
    workload: &Workload,
    options: ParExploreOptions,
) -> Vec<evlin_history::History> {
    engine::terminal_histories(implementation, workload, &options.engine_options())
}

/// Parallel counterpart of [`find_history_violation`]: checks `predicate`
/// against the history of every reachable configuration on all cores and
/// returns *a* violating history if any exists (under concurrency there is
/// no meaningful "first").
pub fn find_history_violation_par<F>(
    implementation: &dyn Implementation,
    workload: &Workload,
    options: ParExploreOptions,
    predicate: F,
) -> Option<evlin_history::History>
where
    F: Fn(&evlin_history::History) -> bool + Sync,
{
    engine::find_history_violation(
        implementation,
        workload,
        &options.engine_options(),
        predicate,
    )
}

/// Runs every process solo from the given configuration, one at a time, and
/// returns the resulting configurations (used by valency analysis).
pub fn solo_extensions(config: &Config, max_steps: usize) -> Vec<(ProcessId, Config)> {
    let mut out = Vec::new();
    for p in config.enabled_processes() {
        let mut child = config.clone();
        child.run_solo_until_complete(p, max_steps);
        out.push((p, child));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::LocalSpecImplementation;
    use evlin_spec::{FetchIncrement, TestAndSet};
    use std::sync::Arc;

    #[test]
    fn explores_all_interleavings_of_two_single_step_ops() {
        let imp = LocalSpecImplementation::new(Arc::new(FetchIncrement::new()), 2);
        let w = Workload::uniform(2, FetchIncrement::fetch_inc(), 1);
        let stats = explore(&imp, &w, ExploreOptions::default(), |_, _| Visit::Continue);
        // Configurations: initial, two after one step, two after both steps
        // (each interleaving reaches a distinct configuration object even if
        // equal in content) = 1 + 2 + 2.
        assert_eq!(stats.visited, 5);
        assert_eq!(stats.terminals, 2);
        assert!(!stats.truncated);
    }

    #[test]
    fn terminal_histories_cover_every_interleaving() {
        let imp = LocalSpecImplementation::new(Arc::new(TestAndSet::new()), 2);
        let w = Workload::uniform(2, TestAndSet::test_and_set(), 1);
        let hs = terminal_histories(&imp, &w, ExploreOptions::default());
        assert_eq!(hs.len(), 2);
        for h in &hs {
            assert_eq!(h.complete_operations().len(), 2);
            // The local-copy implementation gives both processes the response
            // 0 — not linearizable, but that is the point of Theorem 12.
            for op in h.complete_operations() {
                assert_eq!(op.response, Some(evlin_spec::Value::from(0i64)));
            }
        }
    }

    #[test]
    fn find_violation_returns_counterexample() {
        let imp = LocalSpecImplementation::new(Arc::new(TestAndSet::new()), 2);
        let w = Workload::uniform(2, TestAndSet::test_and_set(), 1);
        // "No two operations both return 0" — violated by the local-copy
        // implementation of test&set once both processes have completed.
        let violation = find_history_violation(&imp, &w, ExploreOptions::default(), |h| {
            h.complete_operations()
                .iter()
                .filter(|o| o.response == Some(evlin_spec::Value::from(0i64)))
                .count()
                < 2
        });
        assert!(violation.is_some());
    }

    #[test]
    fn max_configs_truncates() {
        let imp = LocalSpecImplementation::new(Arc::new(FetchIncrement::new()), 3);
        let w = Workload::uniform(3, FetchIncrement::fetch_inc(), 3);
        let stats = explore(
            &imp,
            &w,
            ExploreOptions {
                max_depth: 64,
                max_configs: 10,
            },
            |_, _| Visit::Continue,
        );
        assert!(stats.truncated);
        assert_eq!(stats.visited, 10);
    }

    #[test]
    fn prune_and_stop_are_respected() {
        let imp = LocalSpecImplementation::new(Arc::new(FetchIncrement::new()), 2);
        let w = Workload::uniform(2, FetchIncrement::fetch_inc(), 1);
        // Prune everything: only the root is visited.
        let stats = explore(&imp, &w, ExploreOptions::default(), |_, _| Visit::Prune);
        assert_eq!(stats.visited, 1);
        // Stop at the root.
        let stats = explore(&imp, &w, ExploreOptions::default(), |_, _| Visit::Stop);
        assert_eq!(stats.visited, 1);
    }

    /// Forces the parallel code path regardless of the machine's core count
    /// (the explorer itself accepts an explicit thread count, but the rayon
    /// work queue is only exercised with >1 workers).
    fn par_options(threads: usize, dedup: bool) -> ParExploreOptions {
        ParExploreOptions {
            base: ExploreOptions::default(),
            threads: Some(threads),
            subtrees_per_thread: 4,
            dedup,
            fault_budget: 0,
            store: StoreConfig::Mem,
        }
    }

    #[test]
    fn parallel_counts_match_sequential_for_any_thread_count() {
        let imp = LocalSpecImplementation::new(Arc::new(FetchIncrement::new()), 3);
        let w = Workload::uniform(3, FetchIncrement::fetch_inc(), 2);
        let sequential = explore(&imp, &w, ExploreOptions::default(), |_, _| Visit::Continue);
        assert!(!sequential.truncated);
        for threads in [1, 2, 4, 8] {
            let parallel = explore_par(&imp, &w, par_options(threads, false), |_, _| {
                Visit::Continue
            });
            assert_eq!(
                (parallel.visited, parallel.terminals, parallel.truncated),
                (sequential.visited, sequential.terminals, false),
                "thread count {threads} diverged from the sequential explorer"
            );
        }
    }

    #[test]
    fn parallel_dedup_counts_are_thread_count_independent() {
        let imp = LocalSpecImplementation::new(Arc::new(FetchIncrement::new()), 3);
        let w = Workload::uniform(3, FetchIncrement::fetch_inc(), 2);
        let reference = explore_par(&imp, &w, par_options(1, true), |_, _| Visit::Continue);
        let plain = explore_par(&imp, &w, par_options(1, false), |_, _| Visit::Continue);
        // Deduplication merges states reached by several interleavings…
        assert!(reference.visited <= plain.visited);
        assert!(reference.visited > 0);
        // …and the deduplicated counts are the number of unique
        // (state, history, depth) triples — independent of the worker count.
        for threads in [2, 4, 8] {
            let parallel =
                explore_par(&imp, &w, par_options(threads, true), |_, _| Visit::Continue);
            assert_eq!(
                (parallel.visited, parallel.terminals),
                (reference.visited, reference.terminals),
                "dedup counts diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn parallel_terminal_histories_match_sequential() {
        let imp = LocalSpecImplementation::new(Arc::new(TestAndSet::new()), 2);
        let w = Workload::uniform(2, TestAndSet::test_and_set(), 1);
        let sequential = terminal_histories(&imp, &w, ExploreOptions::default());
        assert!(
            sequential.is_sorted(),
            "terminal histories must come out in History's structural order"
        );
        for threads in [1, 2, 4] {
            let parallel = terminal_histories_par(&imp, &w, par_options(threads, false));
            assert_eq!(sequential, parallel, "order diverged at {threads} threads");
        }
    }

    #[test]
    fn parallel_find_violation_finds_a_counterexample() {
        let imp = LocalSpecImplementation::new(Arc::new(TestAndSet::new()), 2);
        let w = Workload::uniform(2, TestAndSet::test_and_set(), 1);
        let violation = find_history_violation_par(&imp, &w, par_options(4, false), |h| {
            h.complete_operations()
                .iter()
                .filter(|o| o.response == Some(evlin_spec::Value::from(0i64)))
                .count()
                < 2
        });
        assert!(violation.is_some());
        // And no violation is reported for a property that always holds.
        let none =
            find_history_violation_par(&imp, &w, par_options(4, false), |h| h.len() < usize::MAX);
        assert!(none.is_none());
    }

    #[test]
    fn parallel_max_configs_truncates() {
        let imp = LocalSpecImplementation::new(Arc::new(FetchIncrement::new()), 3);
        let w = Workload::uniform(3, FetchIncrement::fetch_inc(), 3);
        let stats = explore_par(
            &imp,
            &w,
            ParExploreOptions {
                base: ExploreOptions {
                    max_depth: 64,
                    max_configs: 10,
                },
                threads: Some(4),
                subtrees_per_thread: 4,
                dedup: false,
                fault_budget: 0,
                store: StoreConfig::Mem,
            },
            |_, _| Visit::Continue,
        );
        assert!(stats.truncated);
        assert!(stats.visited <= 10);
    }

    #[test]
    fn fingerprint_distinguishes_progress_and_merges_identical_states() {
        let imp = LocalSpecImplementation::new(Arc::new(FetchIncrement::new()), 2);
        let w = Workload::uniform(2, FetchIncrement::fetch_inc(), 1);
        let initial = Config::initial(&imp, &w);
        let mut stepped = initial.clone();
        stepped.step(ProcessId(0));
        assert_ne!(initial.fingerprint(), stepped.fingerprint());
        // Cloning without stepping preserves the fingerprint.
        assert_eq!(initial.fingerprint(), initial.clone().fingerprint());
    }

    #[test]
    fn solo_extensions_complete_each_process() {
        let imp = LocalSpecImplementation::new(Arc::new(FetchIncrement::new()), 2);
        let w = Workload::uniform(2, FetchIncrement::fetch_inc(), 1);
        let c = Config::initial(&imp, &w);
        let exts = solo_extensions(&c, 100);
        assert_eq!(exts.len(), 2);
        for (p, cfg) in exts {
            assert_eq!(cfg.completed(p), 1);
        }
    }
}

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
//! Everything here delegates to the unified exploration engine with one
//! worker and no reduction.  For parallel walks, deduplication, sleep-set
//! partial-order reduction or process-symmetry canonicalization, call
//! [`crate::engine`] directly with the matching
//! [`crate::engine::EngineOptions`].

use crate::config::Config;
use crate::engine::{self, EngineOptions};
use crate::program::Implementation;
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

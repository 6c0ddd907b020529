//! Batched, multi-core checking of many histories at once.
//!
//! The exhaustive experiments (E2, E4, E5, E10) and the parallel explorer
//! produce *batches* of histories whose verdicts are independent, so checking
//! them is embarrassingly parallel.  The functions here fan a batch out over
//! all cores with rayon, preserving input order, and return exactly what the
//! sequential loops would: one verdict per history.
//!
//! Each function has a `_par` variant and a sequential twin with identical
//! semantics; the twins exist so that benchmarks (`checker_scaling`) and the
//! E10 experiment can measure the speedup honestly, and so that determinism
//! tests can compare the two outputs element for element.

use crate::{eventual, fi, linearizability, t_linearizability};
use evlin_history::{History, ObjectUniverse};
use rayon::prelude::*;

/// The one fan-out primitive shared by every batch entry point in this
/// module *and* by the kernel's locality pre-pass (per-object subproblems)
/// and the weak-consistency projection split: map `f` over `items` on all
/// cores, preserving input order.
pub(crate) fn map_par<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync + Send) -> Vec<R> {
    items.par_iter().map(f).collect()
}

/// Chunked variant of [`map_par`] with per-chunk mutable state: `items` is
/// split into runs of `chunk`, each run gets one fresh `init()` value
/// threaded through its calls to `f`, and the flattened results preserve
/// input order.  The monitor's weak-consistency drain uses this to give each
/// run of per-operation kernel searches a pooled
/// [`crate::kernel::KernelScratch`] instead of building fresh tables per
/// operation, without giving up order-determinism.
pub(crate) fn map_par_chunked<T: Sync, S, R: Send>(
    items: &[T],
    chunk: usize,
    init: impl Fn() -> S + Sync + Send,
    f: impl Fn(&mut S, &T) -> R + Sync + Send,
) -> Vec<R> {
    let chunks: Vec<&[T]> = items.chunks(chunk.max(1)).collect();
    map_par(&chunks, |run| {
        let mut state = init();
        run.iter()
            .map(|item| f(&mut state, item))
            .collect::<Vec<R>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Sequential baseline of [`check_histories_par`].
pub fn check_histories(histories: &[History], universe: &ObjectUniverse) -> Vec<bool> {
    histories
        .iter()
        .map(|h| linearizability::is_linearizable(h, universe))
        .collect()
}

/// Decides linearizability for every history in the batch, in parallel.
///
/// The result is index-aligned with `histories` and identical to
/// [`check_histories`] on the same input — parallelism never changes a
/// verdict, only wall-clock time.
pub fn check_histories_par(histories: &[History], universe: &ObjectUniverse) -> Vec<bool> {
    map_par(histories, |h| linearizability::is_linearizable(h, universe))
}

/// Sequential baseline of [`min_stabilizations_par`].
pub fn min_stabilizations(
    histories: &[History],
    universe: &ObjectUniverse,
    limit: Option<usize>,
) -> Vec<Option<usize>> {
    histories
        .iter()
        .map(|h| t_linearizability::min_stabilization(h, universe, limit))
        .collect()
}

/// Computes the minimal stabilization index of every history in the batch,
/// in parallel (index-aligned with the input).
pub fn min_stabilizations_par(
    histories: &[History],
    universe: &ObjectUniverse,
    limit: Option<usize>,
) -> Vec<Option<usize>> {
    map_par(histories, |h| {
        t_linearizability::min_stabilization(h, universe, limit)
    })
}

/// Runs the full eventual-linearizability analysis on every history in the
/// batch, in parallel (index-aligned with the input).
pub fn analyze_par(
    histories: &[History],
    universe: &ObjectUniverse,
) -> Vec<eventual::EventualReport> {
    map_par(histories, |h| eventual::analyze(h, universe))
}

/// Decides whether *every* history in the batch is `t`-linearizable
/// according to the specialized fetch&increment checker, in parallel.
///
/// A history the specialized checker cannot handle (see
/// [`crate::fi::FiError`]) counts as *not* `t`-linearizable, matching the
/// conservative treatment used by the stability search in `evlin-sim`.
pub fn fi_all_t_linearizable_par(histories: &[History], initial: i64, t: usize) -> bool {
    map_par(histories, |h| {
        fi::is_t_linearizable(h, initial, t).unwrap_or(false)
    })
    .into_iter()
    .all(|ok| ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use evlin_history::generator::{concurrentize, random_sequential_legal, WorkloadSpec};
    use evlin_spec::{FetchIncrement, Register, Value};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn universe() -> ObjectUniverse {
        let mut u = ObjectUniverse::new();
        u.add_object(Register::new(Value::from(0i64)));
        u.add_object(FetchIncrement::new());
        u
    }

    fn batch(u: &ObjectUniverse, n: usize) -> Vec<History> {
        (0..n)
            .map(|seed| {
                let mut rng = StdRng::seed_from_u64(seed as u64);
                let seq = random_sequential_legal(
                    u,
                    &WorkloadSpec {
                        processes: 3,
                        operations: 8,
                    },
                    &mut rng,
                );
                concurrentize(&seq, 2, &mut rng)
            })
            .collect()
    }

    #[test]
    fn parallel_verdicts_match_sequential() {
        let u = universe();
        let histories = batch(&u, 24);
        let sequential = check_histories(&histories, &u);
        let parallel = check_histories_par(&histories, &u);
        assert_eq!(sequential, parallel);
        // Generated-by-construction histories are all linearizable.
        assert!(sequential.iter().all(|&ok| ok));
    }

    #[test]
    fn parallel_stabilizations_match_sequential() {
        let u = universe();
        let histories = batch(&u, 16);
        let sequential = min_stabilizations(&histories, &u, None);
        let parallel = min_stabilizations_par(&histories, &u, None);
        assert_eq!(sequential, parallel);
        assert!(sequential.iter().all(|t| *t == Some(0)));
    }

    #[test]
    fn parallel_reports_are_index_aligned() {
        let u = universe();
        let histories = batch(&u, 8);
        let reports = analyze_par(&histories, &u);
        assert_eq!(reports.len(), histories.len());
        for report in reports {
            assert!(report.is_linearizable());
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let u = universe();
        assert!(check_histories_par(&[], &u).is_empty());
        assert!(min_stabilizations_par(&[], &u, None).is_empty());
        assert!(fi_all_t_linearizable_par(&[], 0, 0));
    }

    #[test]
    fn fi_batch_matches_per_history_verdicts() {
        use evlin_history::{HistoryBuilder, ProcessId};
        let x = evlin_history::ObjectId(0);
        let good: Vec<History> = (0..4)
            .map(|_| {
                let mut b = HistoryBuilder::new();
                for k in 0..6i64 {
                    b = b.complete(
                        ProcessId((k % 2) as usize),
                        x,
                        FetchIncrement::fetch_inc(),
                        Value::from(k),
                    );
                }
                b.build()
            })
            .collect();
        assert!(fi_all_t_linearizable_par(&good, 0, 0));
        let mut with_bad = good.clone();
        with_bad.push(
            HistoryBuilder::new()
                .complete(
                    ProcessId(0),
                    x,
                    FetchIncrement::fetch_inc(),
                    Value::from(0i64),
                )
                .complete(
                    ProcessId(1),
                    x,
                    FetchIncrement::fetch_inc(),
                    Value::from(0i64),
                )
                .build(),
        );
        assert!(!fi_all_t_linearizable_par(&with_bad, 0, 0));
        // …but the duplicate zeros are forgiven at t = 2.
        assert!(fi_all_t_linearizable_par(&with_bad, 0, 2));
    }
}

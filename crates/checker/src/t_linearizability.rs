//! `t`-linearizability (Definition 2) and the minimal stabilization index.
//!
//! A legal sequential history `S` is a *t-linearization* of `H` when, with
//! `H'` the suffix of `H` after its first `t` events:
//!
//! 1. every operation invoked in `S` is invoked in `H`;
//! 2. every operation completed in `H` is completed in `S`;
//! 3. if `op1`'s response precedes `op2`'s invocation, both events lie in
//!    `H'`, and `op2` appears in `S`, then `op1` precedes `op2` in `S`;
//! 4. every operation whose response lies in `H'` has the same response in
//!    `S`.
//!
//! Operations whose response falls inside the first `t` events therefore must
//! still appear in `S`, but their responses and their ordering are
//! unconstrained — that is how the definition forgives an arbitrarily bad
//! finite prefix.
//!
//! The decision procedure is the shared Wing–Gong kernel:
//! [`TLinearizability`] is a [`ConsistencyCondition`] translating the four
//! clauses above into candidate-operation constraints and precedence edges.
//! For `t = 0` the condition is exactly linearizability and admits the
//! per-object locality decomposition; for `t > 0` it must be checked on the
//! whole history (Lemma 7 only decomposes "`t`-linearizable for *some* `t`").

use crate::kernel::{
    self, ConsistencyCondition, ConstrainedOp, KernelScratch, Locality, SearchLimits,
    SearchProblem, SearchResult, SearchStats, Witness,
};
use evlin_history::{History, ObjectUniverse, OperationRecord};
use evlin_spec::Value;

/// The `t`-linearizability condition (Definition 2) as a kernel condition.
#[derive(Debug, Clone, Copy)]
pub struct TLinearizability {
    /// The number of initial events forgiven.
    pub t: usize,
}

impl TLinearizability {
    /// The condition for a given stabilization index.
    pub fn new(t: usize) -> Self {
        TLinearizability { t }
    }

    /// Clause 4: the response the witness must give `op` — its own, if it
    /// responds in `H'`, and none fixed otherwise.
    fn fixed_response(self, op: &OperationRecord) -> Option<Value> {
        match op.respond_index {
            Some(r) if r >= self.t => op.response.clone(),
            _ => None,
        }
    }

    /// Clause 3: whether `a` must precede `b` in the witness — `a`'s
    /// response precedes `b`'s invocation, and both lie in `H'`.
    fn orders(self, a: &OperationRecord, b: &OperationRecord) -> bool {
        a.respond_index
            .is_some_and(|ra| ra >= self.t && b.invoke_index >= self.t && ra < b.invoke_index)
    }

    /// Re-targets `problem`, built by [`ConsistencyCondition::problem`] for
    /// some `t`, at `self.t` in place.  Only the `t`-dependent clauses (3 and
    /// 4) are rewritten; the operation table and `required` (clauses 1 and 2)
    /// are left alone.  Clause 3 only drops edges, so `problem.precedence`
    /// must hold the problem's whole real-time order, which is its
    /// precedence at `t = 0`.
    fn constrain(self, problem: &mut SearchProblem) {
        for op in &mut problem.ops {
            op.fixed_response = self.fixed_response(&op.record);
        }
        let ops = &problem.ops;
        problem
            .precedence
            .retain(|&(i, j)| self.orders(&ops[i].record, &ops[j].record));
    }
}

impl ConsistencyCondition for TLinearizability {
    fn name(&self) -> &'static str {
        "t-linearizability"
    }

    fn candidates(&self, history: &History) -> Vec<ConstrainedOp> {
        history
            .operations()
            .into_iter()
            .map(|record| ConstrainedOp {
                required: record.is_complete(),
                fixed_response: self.fixed_response(&record),
                record,
            })
            .collect()
    }

    fn precedence(&self, _history: &History, candidates: &[ConstrainedOp]) -> Vec<(usize, usize)> {
        let mut precedence = Vec::new();
        for (i, a) in candidates.iter().enumerate() {
            for (j, b) in candidates.iter().enumerate() {
                if self.orders(&a.record, &b.record) {
                    precedence.push((i, j));
                }
            }
        }
        precedence
    }

    fn locality(&self) -> Locality {
        if self.t == 0 {
            // 0-linearizability is linearizability, which is local
            // (Herlihy & Wing's locality theorem).
            Locality::Exact
        } else {
            Locality::Global
        }
    }
}

/// Builds the constrained-linearization problem corresponding to
/// `t`-linearizability of `history`.
pub fn problem_for(history: &History, t: usize) -> SearchProblem {
    TLinearizability::new(t).problem(history)
}

/// Decides whether `history` is `t`-linearizable.
///
/// Uses the default [`SearchLimits`]; an exhausted node budget is reported as
/// *not* `t`-linearizable, which is the conservative answer for the
/// experiments (it can only under-report stabilization).
pub fn is_t_linearizable(history: &History, universe: &ObjectUniverse, t: usize) -> bool {
    t_linearization(history, universe, t).is_some()
}

/// Like [`is_t_linearizable`] but returns the witness `t`-linearization.
///
/// For `t = 0` the kernel's locality pre-pass decomposes multi-object
/// histories into per-object subproblems.
pub fn t_linearization(history: &History, universe: &ObjectUniverse, t: usize) -> Option<Witness> {
    kernel::check_local(
        &TLinearizability::new(t),
        history,
        universe,
        SearchLimits::default(),
    )
    .witness()
}

/// Like [`t_linearization`], additionally returning the kernel's search
/// counters (used by the experiments to report search effort).
pub fn t_linearization_with_stats(
    history: &History,
    universe: &ObjectUniverse,
    t: usize,
) -> (Option<Witness>, SearchStats) {
    let (result, stats) = kernel::check_local_with_stats(
        &TLinearizability::new(t),
        history,
        universe,
        SearchLimits::default(),
    );
    (result.witness(), stats)
}

/// Finds the smallest `t` such that `history` is `t`-linearizable, searching
/// `t ∈ [0, limit]` (where `limit` defaults to the history length).
///
/// By Lemma 5 of the paper, `t`-linearizability is monotone in `t`, so a
/// binary search is sound, and `limit` itself is probed only if the search
/// ends there.  The operation table and the real-time order are built once
/// per history; each probe re-targets the same problem at its `t` (see
/// [`TLinearizability`]) and runs through the shared kernel with a reused
/// [`KernelScratch`], so the visited cache and taken-set are allocated once
/// per history, not once per probe.  Returns `None` if the history is not
/// even `limit`-linearizable (which cannot happen for total types when
/// `limit` is the history length).
pub fn min_stabilization(
    history: &History,
    universe: &ObjectUniverse,
    limit: Option<usize>,
) -> Option<usize> {
    let hi_bound = limit.unwrap_or(history.len());
    let mut problem = TLinearizability::new(0).problem(history);
    let real_time = problem.precedence.clone();
    let mut scratch = KernelScratch::new();
    let limits = SearchLimits::default();
    let mut probe = |t: usize| -> bool {
        problem.precedence.clone_from(&real_time);
        TLinearizability::new(t).constrain(&mut problem);
        matches!(
            kernel::solve_with_scratch(&problem, universe, limits, &mut scratch).0,
            SearchResult::Yes(_)
        )
    };
    let mut lo = 0usize; // candidate answer space: [lo, hi]; hi < hi_bound is known-good
    let mut hi = hi_bound;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if probe(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    (lo < hi_bound || probe(hi_bound)).then_some(lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use evlin_history::{HistoryBuilder, ObjectId, ProcessId};
    use evlin_spec::{FetchIncrement, Invocation, ObjectType, Register, Transition, Value};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    /// A non-total type: `take()` is enabled only once, so a history that
    /// completes two takes has no legal arrangement at any `t`.
    #[derive(Debug)]
    struct OneShot;

    impl OneShot {
        fn take() -> Invocation {
            Invocation::nullary("take")
        }
    }

    impl ObjectType for OneShot {
        fn name(&self) -> &str {
            "one-shot"
        }

        fn initial_states(&self) -> Vec<Value> {
            vec![Value::Bool(false)]
        }

        fn transitions(&self, state: &Value, invocation: &Invocation) -> Vec<Transition> {
            match (invocation.method(), state.as_bool()) {
                ("take", Some(false)) => vec![Transition::new(Value::Unit, Value::Bool(true))],
                _ => Vec::new(),
            }
        }

        fn sample_invocations(&self) -> Vec<Invocation> {
            vec![OneShot::take()]
        }
    }

    /// A register, a fetch&increment object and a [`OneShot`].
    fn mixed_universe() -> ObjectUniverse {
        let mut u = ObjectUniverse::new();
        u.add_object(Register::new(Value::from(0i64)));
        u.add_object(FetchIncrement::new());
        u.add_object(OneShot);
        u
    }

    /// A random well-formed history over [`mixed_universe`]: random
    /// interleaving, noisy responses, and operations left pending when the
    /// step budget runs out.
    fn random_history(seed: u64) -> History {
        let mut rng = StdRng::seed_from_u64(seed);
        let processes = rng.gen_range(2..4usize);
        let mut plans: Vec<Vec<(ObjectId, Invocation)>> = vec![Vec::new(); processes];
        let ops = rng.gen_range(2..=6usize);
        for _ in 0..ops {
            let op = match rng.gen_range(0..7u32) {
                0 | 1 => (
                    ObjectId(0),
                    Register::write(Value::from(rng.gen_range(1..4i64))),
                ),
                2 | 3 => (ObjectId(0), Register::read()),
                4 | 5 => (ObjectId(1), FetchIncrement::fetch_inc()),
                _ => (ObjectId(2), OneShot::take()),
            };
            plans[rng.gen_range(0..processes)].push(op);
        }
        let mut b = HistoryBuilder::new();
        let mut next = vec![0usize; processes];
        let mut pending: Vec<Option<(ObjectId, Invocation)>> = vec![None; processes];
        for _ in 0..rng.gen_range(ops..=4 * ops) {
            let p = rng.gen_range(0..processes);
            if let Some((object, inv)) = pending[p].clone() {
                if rng.gen_bool(0.7) {
                    let response = match inv.method() {
                        "write" | "take" => Value::Unit,
                        _ => Value::from(rng.gen_range(0..4i64)),
                    };
                    b = b.respond(ProcessId(p), object, response);
                    pending[p] = None;
                }
            } else if let Some((object, inv)) = plans[p].get(next[p]).cloned() {
                next[p] += 1;
                b = b.invoke(ProcessId(p), object, inv.clone());
                pending[p] = Some((object, inv));
            }
        }
        b.build()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// The binary search returns what a linear scan over `t` finds, with
        /// and without a limit, `None` included.
        #[test]
        fn min_stabilization_matches_a_linear_scan(seed in 0u64..1_000_000, cut in 0usize..16) {
            let u = mixed_universe();
            let h = random_history(seed);
            let scan = |limit: usize| (0..=limit).find(|&t| is_t_linearizable(&h, &u, t));
            prop_assert_eq!(min_stabilization(&h, &u, None), scan(h.len()), "{}", h);
            let limit = cut.min(h.len());
            prop_assert_eq!(min_stabilization(&h, &u, Some(limit)), scan(limit), "{}", h);
        }

        /// One problem re-targeted in place, over every `t` in a scrambled
        /// order, equals the problem built from scratch at each `t`.
        #[test]
        fn retargeting_in_place_equals_a_fresh_problem(seed in 0u64..1_000_000) {
            let h = random_history(seed);
            let mut problem = TLinearizability::new(0).problem(&h);
            let real_time = problem.precedence.clone();
            let mut ts: Vec<usize> = (0..=h.len()).collect();
            ts.shuffle(&mut StdRng::seed_from_u64(seed));
            for t in ts {
                let condition = TLinearizability::new(t);
                problem.precedence.clone_from(&real_time);
                condition.constrain(&mut problem);
                let fresh = condition.problem(&h);
                prop_assert_eq!(&problem, &fresh, "t = {}\n{}", t, h);
            }
        }
    }

    #[test]
    fn non_total_type_can_leave_a_history_without_an_index() {
        let u = mixed_universe();
        let s = ObjectId(2);
        let h = HistoryBuilder::new()
            .complete(ProcessId(0), s, OneShot::take(), Value::Unit)
            .complete(ProcessId(1), s, OneShot::take(), Value::Unit)
            .build();
        assert!(!is_t_linearizable(&h, &u, h.len()));
        assert_eq!(min_stabilization(&h, &u, None), None);
        // A pending second take may be left out of the witness.
        let h = HistoryBuilder::new()
            .complete(ProcessId(0), s, OneShot::take(), Value::Unit)
            .invoke(ProcessId(1), s, OneShot::take())
            .build();
        assert_eq!(min_stabilization(&h, &u, None), Some(0));
    }

    fn fi_universe() -> (ObjectUniverse, evlin_history::ObjectId) {
        let mut u = ObjectUniverse::new();
        let x = u.add_object(FetchIncrement::new());
        (u, x)
    }

    #[test]
    fn duplicate_zero_returns_need_t_two() {
        let (u, x) = fi_universe();
        let h = HistoryBuilder::new()
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
            .build();
        assert!(!is_t_linearizable(&h, &u, 0));
        assert!(!is_t_linearizable(&h, &u, 1));
        assert!(is_t_linearizable(&h, &u, 2));
        assert_eq!(min_stabilization(&h, &u, None), Some(2));
    }

    #[test]
    fn linearizable_history_has_stabilization_zero() {
        let (u, x) = fi_universe();
        let h = HistoryBuilder::new()
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
                Value::from(1i64),
            )
            .build();
        assert_eq!(min_stabilization(&h, &u, None), Some(0));
    }

    #[test]
    fn paper_section_3_2_history_prefixes() {
        // The infinite history from Section 3.2:
        //   p: fetch_inc -> 0, then q: fetch_inc -> 0, 1, 2, ...
        // Every finite prefix is 2-linearizable (t = response of the first
        // operation): the t-linearization moves the first operation to the
        // end.  We verify a few prefixes.
        let (u, x) = fi_universe();
        let mut b = HistoryBuilder::new().complete(
            ProcessId(0),
            x,
            FetchIncrement::fetch_inc(),
            Value::from(0i64),
        );
        for k in 0..4i64 {
            b = b.complete(ProcessId(1), x, FetchIncrement::fetch_inc(), Value::from(k));
        }
        let h = b.build();
        for n in (2..=h.len()).step_by(2) {
            let prefix = h.prefix(n);
            assert!(
                is_t_linearizable(&prefix, &u, 2),
                "prefix of {n} events should be 2-linearizable"
            );
        }
        // But the full prefix (which stands in for the infinite history) is
        // not 0- or 1-linearizable.
        assert!(!is_t_linearizable(&h, &u, 0));
        assert_eq!(min_stabilization(&h, &u, None), Some(2));
    }

    #[test]
    fn witness_reassigns_early_responses() {
        let (u, x) = fi_universe();
        let h = HistoryBuilder::new()
            .complete(
                ProcessId(0),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(7i64),
            )
            .complete(
                ProcessId(1),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(0i64),
            )
            .build();
        // The nonsense response 7 lies in the first two events, so with t = 2
        // the witness may give that operation a different (legal) response.
        let w = t_linearization(&h, &u, 2).expect("2-linearizable");
        assert_eq!(w.order.len(), 2);
        let mut responses = w.responses.clone();
        responses.sort();
        assert_eq!(responses, vec![Value::from(0i64), Value::from(1i64)]);
        assert!(!is_t_linearizable(&h, &u, 0));
    }

    #[test]
    fn monotone_in_t_lemma_5() {
        let (u, x) = fi_universe();
        let h = HistoryBuilder::new()
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
            .complete(
                ProcessId(0),
                x,
                FetchIncrement::fetch_inc(),
                Value::from(1i64),
            )
            .build();
        let t0 = min_stabilization(&h, &u, None).unwrap();
        for t in t0..=h.len() {
            assert!(
                is_t_linearizable(&h, &u, t),
                "monotonicity violated at t={t}"
            );
        }
        for t in 0..t0 {
            assert!(!is_t_linearizable(&h, &u, t));
        }
    }

    #[test]
    fn register_history_with_early_garbage() {
        let mut u = ObjectUniverse::new();
        let r = u.add_object(Register::new(Value::from(0i64)));
        let h = HistoryBuilder::new()
            // Garbage read (99 was never written) in the prefix...
            .complete(ProcessId(0), r, Register::read(), Value::from(99i64))
            // ...then well-behaved operations.
            .complete(
                ProcessId(0),
                r,
                Register::write(Value::from(1i64)),
                Value::Unit,
            )
            .complete(ProcessId(1), r, Register::read(), Value::from(1i64))
            .build();
        assert!(!is_t_linearizable(&h, &u, 0));
        assert_eq!(min_stabilization(&h, &u, None), Some(2));
    }

    #[test]
    fn empty_history_is_zero_linearizable() {
        let (u, _) = fi_universe();
        let h = History::new();
        assert!(is_t_linearizable(&h, &u, 0));
        assert_eq!(min_stabilization(&h, &u, None), Some(0));
    }

    #[test]
    fn stats_report_search_effort() {
        let (u, x) = fi_universe();
        let h = HistoryBuilder::new()
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
                Value::from(1i64),
            )
            .build();
        let (w, stats) = t_linearization_with_stats(&h, &u, 0);
        assert!(w.is_some());
        assert!(stats.nodes > 0);
    }
}

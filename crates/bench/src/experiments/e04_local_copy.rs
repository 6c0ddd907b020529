//! E4 — Theorem 12: the local-copy transformation.
//!
//! Applying the transformation to a linearizable implementation yields an
//! implementation with no shared objects at all.  For trivial types
//! (Definition 13) this costs nothing; for non-trivial types linearizability
//! is lost (which is why eventually linearizable base objects cannot be used
//! to build them).  The experiment explores all interleavings of small
//! workloads of the transformed implementations and tabulates which
//! consistency conditions survive.

use crate::Table;
use evlin_algorithms::{CasFetchInc, LocalCopy, Prop16Consensus};
use evlin_checker::{linearizability, parallel, weak_consistency};
use evlin_history::ObjectUniverse;
use evlin_sim::engine::{self, EngineOptions, Reduction, Visit};
use evlin_sim::explorer::{terminal_histories, ExploreOptions};
use evlin_sim::program::LocalSpecImplementation;
use evlin_sim::workload::Workload;
use evlin_spec::trivial::{BlindRegister, StickyGate};
use evlin_spec::{Consensus, FetchIncrement, ObjectType, Queue, Register, TestAndSet, Value};
use std::sync::Arc;

struct Case {
    name: &'static str,
    ty: Arc<dyn ObjectType>,
    workload: Workload,
    trivial: bool,
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "sticky-gate (trivial)",
            ty: Arc::new(StickyGate::new()),
            workload: Workload::uniform(2, StickyGate::knock(), 2),
            trivial: true,
        },
        Case {
            name: "blind-register (trivial)",
            ty: Arc::new(BlindRegister::new()),
            workload: Workload::uniform(2, BlindRegister::write(Value::from(1i64)), 2),
            trivial: true,
        },
        Case {
            name: "register",
            ty: Arc::new(Register::new(Value::from(0i64))),
            workload: Workload::new(vec![
                vec![Register::write(Value::from(1i64)), Register::read()],
                vec![Register::read(), Register::read()],
            ]),
            trivial: false,
        },
        Case {
            name: "fetch&increment",
            ty: Arc::new(FetchIncrement::new()),
            workload: Workload::uniform(2, FetchIncrement::fetch_inc(), 2),
            trivial: false,
        },
        Case {
            name: "test&set",
            ty: Arc::new(TestAndSet::new()),
            workload: Workload::uniform(2, TestAndSet::test_and_set(), 1),
            trivial: false,
        },
        Case {
            name: "consensus",
            ty: Arc::new(Consensus::new()),
            workload: Workload::one_shot(vec![
                Consensus::propose(Value::from(0i64)),
                Consensus::propose(Value::from(1i64)),
            ]),
            trivial: false,
        },
        Case {
            name: "queue",
            ty: Arc::new(Queue::new()),
            workload: Workload::new(vec![
                vec![Queue::enqueue(Value::from(1i64)), Queue::dequeue()],
                vec![Queue::enqueue(Value::from(2i64)), Queue::dequeue()],
            ]),
            trivial: false,
        },
    ]
}

/// Runs experiment E4 and returns its tables.
pub fn run(quick: bool) -> Vec<Table> {
    let options = ExploreOptions {
        max_depth: if quick { 16 } else { 24 },
        max_configs: if quick { 50_000 } else { 400_000 },
    };

    let mut per_type = Table::new(
        "E4 — Theorem 12: communication-free (local-copy) implementations, all interleavings",
        &[
            "implemented type",
            "trivial (Def. 13)",
            "terminal histories",
            "all linearizable",
            "all weakly consistent",
            "states (raw)",
            "states (sleep+sym)",
        ],
    );
    for case in cases() {
        let mut universe = ObjectUniverse::new();
        universe.add_shared(case.ty.clone(), case.ty.initial_states()[0].clone());
        let implementation = LocalSpecImplementation::new(case.ty.clone(), 2);
        // Explore all interleavings on every core, then batch-check the
        // terminal histories in parallel too.
        let histories = engine::terminal_histories(
            &implementation,
            &case.workload,
            &EngineOptions {
                limits: options,
                ..EngineOptions::default()
            },
        );
        let all_lin = parallel::check_histories_par(&histories, &universe)
            .into_iter()
            .all(|ok| ok);
        let all_wc = histories
            .iter()
            .all(|h| weak_consistency::is_weakly_consistent(h, &universe));
        // How much of that tree the reduction engine skips (symmetry applies
        // to the uniform workloads; the one-shot consensus proposals differ,
        // so that row degrades to plain state deduplication).
        let count_states = |reduction| {
            let stats = engine::explore(
                &implementation,
                &case.workload,
                &EngineOptions {
                    limits: options,
                    workers: Some(1),
                    reduction,
                    ..EngineOptions::default()
                },
                |_, _| Visit::Continue,
            );
            // A truncated count is not comparable across strategies; the E4
            // workloads are tiny, so treat hitting the budget as a bug.
            assert!(!stats.truncated, "E4 exploration truncated: {}", case.name);
            stats.visited
        };
        let raw_states = count_states(Reduction::None);
        let reduced_states = count_states(Reduction::SleepSetSymmetry);
        per_type.push_row([
            case.name.to_string(),
            case.trivial.to_string(),
            histories.len().to_string(),
            all_lin.to_string(),
            all_wc.to_string(),
            raw_states.to_string(),
            format!(
                "{reduced_states} ({:.1}×)",
                raw_states as f64 / reduced_states.max(1) as f64
            ),
        ]);
    }

    // Second table: the transformation applied to real (multi-step)
    // implementations rather than directly to the specification.
    let mut transformed = Table::new(
        "E4b — local-copy transformation of concrete implementations",
        &[
            "implementation",
            "terminal histories",
            "all linearizable",
            "all weakly consistent",
            "all operations complete (wait-free)",
        ],
    );
    {
        let t = LocalCopy::new(CasFetchInc::new(2));
        let w = Workload::uniform(2, FetchIncrement::fetch_inc(), if quick { 1 } else { 2 });
        let mut u = ObjectUniverse::new();
        u.add_object(FetchIncrement::new());
        let total = w.total_operations();
        let histories = terminal_histories(&t, &w, options);
        transformed.push_row([
            "LocalCopy(CasFetchInc)".to_string(),
            histories.len().to_string(),
            histories
                .iter()
                .all(|h| linearizability::is_linearizable(h, &u))
                .to_string(),
            histories
                .iter()
                .all(|h| weak_consistency::is_weakly_consistent(h, &u))
                .to_string(),
            histories
                .iter()
                .all(|h| h.complete_operations().len() == total)
                .to_string(),
        ]);
    }
    {
        let t = LocalCopy::new(Prop16Consensus::new(2));
        let w = Workload::one_shot(vec![
            Consensus::propose(Value::from(0i64)),
            Consensus::propose(Value::from(1i64)),
        ]);
        let mut u = ObjectUniverse::new();
        u.add_object(Consensus::new());
        let total = w.total_operations();
        let histories = terminal_histories(&t, &w, options);
        transformed.push_row([
            "LocalCopy(Prop16Consensus)".to_string(),
            histories.len().to_string(),
            histories
                .iter()
                .all(|h| linearizability::is_linearizable(h, &u))
                .to_string(),
            histories
                .iter()
                .all(|h| weak_consistency::is_weakly_consistent(h, &u))
                .to_string(),
            histories
                .iter()
                .all(|h| h.complete_operations().len() == total)
                .to_string(),
        ]);
    }

    vec![per_type, transformed]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_types_survive_and_non_trivial_do_not() {
        let tables = run(true);
        for row in &tables[0].rows {
            let trivial: bool = row[1].parse().unwrap();
            let all_lin: bool =
                row[2].parse::<usize>().unwrap() > 0 && row[3].parse::<bool>().unwrap();
            let all_wc: bool = row[4].parse().unwrap();
            assert!(all_wc, "local copies are always weakly consistent: {row:?}");
            assert_eq!(
                trivial, all_lin,
                "linearizability must survive exactly for trivial types: {row:?}"
            );
        }
        // Transformed concrete implementations stay wait-free and weakly
        // consistent, but lose linearizability.
        for row in &tables[1].rows {
            assert_eq!(row[2], "false");
            assert_eq!(row[3], "true");
            assert_eq!(row[4], "true");
        }
    }
}

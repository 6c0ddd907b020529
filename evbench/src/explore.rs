//! `explore-noisy`: the paper's offline question.  An exhaustive engine walk
//! of the noisy-prefix fetch&increment, then the stabilization index `t`
//! (Definition 2) of every terminal history.

use crate::gen::SplitMix64;
use crate::trace::Tracer;
use evlin_algorithms::NoisyPrefixFetchInc;
use evlin_checker::kernel::{self, SearchLimits, SearchResult};
use evlin_checker::t_linearizability::{min_stabilization, t_linearization_with_stats};
use evlin_checker::{fi, TLinearizability};
use evlin_history::{History, ObjectUniverse};
use evlin_sim::engine::{self, EngineOptions, ExploreOptions, ExploreStats, Reduction, Visit};
use evlin_sim::workload::Workload;
use evlin_spec::FetchIncrement;
use std::time::Instant;

pub const PROCESSES: usize = 3;
pub const OPS_PER_PROCESS: usize = 2;
pub const WARMUP: i64 = 2;
/// Histories cross-checked against the `fi` checker per round.
pub const SAMPLE: usize = 64;

/// The implementation, its workload and how to explore it.
pub struct Subject {
    pub implementation: NoisyPrefixFetchInc,
    pub workload: Workload,
    pub universe: ObjectUniverse,
    pub options: EngineOptions,
}

/// Builds the subject for a walk bounded at `depth` steps.
pub fn setup(depth: usize) -> Subject {
    let mut universe = ObjectUniverse::new();
    universe.add_object(FetchIncrement::new());
    Subject {
        implementation: NoisyPrefixFetchInc::new(PROCESSES, WARMUP),
        workload: Workload::uniform(PROCESSES, FetchIncrement::fetch_inc(), OPS_PER_PROCESS),
        universe,
        options: EngineOptions {
            limits: ExploreOptions {
                max_depth: depth,
                max_configs: usize::MAX,
            },
            workers: Some(1),
            reduction: Reduction::SleepSetSymmetry,
            ..EngineOptions::default()
        },
    }
}

/// Completed operations in `h` (its response events).
fn completed_ops(h: &History) -> u64 {
    h.events().iter().filter(|e| e.is_respond()).count() as u64
}

/// One round's outputs.
#[derive(Default)]
pub struct Round {
    pub histories: u64,
    /// Completed operations across the histories.
    pub ops: u64,
    /// Histories without an index.
    pub unindexed: u64,
    /// Walk start to every index in hand.
    pub analysis_s: f64,
    /// Last history collected to every index in hand.
    pub lag_s: f64,
    /// Each history's `min_stabilization` time in nanoseconds, in the
    /// walk's (deterministic) history order.
    pub times: Vec<u64>,
    /// Largest stabilization index.
    pub max_t: usize,
    pub failures: Vec<String>,
    /// Traced only: the walk alone, its stats, the collection, kernel effort.
    pub explore: Option<(f64, ExploreStats)>,
    pub collect_s: f64,
    pub kernel_nodes: u64,
    pub memo_hits: u64,
    pub limit_hits: u64,
}

/// One round.  Traced rounds also walk once with a counting visitor, and
/// gather the kernel's search counters at each history's index.
pub fn round(subject: &Subject, seed: u64, round: u64, tracer: &mut Tracer) -> Round {
    let Subject {
        implementation,
        workload,
        universe,
        options,
    } = subject;
    let mut out = Round::default();
    let traced = tracer.is_on();
    let mut terminals = 0u64;
    if traced {
        let t = Instant::now();
        let max_depth = options.limits.max_depth;
        let stats = tracer.span("sim.engine.explore", |_| {
            engine::explore(implementation, workload, options, |config, depth| {
                if config.is_quiescent() || depth >= max_depth {
                    terminals += 1;
                }
                Visit::Continue
            })
        });
        out.explore = Some((t.elapsed().as_secs_f64(), stats));
    }
    let start = Instant::now();
    let histories = tracer.span("sim.engine.terminal_histories", |_| {
        engine::terminal_histories(implementation, workload, options)
    });
    let collected = Instant::now();
    out.collect_s = (collected - start).as_secs_f64();
    let mut indices = Vec::with_capacity(histories.len());
    for chunk in histories.chunks(256) {
        let from = indices.len();
        tracer.span("checker.tlin.min_stabilization", |_| {
            for h in chunk {
                let t0 = Instant::now();
                let index = min_stabilization(h, universe, None);
                out.times.push(t0.elapsed().as_nanos() as u64);
                indices.push(index);
            }
        });
        if traced {
            tracer.span("checker.kernel.stats", |_| {
                for (h, index) in chunk.iter().zip(&indices[from..]) {
                    kernel_effort(h, universe, *index, &mut out);
                }
            });
        }
    }
    let done = Instant::now();
    out.analysis_s = (done - start).as_secs_f64();
    out.lag_s = (done - collected).as_secs_f64();
    out.histories = histories.len() as u64;
    out.ops = histories.iter().map(completed_ops).sum();
    out.unindexed = indices.iter().filter(|i| i.is_none()).count() as u64;
    if out.unindexed > 0 {
        out.failures.push(format!(
            "{} histories have no stabilization index",
            out.unindexed
        ));
    }
    if out.limit_hits > 0 {
        out.failures.push(format!(
            "{} kernel searches hit their node limit",
            out.limit_hits
        ));
    }
    if traced && terminals != out.histories {
        out.failures.push(format!(
            "the counting walk saw {terminals} terminals, the collection {}",
            out.histories
        ));
    }
    if histories.is_empty() {
        out.failures
            .push("the walk produced no terminal histories".into());
        return out;
    }
    cross_check(&histories, &indices, seed, round, &mut out);
    out
}

/// Search counters at a history's index `t`, and whether the kernel gave
/// up (hit its node limit) at `t` or at `t - 1`.
fn kernel_effort(h: &History, universe: &ObjectUniverse, index: Option<usize>, out: &mut Round) {
    let Some(t) = index else { return };
    let (witness, stats) = t_linearization_with_stats(h, universe, t);
    out.kernel_nodes += stats.nodes as u64;
    out.memo_hits += stats.memo_hits as u64;
    if witness.is_none() {
        out.limit_hits += 1;
    }
    if t > 0 {
        let below = TLinearizability::new(t - 1);
        let (result, _) =
            kernel::check_local_with_stats(&below, h, universe, SearchLimits::default());
        if matches!(result, SearchResult::Unknown) {
            out.limit_hits += 1;
        }
    }
}

/// The index of a seeded sample of histories (and of a history with the
/// largest index) must agree with the `fi` checker: `t`-linearizable at
/// `t`, and not at `t - 1`.
fn cross_check(
    histories: &[History],
    indices: &[Option<usize>],
    seed: u64,
    round: u64,
    out: &mut Round,
) {
    let argmax = (0..histories.len())
        .max_by_key(|&i| indices[i])
        .expect("non-empty");
    out.max_t = indices[argmax].unwrap_or(0);
    let mut rng = SplitMix64::new(seed, 0xE8_0000 | round);
    let sample = std::iter::once(argmax)
        .chain((0..SAMPLE).map(|_| rng.below(histories.len() as u64) as usize));
    for i in sample {
        let Some(t) = indices[i] else { continue };
        let h = &histories[i];
        let at = fi::is_t_linearizable(h, 0, t);
        let below = if t == 0 {
            Ok(false)
        } else {
            fi::is_t_linearizable(h, 0, t - 1)
        };
        if at != Ok(true) || below != Ok(false) {
            out.failures.push(format!(
                "history {i}: kernel index {t}, fi says {at:?} at t and {below:?} at t-1"
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_walk_indexes_every_history_and_agrees_with_fi() {
        let subject = setup(10);
        let r = round(&subject, 3, 0, &mut Tracer::off());
        assert!(r.failures.is_empty(), "{:?}", r.failures);
        assert!(r.histories > 10);
        assert_eq!(r.times.len() as u64, r.histories);
    }
}

//! # evlin-sim
//!
//! A deterministic asynchronous shared-memory simulator: the substrate on
//! which the algorithms of Guerraoui & Ruppert (PODC 2014) are executed and
//! analysed.
//!
//! The paper's model is a collection of processes that take atomic steps on
//! shared *base objects*, interleaved arbitrarily by an adversary.  This
//! crate makes every piece of that model explicit and executable:
//!
//! * [`base`] — base objects.  [`base::SpecObject`] is a linearizable
//!   (atomic) object of any deterministic [`evlin_spec::ObjectType`];
//! * [`eventually`] — *eventually linearizable* base objects: an adversarial
//!   wrapper that serves each process from a local copy until a
//!   stabilization point chosen by a [`eventually::StabilizationPolicy`],
//!   after which all logged operations are merged and the object behaves
//!   linearizably;
//! * [`program`] — implementations of high-level objects as step state
//!   machines ([`program::ProcessLogic`]) over base objects;
//! * [`config`] — configurations (base-object states + process states +
//!   recorded history) that can be cloned, which is what makes exhaustive
//!   exploration possible;
//! * [`scheduler`] — round-robin, seeded-random, solo-burst and crash
//!   schedulers;
//! * [`runner`] — drives a configuration under a scheduler and returns the
//!   recorded high-level history;
//! * [`engine`] — the unified exhaustive-exploration engine: one iterative
//!   traversal (sequential or subtree-stealing parallel, selected by a
//!   worker count) with a pluggable [`engine::ReductionStrategy`] — sleep-set
//!   partial-order reduction driven by a step-independence oracle on
//!   configurations, and process-symmetry canonicalization for symmetric
//!   programs;
//! * [`explorer`] — the sequential facade over the engine: bounded
//!   exhaustive exploration of *all* interleavings ([`explorer::explore`]);
//!   the engine's own entry points ([`engine::explore_shared`],
//!   [`engine::terminal_histories`]) run the same walk on every core with
//!   work-stealing over independent subtrees;
//! * [`valency`] — bivalence/critical-configuration analysis for two-process
//!   consensus implementations (the engine behind the Proposition 15 and
//!   Corollary 19 experiments);
//! * [`stability`] — the stable-configuration search of Proposition 18 and
//!   the freezing machinery that turns an eventually linearizable
//!   fetch&increment implementation into a linearizable one;
//! * [`fault`] — transient-fault injection: budgeted corruption steps
//!   ([`fault::FaultStep`]) enumerated alongside process steps by the engine,
//!   for self-stabilization analyses (experiment E15);
//! * [`store`] — the visited-store seam: the engine's deduplication set
//!   behind a [`store::VisitedStore`] trait, with an in-memory backend
//!   (bit-identical to the pre-seam engine), a fingerprint-prefix-sharded
//!   backend and a spill-to-disk backend that bounds resident memory by
//!   flushing full shards as compressed sorted runs;
//! * [`checkpoint`] — resumable and partitionable exploration on top of the
//!   store seam: periodic atomic checkpoints that survive SIGKILL
//!   ([`checkpoint::explore_checkpointed`]) and a fingerprint-range
//!   partitioner whose per-partition stats recompose the single-run totals
//!   exactly ([`checkpoint::explore_partitioned`]).
//!
//! ## Example
//!
//! ```
//! use evlin_sim::prelude::*;
//! use evlin_spec::{FetchIncrement, Value};
//! use std::sync::Arc;
//!
//! // A linearizable fetch&increment base object driven directly.
//! let mut obj = SpecObject::new(Arc::new(FetchIncrement::new()));
//! let r0 = obj.invoke(evlin_history::ProcessId(0), &FetchIncrement::fetch_inc());
//! let r1 = obj.invoke(evlin_history::ProcessId(1), &FetchIncrement::fetch_inc());
//! assert_eq!((r0, r1), (Value::from(0i64), Value::from(1i64)));
//! ```
//!
//! ### Modelling note
//!
//! A base-object access is modelled as a single atomic step (invocation and
//! response together), which is the standard way to reason about atomic
//! shared memory.  The paper's Proposition 15 treats invocation and response
//! events on base objects separately in its case analysis; the executable
//! valency analysis here works at the atomic-step granularity, which is
//! equivalent for linearizable base objects and conservative for eventually
//! linearizable ones (documented in DESIGN.md).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod base;
pub mod checkpoint;
pub mod config;
pub mod engine;
pub mod eventually;
pub mod explorer;
pub mod fault;
pub mod program;
pub mod runner;
pub mod scheduler;
pub mod stability;
pub mod store;
pub mod valency;
pub mod workload;
pub mod zobrist;

/// Commonly used items re-exported for glob import in downstream crates.
pub mod prelude {
    pub use crate::base::{BaseObject, PidDependence, SpecObject};
    pub use crate::checkpoint::{
        explore_checkpointed, explore_partitioned, CheckpointOptions, CheckpointRun, PartitionRun,
    };
    pub use crate::config::{Config, StepOutcome, StepShape};
    pub use crate::engine::{EngineOptions, Reduction, ReductionStrategy};
    pub use crate::eventually::{EventuallyLinearizable, StabilizationPolicy};
    pub use crate::explorer::{explore, ExploreOptions};
    pub use crate::fault::{FaultStep, FaultTarget};
    pub use crate::program::{Implementation, ProcessLogic, TaskStep};
    pub use crate::runner::{run, RunOutcome};
    pub use crate::scheduler::{
        CrashScheduler, RandomScheduler, RoundRobinScheduler, Scheduler, SoloBurstScheduler,
    };
    pub use crate::store::{StoreBytes, StoreConfig, StoreReport, VisitedStore};
    pub use crate::workload::Workload;
}

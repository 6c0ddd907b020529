//! # evlin-runtime
//!
//! Real multi-threaded shared objects with history recording.
//!
//! The simulator in `evlin-sim` is what makes the paper's *proofs*
//! executable; this crate is what makes the paper's *motivation* measurable.
//! The introduction argues that a fetch&increment counter used for reference
//! counting is typically built from compare&swap and that, under contention,
//! it can be acceptable to return a temporarily stale value as long as all
//! increments are eventually counted.  The experiments of EXPERIMENTS.md
//! (E8) compare, on real threads:
//!
//! * [`counter::CasCounter`] — the linearizable compare&swap retry loop;
//! * [`counter::FetchAddCounter`] — the linearizable hardware `fetch_add`;
//! * [`counter::ShardedCounter`] — an eventually consistent counter that
//!   batches increments in per-thread shards and refreshes its view of other
//!   shards only periodically, trading staleness for throughput.
//!
//! [`recorder::Recorder`] timestamps invocation and response events with a
//! global atomic sequence number so that the histories produced by real
//! threads can be checked offline with `evlin-checker` (the specialized
//! fetch&increment checker handles hundreds of thousands of operations);
//! [`harness::run_counter_workload`] spawns the threads, runs a workload
//! and collects the history and throughput statistics.
//!
//! ## Online checking: the pipelined path
//!
//! The same runs can be checked *while they execute*, with memory bounded
//! by the concurrency window, by the *sharded, frame-batched, pipelined*
//! dataflow:
//!
//! * each worker thread records into its own [`recorder::RecorderShard`],
//!   which batches sequence-stamped events into pooled frames and ships
//!   them over a per-producer bounded ring ([`channel::sharded`]), so the
//!   synchronization cost is paid per frame, not per event;
//! * a k-way [`channel::sharded::FrameMerge`] restores global sequence
//!   order at O(k) per run of consecutive items;
//! * the monitor is split into overlapping stages
//!   (`evlin_checker::monitor::stages`): the merge thread cuts quiescent
//!   segments while a check thread runs the kernel over closed segments.
//!
//! [`harness::run_counter_workload_pipelined`] wires the three stages up
//! (used by experiments E11 and E16 and the `monitor_throughput` bench); its
//! verdicts are bit-identical to the inline monitor's —
//! `tests/pipeline_differential.rs` proves that against the offline kernel
//! for 1/2/8 producers, with and without frame faults.
//!
//! For the fault-injection experiments, [`fault::FaultySender`] turns each
//! producer ring into a seeded lossy/duplicating/reordering link
//! ([`harness::run_counter_workload_pipelined_faulty`]), so the online
//! checker's reaction to transient *transport* faults can be measured
//! alongside the simulator's transient *state* faults.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod channel;
pub mod consensus;
pub mod counter;
pub mod fault;
pub mod harness;
pub mod recorder;

pub use channel::sharded::{Frame, FrameMerge, FrameSender, MergeStats};
pub use channel::TrySendError;
pub use counter::{CasCounter, ConcurrentCounter, FetchAddCounter, ShardedCounter};
pub use fault::{ChannelFaultStats, FaultPlan, FaultySender};
pub use harness::{
    run_counter_workload, run_counter_workload_pipelined, run_counter_workload_pipelined_faulty,
    CounterRun, HarnessOptions, PipelineOptions, PipelinedRun,
};
pub use recorder::{sharded_recorder, EventSink, Recorder, RecorderShard, SinkStats};

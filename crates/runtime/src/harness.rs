//! Spawning threads, running workloads, collecting histories and statistics.

use crate::channel;
use crate::channel::sharded::MergeStats;
use crate::counter::ConcurrentCounter;
use crate::fault::{ChannelFaultStats, FaultPlan};
use crate::recorder::{sharded_recorder, Recorder, SinkStats};
use evlin_checker::monitor::{self, IngestSummary, MonitorConfig, MonitorReport, SegmentBatch};
use evlin_history::{Event, History, ObjectId, ObjectUniverse, ProcessId};
use evlin_spec::{FetchIncrement, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Options for [`run_counter_workload`].
#[derive(Debug, Clone, Copy)]
pub struct HarnessOptions {
    /// Number of threads.
    pub threads: usize,
    /// Operations per thread.
    pub ops_per_thread: usize,
    /// Whether to record a history (adds overhead; switch off for raw
    /// throughput measurements).
    pub record_history: bool,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        HarnessOptions {
            threads: 2,
            ops_per_thread: 1_000,
            record_history: true,
        }
    }
}

/// The outcome of one counter workload run.
#[derive(Debug)]
pub struct CounterRun {
    /// The recorded history (if recording was enabled).
    pub history: Option<History>,
    /// Wall-clock duration of the measured section.
    pub elapsed: Duration,
    /// Total operations performed.
    pub total_ops: usize,
    /// Operations per second.
    pub throughput: f64,
    /// The counter's exact total after quiescence.
    pub final_total: i64,
    /// Number of operations whose returned value was stale, i.e. already
    /// returned by an earlier-completing operation (0 for linearizable
    /// counters).
    pub duplicate_responses: usize,
    /// The largest observed staleness: `exact-at-response − returned value`,
    /// approximated as the difference between the operation's slot in
    /// completion order and its returned value.  0 for linearizable counters.
    pub max_staleness: i64,
}

impl CounterRun {
    /// Convenience: whether every response was distinct (a cheap necessary
    /// condition for linearizability of a fetch&increment history).
    pub fn responses_distinct(&self) -> bool {
        self.duplicate_responses == 0
    }
}

/// Runs `options.threads` threads each performing
/// `options.ops_per_thread` fetch&inc operations on `counter`.
pub fn run_counter_workload(
    counter: &dyn ConcurrentCounter,
    options: HarnessOptions,
) -> CounterRun {
    let recorder = options.record_history.then(Recorder::new);
    let object = ObjectId(0);
    let start_flag = AtomicBool::new(false);

    let started = Instant::now();
    let all_responses: Vec<i64> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..options.threads)
            .map(|t| {
                let recorder = recorder.as_ref();
                let start_flag = &start_flag;
                s.spawn(move || {
                    // Spin until every thread is ready so the measured
                    // section is genuinely concurrent.
                    while !start_flag.load(Ordering::Acquire) {
                        std::hint::spin_loop();
                    }
                    let mut local = Vec::with_capacity(options.ops_per_thread);
                    for _ in 0..options.ops_per_thread {
                        if let Some(r) = recorder {
                            r.invoke(ProcessId(t), object, FetchIncrement::fetch_inc());
                        }
                        let v = counter.fetch_inc(t);
                        if let Some(r) = recorder {
                            r.respond(ProcessId(t), object, Value::from(v));
                        }
                        local.push(v);
                    }
                    local
                })
            })
            .collect();
        start_flag.store(true, Ordering::Release);
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("worker thread"))
            .collect()
    });
    let elapsed = started.elapsed();

    let total_ops = options.threads * options.ops_per_thread;
    let (duplicate_responses, max_staleness) = summarize_responses(&all_responses);

    CounterRun {
        history: recorder.map(Recorder::into_history),
        elapsed,
        total_ops,
        throughput: total_ops as f64 / elapsed.as_secs_f64().max(f64::EPSILON),
        final_total: counter.exact_total(),
        duplicate_responses,
        max_staleness,
    }
}

/// Tuning knobs of the sharded, frame-batched, pipelined monitoring path
/// ([`run_counter_workload_pipelined`]).
#[derive(Debug, Clone, Copy)]
pub struct PipelineOptions {
    /// Events per frame shipped from a worker's [`crate::RecorderShard`] to
    /// the merge stage.  Larger frames amortize more synchronization per
    /// event; smaller frames shorten the pipeline's latency tail.
    pub frame_capacity: usize,
    /// In-flight frames each producer ring holds before the producer blocks
    /// (back-pressure, in frames).
    pub ring_frames: usize,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            frame_capacity: 512,
            ring_frames: 8,
        }
    }
}

/// The outcome of one pipelined, sharded, live-monitored counter workload
/// run ([`run_counter_workload_pipelined`]).
#[derive(Debug)]
pub struct PipelinedRun {
    /// The workload-side statistics (history is `None`: events streamed).
    pub run: CounterRun,
    /// The pipelined monitor's verdict and counters — identical to what the
    /// inline [`monitor::Monitor`] reports on the same stream.
    pub report: MonitorReport,
    /// Sink counters summed over every worker shard.
    pub sink: SinkStats,
    /// What the k-way merge saw: frames, events, and the transport-integrity
    /// counters (fingerprint mismatches, misordered frames).
    pub merge: MergeStats,
    /// Frame-granularity faults summed over the shards' injectors, when the
    /// run streamed through [`run_counter_workload_pipelined_faulty`];
    /// `None` on clean runs.  Units are *frames*, not events.
    pub channel_faults: Option<ChannelFaultStats>,
    /// Wall-clock time from workload start until the check stage finished
    /// the last segment (≥ `run.elapsed`; the basis for checked-ops/s).
    pub total_elapsed: Duration,
}

impl PipelinedRun {
    /// Completed operations verified per second, end to end (workload,
    /// merge, ingest and kernel checking all overlap).
    pub fn checked_ops_per_sec(&self) -> f64 {
        self.report.stats.checked_ops as f64 / self.total_elapsed.as_secs_f64().max(f64::EPSILON)
    }

    /// Events carried through the full pipeline per second (an invocation
    /// and a response per operation, so ~2× the checked-op rate).
    pub fn events_per_sec(&self) -> f64 {
        self.report.stats.events as f64 / self.total_elapsed.as_secs_f64().max(f64::EPSILON)
    }
}

/// What the merge+ingest stage hands the check stage.
enum StageMsg {
    Batch(SegmentBatch),
    Final(SegmentBatch, IngestSummary),
}

/// Runs a counter workload under the *pipelined* online monitor: each worker
/// thread records into its own [`crate::RecorderShard`] (frame-batched,
/// per-producer ring), a merge stage k-way-merges the shard streams back
/// into global sequence order and cuts quiescent segments
/// ([`monitor::MonitorIngest`]), and a check stage runs the kernel over
/// closed segments ([`monitor::MonitorCheck`]) — three overlapping stages,
/// synchronizing once per frame rather than once per event.  The verdict is
/// identical to the inline [`monitor::Monitor`]'s on the same stream.
///
/// `options.record_history` is ignored (events always stream).
pub fn run_counter_workload_pipelined(
    counter: &dyn ConcurrentCounter,
    options: HarnessOptions,
    monitor_config: MonitorConfig,
    pipeline: PipelineOptions,
) -> PipelinedRun {
    pipelined_run(counter, options, monitor_config, pipeline, None)
}

/// Like [`run_counter_workload_pipelined`], but every shard streams its
/// frames through a seed-derived transient-fault injector
/// ([`FaultPlan::for_shard`]) that loses, duplicates or adjacently reorders
/// whole *frames* before they reach the merge.  The monitor's verdict then
/// reflects the corruption, not the counter: a lost or reordered frame shows
/// up as a violation (flagged) or as ill-formed events the ingest stage
/// rejects, while conditions with forgiveness (`t`-linearizability,
/// stabilizes-eventually) absorb a corrupted prefix.
pub fn run_counter_workload_pipelined_faulty(
    counter: &dyn ConcurrentCounter,
    options: HarnessOptions,
    monitor_config: MonitorConfig,
    pipeline: PipelineOptions,
    plan: FaultPlan,
) -> PipelinedRun {
    pipelined_run(counter, options, monitor_config, pipeline, Some(plan))
}

fn pipelined_run(
    counter: &dyn ConcurrentCounter,
    options: HarnessOptions,
    monitor_config: MonitorConfig,
    pipeline: PipelineOptions,
    plan: Option<FaultPlan>,
) -> PipelinedRun {
    let mut universe = ObjectUniverse::new();
    let object = universe.add_object(FetchIncrement::new());
    debug_assert_eq!(object, ObjectId(0), "the harness records on ObjectId(0)");
    let (ingest, check) = monitor::stages(universe, monitor_config);
    let (shards, merge) = sharded_recorder(
        options.threads.max(1),
        pipeline.frame_capacity,
        pipeline.ring_frames,
        plan,
    );
    // Closed segments flow to the check stage through their own small ring;
    // its back-pressure is what keeps the pipeline's memory bounded when
    // checking falls behind ingestion.
    let (batch_tx, batch_rx) = channel::bounded::<StageMsg>(8);

    let start_flag = AtomicBool::new(false);
    let started = Instant::now();
    let (all_responses, sink, channel_faults, merge_stats, report, elapsed, total_elapsed) =
        std::thread::scope(|s| {
            let check_stage = s.spawn(move || {
                let mut check = check;
                loop {
                    match batch_rx.recv() {
                        Some(StageMsg::Batch(batch)) => check.check_batch(batch),
                        Some(StageMsg::Final(tail, summary)) => return check.finish(tail, summary),
                        None => panic!("the merge stage hung up without a final batch"),
                    }
                }
            });
            let merge_stage = s.spawn(move || {
                let mut merge = merge;
                let mut ingest = ingest;
                let mut buf: Vec<(u64, Event)> = Vec::with_capacity(4096);
                loop {
                    buf.clear();
                    if merge.recv_sorted(&mut buf, 4096) == 0 {
                        break;
                    }
                    for (_, event) in buf.drain(..) {
                        // On a clean transport the shards' well-formedness
                        // filters make errors impossible; under frame faults
                        // a lost frame can orphan responses, which the
                        // ingest stage rejects — the fault surfacing, not a
                        // pipeline bug.
                        let _ = ingest.ingest(event);
                    }
                    while let Some(batch) = ingest.take_ready_batch() {
                        // An error means the check stage died; the join below
                        // propagates its panic.
                        if batch_tx.send(StageMsg::Batch(batch)).is_err() {
                            break;
                        }
                    }
                }
                let stats = merge.stats();
                let (tail, summary) = ingest.finish();
                let _ = batch_tx.send(StageMsg::Final(tail, summary));
                stats
            });
            let workers: Vec<_> = shards
                .into_iter()
                .enumerate()
                .map(|(t, mut shard)| {
                    let start_flag = &start_flag;
                    s.spawn(move || {
                        while !start_flag.load(Ordering::Acquire) {
                            std::hint::spin_loop();
                        }
                        let mut local = Vec::with_capacity(options.ops_per_thread);
                        for _ in 0..options.ops_per_thread {
                            shard.invoke(ProcessId(t), object, FetchIncrement::fetch_inc());
                            let v = counter.fetch_inc(t);
                            shard.respond(ProcessId(t), object, Value::from(v));
                            local.push(v);
                        }
                        // Ship the partial tail while the fault injector is
                        // still observable, then read its counters and close.
                        shard.flush();
                        let faults = shard.fault_stats();
                        (local, shard.finish(), faults)
                    })
                })
                .collect();
            start_flag.store(true, Ordering::Release);

            let mut all_responses = Vec::new();
            let mut sink = SinkStats::default();
            let mut faults_sum = ChannelFaultStats::default();
            let mut any_faulty = false;
            for worker in workers {
                let (local, stats, faults) = worker.join().expect("worker thread");
                all_responses.extend(local);
                sink.emitted += stats.emitted;
                sink.dropped_malformed += stats.dropped_malformed;
                sink.dropped_disconnected += stats.dropped_disconnected;
                sink.flushed_partial_frames += stats.flushed_partial_frames;
                sink.disconnected |= stats.disconnected;
                if let Some(f) = faults {
                    any_faulty = true;
                    faults_sum.delivered += f.delivered;
                    faults_sum.lost += f.lost;
                    faults_sum.duplicated += f.duplicated;
                    faults_sum.reordered += f.reordered;
                }
            }
            let elapsed = started.elapsed();
            let merge_stats = merge_stage.join().expect("merge+ingest stage");
            let report = check_stage.join().expect("check stage");
            let total_elapsed = started.elapsed();
            (
                all_responses,
                sink,
                any_faulty.then_some(faults_sum),
                merge_stats,
                report,
                elapsed,
                total_elapsed,
            )
        });

    let total_ops = options.threads.max(1) * options.ops_per_thread;
    let (duplicate_responses, max_staleness) = summarize_responses(&all_responses);
    PipelinedRun {
        run: CounterRun {
            history: None,
            elapsed,
            total_ops,
            throughput: total_ops as f64 / elapsed.as_secs_f64().max(f64::EPSILON),
            final_total: counter.exact_total(),
            duplicate_responses,
            max_staleness,
        },
        report,
        sink,
        merge: merge_stats,
        channel_faults,
        total_elapsed,
    }
}

/// Duplicate-response count and staleness bound of a fetch&inc response
/// multiset (see [`CounterRun::duplicate_responses`] /
/// [`CounterRun::max_staleness`]).
fn summarize_responses(responses: &[i64]) -> (usize, i64) {
    let mut sorted = responses.to_vec();
    sorted.sort_unstable();
    let duplicate_responses = sorted.windows(2).filter(|w| w[0] == w[1]).count();
    // Staleness proxy: after sorting, a linearizable counter returns exactly
    // 0..total_ops-1; the gap between the expected slot and the returned
    // value bounds how far behind the stale responses were.
    let max_staleness = sorted
        .iter()
        .enumerate()
        .map(|(i, &v)| i as i64 - v)
        .max()
        .unwrap_or(0)
        .max(0);
    (duplicate_responses, max_staleness)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::{CasCounter, FetchAddCounter, ShardedCounter};
    use evlin_checker::fi;

    fn options(threads: usize, ops: usize, record: bool) -> HarnessOptions {
        HarnessOptions {
            threads,
            ops_per_thread: ops,
            record_history: record,
        }
    }

    #[test]
    fn cas_counter_histories_are_linearizable() {
        let counter = CasCounter::new();
        let run = run_counter_workload(&counter, options(4, 200, true));
        assert_eq!(run.total_ops, 800);
        assert_eq!(run.final_total, 800);
        assert!(run.responses_distinct());
        assert_eq!(run.max_staleness, 0);
        let history = run.history.expect("recording was enabled");
        assert!(history.is_well_formed());
        assert_eq!(fi::is_linearizable(&history, 0), Ok(true));
    }

    #[test]
    fn fetch_add_counter_histories_are_linearizable() {
        let counter = FetchAddCounter::new();
        let run = run_counter_workload(&counter, options(4, 200, true));
        assert!(run.responses_distinct());
        let history = run.history.expect("recording was enabled");
        assert_eq!(fi::is_linearizable(&history, 0), Ok(true));
    }

    #[test]
    fn sharded_counter_converges_but_is_stale() {
        let counter = ShardedCounter::new(4, 64);
        let run = run_counter_workload(&counter, options(4, 500, true));
        // No increment is lost…
        assert_eq!(run.final_total, 2000);
        // …but responses repeat under contention (staleness).  This is
        // overwhelmingly likely with 4 threads and a refresh interval of 64;
        // if the scheduler serialized the threads perfectly the run would be
        // exact, so do not assert duplicates unconditionally — assert the
        // weaker invariant that staleness never exceeds what the refresh
        // interval allows.
        assert!(run.max_staleness <= 64 * 4);
        let history = run.history.expect("recording was enabled");
        assert!(history.is_well_formed());
        // The history is weakly consistent in the fetch&increment sense used
        // by the experiments: every returned value is at most the true count
        // at response time.  (Full weak-consistency checking on histories of
        // this size is done with the specialized checker in the experiments.)
        let t = fi::min_stabilization(&history, 0).expect("pure fetch&inc history");
        assert!(t <= history.len());
    }

    #[test]
    fn recording_can_be_disabled() {
        let counter = FetchAddCounter::new();
        let run = run_counter_workload(&counter, options(2, 100, false));
        assert!(run.history.is_none());
        assert_eq!(run.total_ops, 200);
        assert!(run.throughput > 0.0);
    }

    #[test]
    fn pipelined_monitor_verifies_linearizable_counters() {
        use evlin_checker::monitor::MonitorConfig;
        for counter in [
            Box::new(CasCounter::new()) as Box<dyn crate::counter::ConcurrentCounter>,
            Box::new(FetchAddCounter::new()),
        ] {
            let out = run_counter_workload_pipelined(
                counter.as_ref(),
                options(4, 300, false),
                MonitorConfig::default(),
                // Small frames so the run exercises many frame round trips
                // and a partial tail per shard.
                PipelineOptions {
                    frame_capacity: 32,
                    ring_frames: 4,
                },
            );
            assert!(
                out.report.verdict.is_ok(),
                "{}: {:?}",
                counter.name(),
                out.report
            );
            assert_eq!(out.report.stats.checked_ops, 1200);
            assert_eq!(out.report.stats.events, 2400);
            assert_eq!(out.sink.emitted, 2400);
            assert_eq!(out.sink.dropped_malformed, 0);
            assert!(!out.sink.disconnected);
            assert_eq!(out.merge.events, 2400);
            assert_eq!(out.merge.fingerprint_mismatches, 0);
            assert_eq!(out.merge.misordered_frames, 0);
            assert!(out.channel_faults.is_none());
            assert!(out.run.history.is_none(), "events stream, not buffer");
            assert!(out.checked_ops_per_sec() > 0.0);
            assert!(out.events_per_sec() > out.checked_ops_per_sec());
            // Sharded recording lets the workers interleave densely, so a
            // run may exhibit no mid-stream quiescent point at all — the
            // window can legitimately reach the full stream length, never
            // beyond.
            assert!(out.report.stats.peak_window_events <= 2400);
        }
    }

    #[test]
    fn pipelined_faulty_run_completes_and_reports_frame_faults() {
        use evlin_checker::monitor::MonitorConfig;
        let counter = FetchAddCounter::new();
        let out = run_counter_workload_pipelined_faulty(
            &counter,
            options(2, 400, false),
            MonitorConfig::default(),
            // Tiny frames: many frames in flight, so the per-frame fault
            // rates actually fire.
            PipelineOptions {
                frame_capacity: 4,
                ring_frames: 8,
            },
            FaultPlan {
                seed: 2014,
                lose: 128,
                duplicate: 128,
                reorder: 128,
            },
        );
        // The pipeline must terminate whatever the verdict — a corrupted
        // frame stream may be flagged, rejected event by event, or forgiven.
        let faults = out.channel_faults.expect("a faulty run reports faults");
        assert!(
            faults.lost + faults.duplicated + faults.reordered > 0,
            "the seeded plan injects something over ~400 frames: {faults:?}"
        );
        // The workload side is untouched by transport faults.
        assert_eq!(out.run.total_ops, 800);
        assert_eq!(out.run.final_total, 800);
        assert!(out.run.responses_distinct());
        // Fault injection moves whole frames but never rewrites them.
        assert_eq!(out.merge.fingerprint_mismatches, 0);
        assert!(out.merge.events <= out.sink.emitted + 4 * faults.duplicated);
        // Conservation, in frames: every full frame a shard shipped reached
        // the merge unless lost, and each duplication delivered one extra
        // copy.  (Each shard's 800 events fill exactly 200 frames of 4.)
        assert_eq!(
            out.merge.frames + faults.lost,
            out.sink.emitted / 4 + faults.duplicated
        );
    }

    #[test]
    fn transparent_pipelined_faults_match_the_clean_pipelined_path() {
        use evlin_checker::monitor::MonitorConfig;
        let counter = CasCounter::new();
        let out = run_counter_workload_pipelined_faulty(
            &counter,
            options(2, 150, false),
            MonitorConfig::default(),
            PipelineOptions::default(),
            FaultPlan::transparent(1),
        );
        assert!(out.report.verdict.is_ok(), "{:?}", out.report);
        assert_eq!(out.report.stats.checked_ops, 300);
        let faults = out.channel_faults.expect("still a faulty-sink run");
        assert_eq!(faults.lost + faults.duplicated + faults.reordered, 0);
        assert_eq!(faults.delivered, out.merge.frames);
        assert_eq!(out.merge.events, 600);
    }

    #[test]
    fn pipelined_monitor_flags_the_stale_sharded_counter_or_verifies_it() {
        use evlin_checker::monitor::{MonitorConfig, MonitorVerdict};
        // Under contention the sharded counter repeats responses, which the
        // online monitor must flag; a perfectly serialized run (possible on
        // a quiet machine) is genuinely linearizable, so accept both — what
        // is *not* acceptable is an Unknown.
        let counter = ShardedCounter::new(4, 16);
        let out = run_counter_workload_pipelined(
            &counter,
            options(4, 500, false),
            MonitorConfig::default(),
            PipelineOptions {
                frame_capacity: 64,
                ring_frames: 4,
            },
        );
        let duplicates = out.run.duplicate_responses;
        match out.report.verdict {
            MonitorVerdict::Ok => assert_eq!(duplicates, 0, "stale run must be flagged"),
            MonitorVerdict::Violation(_) => assert!(duplicates > 0),
            MonitorVerdict::Unknown => panic!("monitor gave up: {:?}", out.report),
        }
    }
}

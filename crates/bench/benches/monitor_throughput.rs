//! E11/E16 bench: sustained throughput of the online consistency monitor.
//!
//! Three complementary measurements:
//!
//! * `ingest` — the monitor alone, fed a pre-generated well-formed
//!   fetch&increment stream (no worker threads, no channel): the pure cost
//!   of quiescent-cut segmentation + per-segment checking, in events/s;
//! * `pipelined/p{N}` — the sharded, frame-batched, pipelined dataflow of
//!   E11/E16 (N recorder shards → k-way merge + quiescent-cut ingest → check
//!   stage), in checked-ops/s, with the producer count as the axis;
//!   `pipelined/p1` is the end-to-end runtime gate;
//! * `pipelined/merge` — the transport + merge alone (shards → `recv_sorted`
//!   drain, no monitor), in events/s: the ceiling the transport imposes.
//!
//! The CI `bench-gate` job compares the `ingest` and `pipelined` means
//! against the baselines committed in BENCH_checker.json.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use evlin_checker::monitor::{Monitor, MonitorConfig};
use evlin_history::{Event, HistoryBuilder, ObjectUniverse, ProcessId};
use evlin_runtime::counter::FetchAddCounter;
use evlin_runtime::harness::{run_counter_workload_pipelined, HarnessOptions, PipelineOptions};
use evlin_runtime::sharded_recorder;
use evlin_spec::{FetchIncrement, Value};

fn fi_universe() -> ObjectUniverse {
    let mut universe = ObjectUniverse::new();
    universe.add_object(FetchIncrement::new());
    universe
}

/// A well-formed fetch&increment stream of `ops` operations by `processes`
/// overlapping processes: rounds of concurrent invocations followed by their
/// responses, so quiescent cuts occur once per round.
fn overlapping_stream(ops: usize, processes: usize) -> Vec<Event> {
    let x = evlin_history::ObjectId(0);
    let mut b = HistoryBuilder::new();
    let mut value = 0i64;
    let mut done = 0usize;
    while done < ops {
        let round = processes.min(ops - done);
        for p in 0..round {
            b = b.invoke(ProcessId(p), x, FetchIncrement::fetch_inc());
        }
        for p in 0..round {
            b = b.respond(ProcessId(p), x, Value::from(value));
            value += 1;
        }
        done += round;
    }
    b.build().into_iter().collect()
}

fn monitor_config() -> MonitorConfig {
    MonitorConfig {
        min_segment_events: 256,
        segment_batch: 8,
        ..MonitorConfig::default()
    }
}

fn bench_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("monitor/ingest");
    for &ops in &[100_000usize, 1_000_000] {
        let events = overlapping_stream(ops, 4);
        group.throughput(Throughput::Elements(events.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(ops), &events, |b, events| {
            b.iter(|| {
                let mut monitor = Monitor::new(fi_universe(), monitor_config());
                monitor
                    .ingest_all(events.iter().cloned())
                    .expect("well-formed stream");
                let report = monitor.finish();
                assert!(report.verdict.is_ok());
                assert!(report.stats.peak_window_events < events.len() / 2);
                report
            });
        });
    }
    group.finish();
}

fn bench_pipelined(c: &mut Criterion) {
    let mut group = c.benchmark_group("monitor/pipelined");
    let total = 200_000usize;
    for &producers in &[1usize, 2, 4] {
        // Elements = completed operations, so the printed rate is
        // checked-ops/s.
        group.throughput(Throughput::Elements(total as u64));
        group.bench_with_input(
            BenchmarkId::new(format!("p{producers}"), total),
            &producers,
            |b, &producers| {
                b.iter(|| {
                    let counter = FetchAddCounter::new();
                    let out = run_counter_workload_pipelined(
                        &counter,
                        HarnessOptions {
                            threads: producers,
                            ops_per_thread: total / producers,
                            record_history: false,
                        },
                        monitor_config(),
                        PipelineOptions::default(),
                    );
                    assert!(out.report.verdict.is_ok());
                    assert_eq!(out.report.stats.checked_ops, total);
                    out
                });
            },
        );
    }
    // Transport ceiling: shards → k-way merge, no monitor downstream.
    // Elements = events (2 per op), so the printed rate is events/s.
    let producers = 4usize;
    let events = 2 * total;
    group.throughput(Throughput::Elements(events as u64));
    group.bench_with_input(
        BenchmarkId::new("merge", events),
        &producers,
        |b, &producers| {
            let x = evlin_history::ObjectId(0);
            b.iter(|| {
                let (shards, mut merge) = sharded_recorder(producers, 512, 8, None);
                std::thread::scope(|s| {
                    for (t, mut shard) in shards.into_iter().enumerate() {
                        s.spawn(move || {
                            for k in 0..(total / producers) as i64 {
                                shard.invoke(ProcessId(t), x, FetchIncrement::fetch_inc());
                                shard.respond(ProcessId(t), x, Value::from(k));
                            }
                        });
                    }
                    let mut out = Vec::new();
                    let mut seen = 0usize;
                    loop {
                        out.clear();
                        let n = merge.recv_sorted(&mut out, 4096);
                        if n == 0 {
                            break;
                        }
                        seen += n;
                    }
                    assert_eq!(seen, events);
                });
                merge.stats()
            });
        },
    );
    group.finish();
}

criterion_group!(monitor_throughput, bench_ingest, bench_pipelined);
criterion_main!(monitor_throughput);

//! E16 — pipelined, sharded, frame-batched runtime→monitor dataflow.
//!
//! E11 established online monitoring but paid one lock round and one condvar
//! notification *per event* on its single SPSC channel, capping end-to-end
//! checked throughput at a fraction of what the monitor kernel sustains
//! (~389k checked ops/s vs ~2.6M kernel events/s at the time it was
//! recorded).  This experiment measures the dataflow that closes the gap:
//! every worker thread records into its own frame-batched
//! [`evlin_runtime::RecorderShard`] (per-producer bounded ring, one channel
//! round per *frame*), a k-way merge restores global sequence order, and the
//! monitor runs as two overlapping stages — quiescent-cut ingest on the
//! merge thread, kernel checking on its own thread.
//!
//! The table sweeps producer count × frame size; each row's ratio is taken
//! against the one-producer row at the same frame size.  Verdicts are
//! bit-identical to the inline monitor's by construction
//! (`crates/runtime/tests/pipeline_differential.rs` proves it against the
//! offline kernel); only the synchronization cost per event changes.

use crate::Table;
use evlin_checker::monitor::{MonitorConfig, MonitorVerdict};
use evlin_runtime::counter::FetchAddCounter;
use evlin_runtime::harness::{run_counter_workload_pipelined, HarnessOptions, PipelineOptions};

fn verdict_label(verdict: &MonitorVerdict) -> &'static str {
    match verdict {
        MonitorVerdict::Ok => "linearizable",
        MonitorVerdict::Violation(_) => "violation",
        MonitorVerdict::Unknown => "unknown",
    }
}

fn monitor_config() -> MonitorConfig {
    MonitorConfig {
        min_segment_events: 256,
        segment_batch: 8,
        ..MonitorConfig::default()
    }
}

/// Runs experiment E16 and returns its tables.
pub fn run(quick: bool) -> Vec<Table> {
    let total_ops = if quick { 4_000 } else { 200_000 };
    let frame_sizes: &[usize] = if quick { &[64, 512] } else { &[64, 512, 2048] };
    let producer_counts: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4] };
    let mut table = Table::new(
        "E16 — pipelined sharded ingest: checked ops/s by producer count × \
         frame size (fetch-add counter, same total operations per row)",
        &[
            "producers",
            "frame",
            "ops",
            "verdict",
            "checked ops/s",
            "events/s",
            "merge frames",
            "partial frames",
            "vs p1 at this frame",
        ],
    );

    // Checked ops/s of the one-producer row at each frame size (the first
    // producer count is 1, so these fill before any ratio is taken).
    let mut p1_rates = vec![0.0f64; frame_sizes.len()];
    for &producers in producer_counts {
        for (i, &frame_capacity) in frame_sizes.iter().enumerate() {
            let out = run_counter_workload_pipelined(
                &FetchAddCounter::new(),
                HarnessOptions {
                    threads: producers,
                    ops_per_thread: total_ops / producers,
                    record_history: false,
                },
                monitor_config(),
                PipelineOptions {
                    frame_capacity,
                    ring_frames: 8,
                },
            );
            if producers == 1 {
                p1_rates[i] = out.checked_ops_per_sec();
            }
            table.push_row([
                producers.to_string(),
                frame_capacity.to_string(),
                out.run.total_ops.to_string(),
                verdict_label(&out.report.verdict).to_string(),
                format!("{:.0}", out.checked_ops_per_sec()),
                format!("{:.0}", out.events_per_sec()),
                out.merge.frames.to_string(),
                out.sink.flushed_partial_frames.to_string(),
                format!(
                    "{:.2}x",
                    out.checked_ops_per_sec() / p1_rates[i].max(f64::EPSILON)
                ),
            ]);
        }
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_row_verifies_online_and_counts_add_up() {
        let tables = run(true);
        let rows = &tables[0].rows;
        // Producers × frame sizes.
        assert_eq!(rows.len(), 2 * 2);
        for row in rows {
            assert_eq!(row[3], "linearizable", "{row:?}");
            assert_eq!(row[2], "4000", "{row:?}");
        }
        // Every row shipped at least one frame, and each shard flushed a
        // partial tail exactly when its stream does not divide into whole
        // frames.
        for row in rows {
            assert!(row[6].parse::<usize>().unwrap() > 0, "{row:?}");
            let producers: usize = row[0].parse().unwrap();
            let frame: usize = row[1].parse().unwrap();
            let events_per_shard = 2 * (4_000 / producers);
            let expected_partials = if events_per_shard.is_multiple_of(frame) {
                0
            } else {
                producers
            };
            assert_eq!(
                row[7].parse::<usize>().unwrap(),
                expected_partials,
                "{row:?}"
            );
        }
        // The one-producer rows are their own baseline.
        for row in rows.iter().filter(|row| row[0] == "1") {
            assert_eq!(row[8], "1.00x", "{row:?}");
        }
    }
}

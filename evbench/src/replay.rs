//! Per-layer replay of a service run: each shard's accepted stream goes
//! through the public entry point of every layer in turn, one traced span
//! per chunk.  The order follows the live path: record into frames and
//! k-way merge (`evlin-runtime`), wire encode and decode, shard routing,
//! monitor ingest and check (`evlin-checker`), and the journal append for
//! the durable workload.

use crate::trace::Tracer;
use evlin_checker::monitor::{stages, MonitorConfig, ShardRouter};
use evlin_history::{Event, EventKind, ObjectUniverse};
use evlin_runtime::sharded_recorder;
use evlin_service::wire::{decode_frame, encode_frame, event_batch_fingerprint, WireFrame};
use evlin_service::Journal;
use std::path::Path;

/// In-flight frames of the replay's recorder ring; recording stops one
/// frame short of it before draining, so the single thread never blocks.
const RING_FRAMES: usize = 8;

/// Layer entry points' settings, as the live run used them.
pub struct ReplaySetup<'a> {
    pub universe: &'a ObjectUniverse,
    pub monitor: MonitorConfig,
    /// Events per frame inside the runtime recorder and merge.
    pub ring_frame_capacity: usize,
    /// Events per client wire frame (and journal record).
    pub wire_frame_capacity: usize,
    /// Where to journal the frames, for the durable workload.
    pub journal_dir: Option<&'a Path>,
}

/// Work counts of one replay.
#[derive(Default)]
pub struct ReplayCounts {
    pub events: u64,
    pub merge_frames: u64,
    pub wire_bytes: u64,
    pub journal_frames: u64,
    pub journal_bytes: u64,
    pub segments: u64,
}

/// Replays every shard stream; an `Err` names the layer that disagreed
/// with the live run.
pub fn replay(
    setup: &ReplaySetup,
    streams: &[Vec<Event>],
    tracer: &mut Tracer,
) -> Result<ReplayCounts, String> {
    let mut counts = ReplayCounts::default();
    let router = ShardRouter::new(setup.monitor.condition, streams.len());
    for (shard, stream) in streams.iter().enumerate() {
        counts.events += stream.len() as u64;
        let merged = record_and_merge(setup, stream, tracer, &mut counts);
        if merged.len() != stream.len() {
            return Err(format!(
                "shard {shard}: merge emitted {} of {} events",
                merged.len(),
                stream.len()
            ));
        }
        let mut journal = match setup.journal_dir {
            Some(dir) => {
                let path = dir.join(format!("replay-{shard}.evjl"));
                let _ = std::fs::remove_file(&path);
                Some(
                    Journal::create(&path, 0, 1 + shard as u64)
                        .map_err(|e| format!("journal create: {e:?}"))?,
                )
            }
            None => None,
        };
        let (mut ingest, mut check) = stages(setup.universe.clone(), setup.monitor);
        for (frame_seq, chunk) in merged.chunks(setup.wire_frame_capacity).enumerate() {
            let (bytes, fingerprint) = tracer.span("service.wire.encode", |_| {
                let events = chunk.to_vec();
                let fingerprint = event_batch_fingerprint(0, &events);
                let bytes = encode_frame(&WireFrame::Events {
                    client: 0,
                    frame_seq: frame_seq as u64,
                    events,
                    fingerprint,
                });
                (bytes, fingerprint)
            });
            counts.wire_bytes += bytes.len() as u64;
            let decoded = tracer.span("service.wire.decode", |_| decode_frame(&bytes));
            let Ok(WireFrame::Events { events, .. }) = decoded else {
                return Err(format!(
                    "shard {shard}: frame {frame_seq} decoded to {decoded:?}"
                ));
            };
            if let Some(journal) = journal.as_mut() {
                tracer
                    .span("service.journal.append", |_| {
                        journal.append_events(&bytes, events.len() as u64, fingerprint)
                    })
                    .map_err(|e| format!("journal append: {e:?}"))?;
                counts.journal_frames += 1;
            }
            let misrouted = tracer.span("service.route", |_| {
                events
                    .iter()
                    .filter(|(_, e)| router.route(e.object) != shard)
                    .count()
            });
            if misrouted > 0 {
                return Err(format!("shard {shard}: {misrouted} events route elsewhere"));
            }
            let ingested: Result<(), _> = tracer.span("checker.monitor.ingest", |_| {
                events.into_iter().try_for_each(|(_, e)| ingest.ingest(e))
            });
            ingested.map_err(|e| format!("shard {shard}: ingest: {e}"))?;
            if let Some(batch) = ingest.take_ready_batch() {
                tracer.span("checker.monitor.check", |_| check.check_batch(batch));
            }
        }
        let report = tracer.span("checker.monitor.check", |_| {
            let (tail, summary) = ingest.finish();
            check.finish(tail, summary)
        });
        if !report.verdict.is_ok() || report.stats.events != stream.len() {
            return Err(format!(
                "shard {shard}: replayed monitor says {:?} over {} events",
                report.verdict, report.stats.events
            ));
        }
        counts.segments += report.stats.segments as u64;
        if let Some(journal) = journal {
            counts.journal_bytes += std::fs::metadata(journal.path())
                .map_err(|e| format!("journal size: {e}"))?
                .len();
        }
    }
    Ok(counts)
}

/// Records `stream` through a one-producer sharded recorder and drains the
/// k-way merge after every few frames.
fn record_and_merge(
    setup: &ReplaySetup,
    stream: &[Event],
    tracer: &mut Tracer,
    counts: &mut ReplayCounts,
) -> Vec<(u64, evlin_history::Event)> {
    let capacity = setup.ring_frame_capacity;
    let (mut shards, mut merge) = sharded_recorder(1, capacity, RING_FRAMES, None);
    let mut recorder = shards.pop().expect("one producer was asked for");
    let mut merged = Vec::with_capacity(stream.len());
    for part in stream.chunks(capacity * (RING_FRAMES - 1)) {
        tracer.span("runtime.record", |_| {
            for e in part {
                match &e.kind {
                    EventKind::Invoke(inv) => recorder.invoke(e.process, e.object, inv.clone()),
                    EventKind::Respond(v) => recorder.respond(e.process, e.object, v.clone()),
                }
            }
            recorder.flush();
        });
        tracer.span("runtime.merge", |_| {
            let mut got = 0;
            while got < part.len() {
                let n = merge.recv_sorted(&mut merged, part.len() - got);
                if n == 0 {
                    break;
                }
                got += n;
            }
        });
    }
    drop(recorder);
    counts.merge_frames += merge.stats().frames as u64;
    merged
}

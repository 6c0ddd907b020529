//! Recording histories from real threads.

use crate::channel::sharded::{self, FrameMerge, FrameSender};
use crate::fault::{ChannelFaultStats, FaultPlan};
use evlin_history::{Event, EventKind, History, ObjectId, ProcessId};
use evlin_spec::{Invocation, Value};
use parking_lot::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// A concurrent event recorder: the offline history recorder behind
/// [`crate::harness::run_counter_workload`].
///
/// Threads call [`Recorder::invoke`] right before starting an operation and
/// [`Recorder::respond`] right after obtaining its response.  Events receive
/// globally unique, monotonically increasing sequence numbers from an atomic
/// counter, and the final history orders events by that sequence number, so
/// the recorded real-time order is consistent with what each thread observed.
///
/// Recording costs one atomic increment plus one short critical section per
/// event; the experiments that measure raw throughput therefore also support
/// running with recording disabled.  Live checking streams through
/// [`RecorderShard`]s instead (see [`sharded_recorder`]).
pub struct Recorder {
    next: AtomicUsize,
    /// `(seq, event)` pairs in arrival order, sorted on extraction.
    retained: Mutex<Vec<(usize, Event)>>,
}

/// Counters describing what a [`RecorderShard`] delivered to its sink.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SinkStats {
    /// Events delivered to the sink.
    pub emitted: usize,
    /// Events dropped because emitting them would have made the stream
    /// ill-formed (orphan responses, double invocations by a misbehaving
    /// caller).
    pub dropped_malformed: usize,
    /// Whether the sink hung up before the stream ended.
    pub disconnected: bool,
    /// Events swallowed because the sink had already hung up.  A hang-up can
    /// race the closing flush, so delivery failures there are *counted*
    /// rather than panicking inside `Drop`.
    pub dropped_disconnected: usize,
    /// Frames shipped below capacity: the stream tail (and explicit flushes)
    /// must reach the sink *before* the disconnect-swallowing path runs, and
    /// this counter proves the partial flush happened instead of a silent
    /// truncation.
    pub flushed_partial_frames: usize,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Recorder")
            .field("events", &self.retained.lock().len())
            .finish()
    }
}

impl Recorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Recorder {
            next: AtomicUsize::new(0),
            retained: Mutex::new(Vec::new()),
        }
    }

    fn record(&self, event: Event) {
        let seq = self.next.fetch_add(1, Ordering::SeqCst);
        self.retained.lock().push((seq, event));
    }

    /// Records an invocation event by `process` on `object`.
    pub fn invoke(&self, process: ProcessId, object: ObjectId, invocation: Invocation) {
        self.record(Event::invoke(process, object, invocation));
    }

    /// Records a response event by `process` on `object`.
    pub fn respond(&self, process: ProcessId, object: ObjectId, value: Value) {
        self.record(Event::respond(process, object, value));
    }

    /// Number of events recorded so far (sequence numbers handed out).
    pub fn len(&self) -> usize {
        self.next.load(Ordering::SeqCst)
    }

    /// Whether no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Extracts the recorded history, ordered by sequence number.
    pub fn into_history(self) -> History {
        sorted_history(self.retained.into_inner())
    }

    /// Clones the recorded history without consuming the recorder.
    pub fn snapshot(&self) -> History {
        sorted_history(self.retained.lock().clone())
    }
}

fn sorted_history(mut events: Vec<(usize, Event)>) -> History {
    events.sort_by_key(|(seq, _)| *seq);
    History::from_events(events.into_iter().map(|(_, e)| e).collect())
}

/// A destination for sequence-stamped events — the seam between recording
/// and transport.
///
/// The frame-batched [`FrameSender`] is the in-process implementation; the
/// monitoring *service* (`evlin-service`) implements the same trait over its
/// wire codec, so a [`RecorderShard`] can stream straight into a remote
/// monitor replica without the recording side knowing which transport sits
/// underneath.  Implementations receive events already well-formed and in
/// the producer's local order; `seq` values come from the shared global
/// counter and are strictly increasing per producer.
pub trait EventSink {
    /// Accepts one sequence-stamped event.
    fn accept(&mut self, seq: u64, event: Event);
    /// Pushes any buffered events toward the consumer now.
    fn flush(&mut self);
}

impl EventSink for FrameSender<Event> {
    fn accept(&mut self, seq: u64, event: Event) {
        self.push(seq, event);
    }

    fn flush(&mut self) {
        FrameSender::flush(self);
    }
}

/// One producer's handle of a sharded, frame-batched recorder
/// (see [`sharded_recorder`]).
///
/// A shard is owned by exactly one recording thread: recording is a shared
/// atomic sequence fetch plus a local vector push, and the channel is
/// touched once per *frame*.  The shard runs a well-formedness filter (no
/// double invocations, no orphan responses) and filters *before* allocating
/// a sequence number, so a clean shard stream has no gaps and the merge's
/// output needs no gap-skipping pass.
///
/// The shard is generic over its [`EventSink`] (defaulting to the in-process
/// [`FrameSender`]); `evlin-service` plugs its wire-encoding client sink in
/// here, which is how one recording path serves both the in-process pipeline
/// and the networked service.
///
/// Contract: all events of a given process must go through the same shard
/// (the harness maps one worker thread to one shard); the per-shard pending
/// filter is exactly the global one under that mapping.
pub struct RecorderShard<S: EventSink = FrameSender<Event>> {
    seq: Arc<AtomicU64>,
    sender: S,
    /// Pending `(process, object)` pairs on this shard — a couple of
    /// entries, so a linear scan beats any map.
    pending: Vec<(ProcessId, ObjectId)>,
    dropped_malformed: usize,
}

impl<S: EventSink> RecorderShard<S> {
    /// Builds a shard that filters, sequence-stamps (from the shared
    /// counter) and forwards into `sink` — the recorder→client adapter used
    /// by the monitoring service.
    pub fn over(seq: Arc<AtomicU64>, sink: S) -> Self {
        RecorderShard {
            seq,
            sender: sink,
            pending: Vec::new(),
            dropped_malformed: 0,
        }
    }

    /// Records an invocation event by `process` on `object`.
    pub fn invoke(&mut self, process: ProcessId, object: ObjectId, invocation: Invocation) {
        self.record(Event::invoke(process, object, invocation));
    }

    /// Records a response event by `process` on `object`.
    pub fn respond(&mut self, process: ProcessId, object: ObjectId, value: Value) {
        self.record(Event::respond(process, object, value));
    }

    fn record(&mut self, event: Event) {
        match &event.kind {
            EventKind::Invoke(_) => {
                if self.pending.iter().any(|(p, _)| *p == event.process) {
                    self.dropped_malformed += 1;
                    return;
                }
                self.pending.push((event.process, event.object));
            }
            EventKind::Respond(_) => {
                match self
                    .pending
                    .iter()
                    .position(|(p, o)| *p == event.process && *o == event.object)
                {
                    Some(i) => {
                        self.pending.swap_remove(i);
                    }
                    None => {
                        self.dropped_malformed += 1;
                        return;
                    }
                }
            }
        }
        let seq = self.seq.fetch_add(1, Ordering::SeqCst);
        self.sender.accept(seq, event);
    }

    /// Ships buffered events now instead of waiting for a frame to fill.
    pub fn flush(&mut self) {
        self.sender.flush();
    }

    /// Events dropped by the well-formedness filter so far.
    pub fn dropped_malformed(&self) -> usize {
        self.dropped_malformed
    }

    /// Closes the shard, flushing buffered events, and hands the sink back
    /// together with the filter's drop count.
    pub fn into_sink(mut self) -> (S, usize) {
        self.sender.flush();
        (self.sender, self.dropped_malformed)
    }
}

impl RecorderShard<FrameSender<Event>> {
    /// Frame-granularity fault counters, if this shard streams through a
    /// faulty link.
    pub fn fault_stats(&self) -> Option<ChannelFaultStats> {
        self.sender.fault_stats()
    }

    /// Closes the shard: the partially-filled tail frame is flushed (and
    /// counted) *before* the sender hangs up — the frame-path ordering that
    /// keeps a shutdown from silently truncating the tail — and the sink
    /// counters come back in [`SinkStats`] form.
    pub fn finish(mut self) -> SinkStats {
        self.sender.flush();
        let s = self.sender.stats();
        SinkStats {
            emitted: s.events_sent,
            dropped_malformed: self.dropped_malformed,
            disconnected: s.disconnected,
            dropped_disconnected: s.dropped_disconnected,
            flushed_partial_frames: s.partial_frames,
        }
    }
}

/// Builds a sharded, frame-batched recording pipeline: one [`RecorderShard`]
/// per producer thread, a shared global sequence counter, and the k-way
/// [`FrameMerge`] whose `recv_sorted` output is the global,
/// sequence-ordered event stream, at a per-frame synchronization cost.  With
/// a `plan`, every shard streams through its own seed-derived frame-level
/// fault injector ([`FaultPlan::for_shard`]).
pub fn sharded_recorder(
    producers: usize,
    frame_capacity: usize,
    ring_frames: usize,
    plan: Option<FaultPlan>,
) -> (Vec<RecorderShard>, FrameMerge<Event>) {
    let (senders, merge) = sharded::sharded(producers, ring_frames, frame_capacity, plan);
    let seq = Arc::new(AtomicU64::new(0));
    let shards = senders
        .into_iter()
        .map(|sender| RecorderShard {
            seq: Arc::clone(&seq),
            sender,
            pending: Vec::new(),
            dropped_malformed: 0,
        })
        .collect();
    (shards, merge)
}

#[cfg(test)]
mod tests {
    use super::*;
    use evlin_spec::FetchIncrement;
    use std::sync::Arc;

    #[test]
    fn records_in_sequence_order() {
        let r = Recorder::new();
        let o = ObjectId(0);
        r.invoke(ProcessId(0), o, FetchIncrement::fetch_inc());
        r.respond(ProcessId(0), o, Value::from(0i64));
        r.invoke(ProcessId(1), o, FetchIncrement::fetch_inc());
        r.respond(ProcessId(1), o, Value::from(1i64));
        assert_eq!(r.len(), 4);
        assert!(!r.is_empty());
        let h = r.into_history();
        assert!(h.is_well_formed());
        assert_eq!(h.complete_operations().len(), 2);
    }

    #[test]
    fn concurrent_recording_produces_well_formed_histories() {
        let r = Arc::new(Recorder::new());
        let o = ObjectId(0);
        std::thread::scope(|s| {
            for t in 0..4usize {
                let r = Arc::clone(&r);
                s.spawn(move || {
                    for k in 0..50i64 {
                        r.invoke(ProcessId(t), o, FetchIncrement::fetch_inc());
                        r.respond(ProcessId(t), o, Value::from(k));
                    }
                });
            }
        });
        let h = Arc::try_unwrap(r)
            .expect("all threads joined")
            .into_history();
        assert_eq!(h.len(), 4 * 50 * 2);
        assert!(h.is_well_formed());
    }

    #[test]
    fn snapshot_does_not_consume() {
        let r = Recorder::new();
        let o = ObjectId(0);
        r.invoke(ProcessId(0), o, FetchIncrement::fetch_inc());
        let snap = r.snapshot();
        assert_eq!(snap.len(), 1);
        r.respond(ProcessId(0), o, Value::from(0i64));
        assert_eq!(r.snapshot().len(), 2);
        assert!(r.snapshot().is_well_formed());
    }

    #[test]
    fn empty_recorder_yields_empty_history() {
        let r = Recorder::new();
        assert!(r.is_empty());
        assert!(r.into_history().is_empty());
    }

    #[test]
    fn sharded_recorder_streams_the_same_well_formed_order() {
        let (shards, mut merge) = sharded_recorder(4, 8, 16, None);
        let o = ObjectId(0);
        let (events, stats): (Vec<Event>, Vec<SinkStats>) = std::thread::scope(|s| {
            let workers: Vec<_> = shards
                .into_iter()
                .enumerate()
                .map(|(t, mut shard)| {
                    s.spawn(move || {
                        for k in 0..25i64 {
                            shard.invoke(ProcessId(t), o, FetchIncrement::fetch_inc());
                            shard.respond(ProcessId(t), o, Value::from(k));
                        }
                        shard.finish()
                    })
                })
                .collect();
            let mut out = Vec::new();
            while merge.recv_sorted(&mut out, 256) > 0 {}
            (
                out.into_iter().map(|(_, e)| e).collect(),
                workers
                    .into_iter()
                    .map(|w| w.join().expect("worker"))
                    .collect(),
            )
        });
        let h = History::from_events(events);
        assert_eq!(h.len(), 200);
        assert!(h.is_well_formed());
        assert_eq!(stats.iter().map(|s| s.emitted).sum::<usize>(), 200);
        assert_eq!(stats.iter().map(|s| s.dropped_malformed).sum::<usize>(), 0);
        // 25 ops = 50 events per shard at capacity 8: a partial tail each.
        assert!(stats.iter().all(|s| s.flushed_partial_frames >= 1));
        assert_eq!(merge.stats().fingerprint_mismatches, 0);
        assert_eq!(merge.stats().misordered_frames, 0);
    }

    #[test]
    fn shard_finish_flushes_the_partial_tail_before_hanging_up() {
        // The satellite fix, pinned: a tail frame below capacity must reach
        // a live sink (counted as a flushed-partial frame), and only a sink
        // that *already* hung up may swallow it (counted, never panicking).
        let (mut shards, mut merge) = sharded_recorder(1, 64, 4, None);
        let shard = {
            let mut shard = shards.pop().unwrap();
            let o = ObjectId(0);
            shard.invoke(ProcessId(0), o, FetchIncrement::fetch_inc());
            shard.respond(ProcessId(0), o, Value::from(0i64));
            shard
        };
        // Live sink: finish ships the 2-event partial frame.
        let stats = shard.finish();
        assert_eq!(stats.emitted, 2);
        assert_eq!(stats.flushed_partial_frames, 1);
        assert!(!stats.disconnected);
        let mut out = Vec::new();
        assert_eq!(merge.recv_sorted(&mut out, 16), 2);
        // Dead sink: the flush is swallowed and counted, not truncated away
        // silently and not a panic.
        let (mut shards, merge) = sharded_recorder(1, 64, 4, None);
        let mut shard = shards.pop().unwrap();
        let o = ObjectId(0);
        shard.invoke(ProcessId(0), o, FetchIncrement::fetch_inc());
        drop(merge);
        let stats = shard.finish();
        assert_eq!(stats.emitted, 0);
        assert_eq!(stats.flushed_partial_frames, 1);
        assert!(stats.disconnected);
        assert_eq!(stats.dropped_disconnected, 1);
    }

    #[test]
    fn shard_filters_malformed_events_before_numbering() {
        let (mut shards, mut merge) = sharded_recorder(1, 4, 16, None);
        let mut shard = shards.pop().unwrap();
        let o = ObjectId(0);
        shard.invoke(ProcessId(0), o, FetchIncrement::fetch_inc());
        // Double invoke and an orphan response: dropped *before* a sequence
        // number is burned, so the emitted stream is gapless and well-formed.
        shard.invoke(ProcessId(0), o, FetchIncrement::fetch_inc());
        shard.respond(ProcessId(1), o, Value::from(9i64));
        shard.respond(ProcessId(0), o, Value::from(0i64));
        let stats = shard.finish();
        assert_eq!(stats.dropped_malformed, 2);
        assert_eq!(stats.emitted, 2);
        let mut out = Vec::new();
        assert_eq!(merge.recv_sorted(&mut out, 16), 2);
        let seqs: Vec<u64> = out.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![0, 1], "no gaps from filtered events");
        assert!(History::from_events(out.into_iter().map(|(_, e)| e).collect()).is_well_formed());
    }

    #[test]
    fn shard_finish_ships_an_open_operation_as_a_pending_invocation() {
        let (mut shards, mut merge) = sharded_recorder(1, 64, 4, None);
        let mut shard = shards.pop().unwrap();
        let o = ObjectId(0);
        shard.invoke(ProcessId(0), o, FetchIncrement::fetch_inc());
        shard.respond(ProcessId(0), o, Value::from(0i64));
        // An operation still in flight when the shard closes...
        shard.invoke(ProcessId(1), o, FetchIncrement::fetch_inc());
        let stats = shard.finish();
        assert_eq!(stats.emitted, 3);
        assert_eq!(stats.dropped_malformed, 0);
        let mut out = Vec::new();
        while merge.recv_sorted(&mut out, 16) > 0 {}
        // ...reaches the merge as a *pending* invocation, not a truncation.
        let h = History::from_events(out.into_iter().map(|(_, e)| e).collect());
        assert!(h.is_well_formed());
        assert_eq!(h.len(), 3);
        assert_eq!(h.pending_operations().len(), 1);
    }
}

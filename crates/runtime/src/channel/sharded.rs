//! Per-producer, frame-batched rings with a k-way sequence merge.
//!
//! Sending every event through one bounded [`crate::channel`] would pay one
//! lock round and one condvar notification *per event*; at millions of
//! events per second that traffic would dominate the monitored runtime.
//! This module is the sharded transport of the pipelined ingest path:
//!
//! * every producer owns a [`FrameSender`] writing into its **own** bounded
//!   ring, so producers never contend with each other — only with the
//!   consumer draining their ring;
//! * events are shipped in fixed-capacity [`Frame`]s whose buffers are
//!   recycled through a shared [`FramePool`], so the steady state allocates
//!   nothing and pays one channel round trip per *frame*;
//! * each item carries the producer-assigned global sequence number, and a
//!   [`FrameMerge`] on the consumer side k-way-merges the per-shard streams
//!   back into global sequence order at an O(k) head comparison per *run*
//!   of consecutive items;
//! * every frame carries a fingerprint of its sequence run
//!   (`evlin_sim::zobrist::fold_words`), verified on arrival, so transport
//!   bugs surface as counted mismatches instead of silent misorderings —
//!   the same discipline as the stabilizing data-link constructions for
//!   non-FIFO channels, where sequence tags are what let the receiver
//!   reconstruct the sender's order.
//!
//! Deadlock-freedom: a producer blocks only on its **own** full ring, and
//! the merge blocks only on an **empty open** ring; draining one ring never
//! requires a different producer to make progress, so as long as every
//! producer eventually flushes or hangs up, the merge terminates.
//!
//! Transient faults compose at *frame* granularity: pass a
//! [`FaultPlan`] and each shard's ring runs behind
//! its own seeded [`FaultySender`]`<Frame<T>>` that loses, duplicates or
//! adjacently reorders whole frames, with the usual conservation-checked
//! stats (`delivered + lost == frames + duplicated`, in frames).  The merge
//! tolerates the resulting per-shard disorder — misordered frames are
//! counted and emitted by head sequence anyway — and the monitor's
//! well-formedness filter downstream decides what survives.

use crate::channel::{self, Receiver, SendError, Sender};
use crate::fault::{ChannelFaultStats, FaultPlan, FaultySender};
use evlin_sim::zobrist;
use parking_lot::Mutex;
use std::sync::Arc;

/// Upper bound on buffers parked in a [`FramePool`]; beyond it, spent
/// buffers are simply dropped (the pool is an allocation damper, not a leak).
const POOL_LIMIT: usize = 64;

/// One batch of sequence-stamped items from a single producer.
///
/// `fingerprint` covers the sequence run (seeded with the producer index) so
/// the receiving side can verify the frame arrived intact and attributable.
pub struct Frame<T> {
    /// Index of the producing shard.
    pub producer: usize,
    /// The `(global sequence number, item)` run, in send order.
    pub items: Vec<(u64, T)>,
    /// `fold_words(producer, sequence numbers)` at send time.
    pub fingerprint: u64,
}

impl<T: Clone> Clone for Frame<T> {
    fn clone(&self) -> Self {
        Frame {
            producer: self.producer,
            items: self.items.clone(),
            fingerprint: self.fingerprint,
        }
    }
}

impl<T> Frame<T> {
    /// Computes the fingerprint the frame *should* carry given its contents.
    fn expected_fingerprint(&self, scratch: &mut Vec<u64>) -> u64 {
        scratch.clear();
        scratch.extend(self.items.iter().map(|(seq, _)| *seq));
        zobrist::fold_words(self.producer as u64, scratch)
    }
}

/// A shared pool of spent frame buffers, so the steady-state path reuses
/// allocations: the merge returns drained buffers here and every
/// [`FrameSender`] draws its next buffer from the same pool.
pub struct FramePool<T> {
    bufs: Arc<Mutex<Vec<FrameBuf<T>>>>,
}

/// One frame's backing storage: `(sequence, item)` pairs in push order.
type FrameBuf<T> = Vec<(u64, T)>;

impl<T> Clone for FramePool<T> {
    fn clone(&self) -> Self {
        FramePool {
            bufs: Arc::clone(&self.bufs),
        }
    }
}

impl<T> Default for FramePool<T> {
    fn default() -> Self {
        FramePool {
            bufs: Arc::new(Mutex::new(Vec::new())),
        }
    }
}

impl<T> FramePool<T> {
    /// Takes a cleared buffer from the pool, or allocates one.
    fn get(&self, capacity: usize) -> Vec<(u64, T)> {
        self.bufs
            .lock()
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(capacity))
    }

    /// Returns a spent buffer (cleared here) for reuse.
    fn put(&self, mut buf: Vec<(u64, T)>) {
        buf.clear();
        let mut bufs = self.bufs.lock();
        if bufs.len() < POOL_LIMIT {
            bufs.push(buf);
        }
    }
}

/// Counters for one [`FrameSender`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameSenderStats {
    /// Frames handed to the link (including frames the fault plan then lost).
    pub frames_sent: usize,
    /// Items inside those frames.
    pub events_sent: usize,
    /// Frames flushed below capacity (the stream tail, or explicit flushes).
    pub partial_frames: usize,
    /// Items swallowed because the ring's receiver had already hung up.
    pub dropped_disconnected: usize,
    /// Whether the ring's receiver hung up before the stream ended.
    pub disconnected: bool,
}

/// The per-shard link: the ring's sender, bare or behind the frame-level
/// fault injector.
enum FrameSink<T: Clone> {
    Clean(Sender<Frame<T>>),
    Faulty(FaultySender<Frame<T>>),
}

/// The producer half of one shard: accumulates sequence-stamped items into a
/// pooled frame and ships the frame when full (or on [`FrameSender::flush`]
/// / drop).  Not `Sync` by design — one producer thread per shard is the
/// whole point.
pub struct FrameSender<T: Clone> {
    sink: FrameSink<T>,
    pool: FramePool<T>,
    producer: usize,
    frame_capacity: usize,
    buf: Vec<(u64, T)>,
    seq_scratch: Vec<u64>,
    stats: FrameSenderStats,
}

impl<T: Clone> FrameSender<T> {
    /// Appends one sequence-stamped item, shipping the frame if it is full.
    /// Blocks (back-pressure) only while this shard's own ring is full.
    pub fn push(&mut self, seq: u64, item: T) {
        self.buf.push((seq, item));
        if self.buf.len() >= self.frame_capacity {
            self.flush();
        }
    }

    /// Ships the current frame even if partially filled.  A partial frame is
    /// counted in [`FrameSenderStats::partial_frames`]; a hung-up ring
    /// swallows (and counts) the items instead of panicking, so flushing
    /// from `Drop` is always safe — and the flush happens *before* the
    /// disconnect-swallowing path, so a live receiver always gets the tail.
    pub fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        if self.buf.len() < self.frame_capacity {
            self.stats.partial_frames += 1;
        }
        let items = std::mem::replace(&mut self.buf, self.pool.get(self.frame_capacity));
        let events = items.len();
        let mut frame = Frame {
            producer: self.producer,
            items,
            fingerprint: 0,
        };
        frame.fingerprint = frame.expected_fingerprint(&mut self.seq_scratch);
        let result = match &mut self.sink {
            FrameSink::Clean(sender) => sender.send(frame),
            FrameSink::Faulty(faulty) => faulty.send(frame),
        };
        match result {
            Ok(()) => {
                self.stats.frames_sent += 1;
                self.stats.events_sent += events;
            }
            Err(SendError::Disconnected(frame)) => {
                self.stats.disconnected = true;
                self.stats.dropped_disconnected += frame.items.len();
                self.pool.put(frame.items);
            }
        }
    }

    /// Items buffered locally, not yet shipped into the ring.  Together with
    /// [`FrameSender::try_flush`] this is the back-pressure *probe*: a
    /// caller that must never block (a service connection handler shedding
    /// load) tries a non-blocking flush and measures what stayed behind.
    pub fn buffered_len(&self) -> usize {
        self.buf.len()
    }

    /// Ships the buffered frame only if the ring can take it right now.
    /// Returns `true` when the buffer is empty afterwards (shipped, or
    /// nothing to ship); `false` means the ring was full and the items
    /// remain buffered — nothing blocks, nothing is lost.  Only the clean
    /// sink supports this; a fault-injected link reports `false` rather
    /// than bypass its schedule.
    pub fn try_flush(&mut self) -> bool {
        if self.buf.is_empty() {
            return true;
        }
        let FrameSink::Clean(sender) = &self.sink else {
            return false;
        };
        if self.buf.len() < self.frame_capacity {
            self.stats.partial_frames += 1;
        }
        let items = std::mem::replace(&mut self.buf, self.pool.get(self.frame_capacity));
        let events = items.len();
        let mut frame = Frame {
            producer: self.producer,
            items,
            fingerprint: 0,
        };
        frame.fingerprint = frame.expected_fingerprint(&mut self.seq_scratch);
        match sender.try_send(frame) {
            Ok(()) => {
                self.stats.frames_sent += 1;
                self.stats.events_sent += events;
                true
            }
            Err(channel::TrySendError::Full(frame)) => {
                // Undo: the items go back to being the local buffer.  The
                // partial-frame count stays — the *attempt* was partial —
                // which at worst double-counts a retried flush.
                let spent = std::mem::replace(&mut self.buf, frame.items);
                self.pool.put(spent);
                false
            }
            Err(channel::TrySendError::Disconnected(frame)) => {
                self.stats.disconnected = true;
                self.stats.dropped_disconnected += frame.items.len();
                self.pool.put(frame.items);
                true
            }
        }
    }

    /// Appends one sequence-stamped item *without* ever shipping, even past
    /// `frame_capacity` — the frame rings accept frames of any size.  The
    /// never-block companion to [`FrameSender::try_flush`]: a caller that
    /// bounds `buffered_len` itself (shedding load above a threshold) can
    /// buffer-then-try-flush and provably never wait on the ring.
    pub fn push_buffered(&mut self, seq: u64, item: T) {
        self.buf.push((seq, item));
    }

    /// Drops the locally buffered items without shipping them.  For callers
    /// whose items are durable elsewhere (a journal) and who must tear a
    /// sender down without touching a possibly-stalled ring: after this,
    /// dropping the sender cannot block (the `Drop` flush sees an empty
    /// buffer).
    pub fn discard_buffered(&mut self) {
        let spent = std::mem::take(&mut self.buf);
        self.pool.put(spent);
    }

    /// This sender's counters so far.
    pub fn stats(&self) -> FrameSenderStats {
        self.stats
    }

    /// Frame-granularity fault counters, if this shard runs a faulty link.
    pub fn fault_stats(&self) -> Option<ChannelFaultStats> {
        match &self.sink {
            FrameSink::Clean(_) => None,
            FrameSink::Faulty(faulty) => Some(faulty.stats()),
        }
    }
}

impl<T: Clone> Drop for FrameSender<T> {
    fn drop(&mut self) {
        // Partial tail first, then the sink drops and the ring sees EOF.
        self.flush();
    }
}

/// Counters for a [`FrameMerge`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Frames received across all shards.
    pub frames: usize,
    /// Items inside those frames.
    pub events: usize,
    /// Frames whose first sequence number did not follow the shard's
    /// previous frame (fault-injected reordering/duplication; always 0 on a
    /// clean transport).
    pub misordered_frames: usize,
    /// Frames whose fingerprint did not match their contents (transport
    /// corruption; always 0 even under the frame-granularity fault plans,
    /// which move whole frames but never rewrite them).
    pub fingerprint_mismatches: usize,
}

struct ShardSource<T> {
    rx: Receiver<Frame<T>>,
    /// Buffered frame contents, **reversed** so the head of the stream is
    /// `buf.last()` and emission is an O(1) `pop` — no front-drains, and the
    /// buffer goes back to the pool intact.
    buf: Vec<(u64, T)>,
    open: bool,
    last_seq: Option<u64>,
}

/// The consumer half: k-way-merges the per-shard frame streams back into
/// global sequence order.
pub struct FrameMerge<T> {
    shards: Vec<ShardSource<T>>,
    pool: FramePool<T>,
    seq_scratch: Vec<u64>,
    stats: MergeStats,
}

impl<T> FrameMerge<T> {
    /// Appends the next run of globally sequence-sorted items to `out`, up
    /// to `max`, blocking while an open shard's head is unknown (strict
    /// order requires it; see the module notes on deadlock-freedom).
    /// Returns how many items were appended; `0` means every shard hung up
    /// and drained.
    ///
    /// On a clean transport the emitted sequence is exactly the producers'
    /// global numbering.  Under frame faults the per-shard streams may be
    /// disordered; the merge still emits by smallest buffered head, which
    /// bounds the disorder to what the faults injected.
    pub fn recv_sorted(&mut self, out: &mut Vec<(u64, T)>, max: usize) -> usize {
        let max = max.max(1);
        let start = out.len();
        while out.len() - start < max {
            // Make every open shard's head known (blocking on its ring).
            let FrameMerge {
                shards,
                pool,
                seq_scratch,
                stats,
            } = self;
            for shard in shards.iter_mut() {
                while shard.open && shard.buf.is_empty() {
                    match shard.rx.recv() {
                        Some(frame) => install(shard, frame, pool, seq_scratch, stats),
                        None => shard.open = false,
                    }
                }
            }
            // Find the smallest and second-smallest heads.
            let mut min_shard: Option<usize> = None;
            let mut min_seq = u64::MAX;
            let mut second_seq = u64::MAX;
            for (i, shard) in self.shards.iter().enumerate() {
                if let Some((seq, _)) = shard.buf.last() {
                    if *seq < min_seq {
                        second_seq = min_seq;
                        min_seq = *seq;
                        min_shard = Some(i);
                    } else if *seq < second_seq {
                        second_seq = *seq;
                    }
                }
            }
            let Some(i) = min_shard else {
                break; // every shard closed and drained
            };
            // Emit the whole run that stays below every other head — one
            // comparison per item, no re-scans of the shard set.
            let shard = &mut self.shards[i];
            while out.len() - start < max {
                match shard.buf.last() {
                    Some((seq, _)) if *seq <= second_seq => {
                        out.push(shard.buf.pop().expect("head exists"));
                    }
                    _ => break,
                }
            }
            if shard.buf.is_empty() {
                let spent = std::mem::take(&mut shard.buf);
                self.pool.put(spent);
            }
        }
        out.len() - start
    }

    /// The merge-side counters so far.
    pub fn stats(&self) -> MergeStats {
        self.stats
    }
}

/// Buffers one arrived frame into its shard (verifying the fingerprint and
/// the shard-local ordering) and recycles the shard's spent buffer.
fn install<T>(
    shard: &mut ShardSource<T>,
    frame: Frame<T>,
    pool: &FramePool<T>,
    seq_scratch: &mut Vec<u64>,
    stats: &mut MergeStats,
) {
    stats.frames += 1;
    stats.events += frame.items.len();
    if frame.expected_fingerprint(seq_scratch) != frame.fingerprint {
        stats.fingerprint_mismatches += 1;
    }
    if let (Some(last), Some((first, _))) = (shard.last_seq, frame.items.first()) {
        if *first <= last {
            stats.misordered_frames += 1;
        }
    }
    if let Some((seq, _)) = frame.items.last() {
        shard.last_seq = Some(*seq);
    }
    let mut items = frame.items;
    items.reverse();
    let spent = std::mem::replace(&mut shard.buf, items);
    pool.put(spent);
}

/// Builds a sharded frame transport: one [`FrameSender`] per producer, each
/// over its own ring holding up to `ring_frames` in-flight frames of
/// `frame_capacity` items, all fanned into one [`FrameMerge`].  With a
/// `plan`, every shard's ring runs behind its own seed-derived
/// ([`FaultPlan::for_shard`]) frame-granularity fault injector.
pub fn sharded<T: Clone>(
    producers: usize,
    ring_frames: usize,
    frame_capacity: usize,
    plan: Option<FaultPlan>,
) -> (Vec<FrameSender<T>>, FrameMerge<T>) {
    let producers = producers.max(1);
    let pool = FramePool::default();
    let mut senders = Vec::with_capacity(producers);
    let mut shards = Vec::with_capacity(producers);
    for producer in 0..producers {
        let (tx, rx) = channel::bounded(ring_frames.max(1));
        let sink = match plan {
            Some(plan) => FrameSink::Faulty(FaultySender::new(tx, plan.for_shard(producer))),
            None => FrameSink::Clean(tx),
        };
        senders.push(FrameSender {
            sink,
            pool: pool.clone(),
            producer,
            frame_capacity: frame_capacity.max(1),
            buf: pool.get(frame_capacity.max(1)),
            seq_scratch: Vec::new(),
            stats: FrameSenderStats::default(),
        });
        shards.push(ShardSource {
            rx,
            buf: Vec::new(),
            open: true,
            last_seq: None,
        });
    }
    (
        senders,
        FrameMerge {
            shards,
            pool,
            seq_scratch: Vec::new(),
            stats: MergeStats::default(),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<T: Clone>(merge: &mut FrameMerge<T>) -> Vec<(u64, T)> {
        let mut out = Vec::new();
        while merge.recv_sorted(&mut out, 1024) > 0 {}
        out
    }

    #[test]
    fn single_shard_round_trips_in_order() {
        let (mut senders, mut merge) = sharded::<usize>(1, 16, 8, None);
        let mut tx = senders.pop().unwrap();
        for seq in 0..100u64 {
            tx.push(seq, seq as usize);
        }
        let stats = tx.stats();
        assert_eq!(stats.frames_sent, 12, "100 items at capacity 8");
        drop(tx); // flushes the 4-item tail as a partial frame
        let out = drain(&mut merge);
        assert_eq!(
            out.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            (0..100).collect::<Vec<_>>()
        );
        let m = merge.stats();
        assert_eq!(m.frames, 13);
        assert_eq!(m.events, 100);
        assert_eq!(m.fingerprint_mismatches, 0);
        assert_eq!(m.misordered_frames, 0);
    }

    #[test]
    fn partial_tail_is_flushed_and_counted() {
        let (mut senders, mut merge) = sharded::<u8>(1, 4, 16, None);
        let mut tx = senders.pop().unwrap();
        for seq in 0..5u64 {
            tx.push(seq, 0);
        }
        assert_eq!(
            tx.stats().frames_sent,
            0,
            "below capacity: nothing sent yet"
        );
        tx.flush();
        let stats = tx.stats();
        assert_eq!(stats.frames_sent, 1);
        assert_eq!(stats.partial_frames, 1);
        assert_eq!(stats.events_sent, 5);
        drop(tx);
        assert_eq!(drain(&mut merge).len(), 5);
    }

    #[test]
    fn merge_restores_global_order_across_shards() {
        // Interleave a global numbering round-robin across 3 shards; the
        // merge must put it back together exactly.
        let (mut senders, mut merge) = sharded::<usize>(3, 32, 4, None);
        for seq in 0..99u64 {
            senders[(seq % 3) as usize].push(seq, seq as usize);
        }
        drop(senders);
        let out = drain(&mut merge);
        assert_eq!(
            out.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            (0..99).collect::<Vec<_>>()
        );
        assert_eq!(merge.stats().misordered_frames, 0);
        assert_eq!(merge.stats().fingerprint_mismatches, 0);
    }

    #[test]
    fn threaded_producers_with_tiny_rings_do_not_deadlock() {
        // Producers block only on their own full rings, the merge blocks
        // only on empty open rings: saturating 1-frame rings from 4 threads
        // must still terminate with the full sorted stream.
        let (senders, mut merge) = sharded::<usize>(4, 1, 4, None);
        std::thread::scope(|s| {
            for (t, mut tx) in senders.into_iter().enumerate() {
                s.spawn(move || {
                    for k in 0..250u64 {
                        tx.push((t as u64) * 250 + k, t);
                    }
                });
            }
            let out = drain(&mut merge);
            assert_eq!(out.len(), 1000);
            assert!(out.windows(2).all(|w| w[0].0 < w[1].0), "globally sorted");
        });
    }

    #[test]
    fn frame_faults_conserve_frames() {
        let (mut senders, mut merge) = sharded::<usize>(
            2,
            64,
            4,
            Some(FaultPlan {
                seed: 42,
                lose: 128,
                duplicate: 128,
                reorder: 128,
            }),
        );
        for seq in 0..400u64 {
            senders[(seq % 2) as usize].push(seq, seq as usize);
        }
        let mut emitted_frames = 0usize;
        let mut faults = ChannelFaultStats::default();
        for tx in &mut senders {
            tx.flush();
            emitted_frames += tx.stats().frames_sent;
            let f = tx.fault_stats().expect("faulty plan");
            faults.delivered += f.delivered;
            faults.lost += f.lost;
            faults.duplicated += f.duplicated;
            faults.reordered += f.reordered;
        }
        drop(senders);
        let out = drain(&mut merge);
        // Conservation, in frames: every emitted frame was delivered, lost,
        // or delivered twice.  (Drop-time flush of a held frame is part of
        // `delivered`; re-read the totals only after the senders are gone —
        // so assert against the merge side, which saw the final stream.)
        let m = merge.stats();
        assert!(faults.lost > 0 && faults.duplicated > 0 && faults.reordered > 0);
        assert!(m.frames >= emitted_frames - faults.lost);
        assert_eq!(out.len(), m.events);
        assert_eq!(
            m.fingerprint_mismatches, 0,
            "faults move frames, never corrupt them"
        );
        assert!(
            m.misordered_frames > 0,
            "reordering must be visible to the merge"
        );
    }

    #[test]
    fn faults_at_frame_granularity_are_seed_deterministic() {
        let run = |seed: u64| {
            let (mut senders, mut merge) = sharded::<usize>(
                2,
                64,
                4,
                Some(FaultPlan {
                    seed,
                    lose: 128,
                    duplicate: 128,
                    reorder: 128,
                }),
            );
            for seq in 0..200u64 {
                senders[(seq % 2) as usize].push(seq, 0);
            }
            drop(senders);
            let out: Vec<u64> = drain(&mut merge).into_iter().map(|(s, _)| s).collect();
            (out, merge.stats())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).0, run(8).0);
    }

    #[test]
    fn try_flush_never_blocks_and_retains_items_on_a_full_ring() {
        let (mut senders, mut merge) = sharded::<usize>(1, 1, 2, None);
        let mut tx = senders.pop().unwrap();
        // Fill the 1-frame ring...
        tx.push(0, 0);
        tx.push(1, 1);
        assert_eq!(tx.stats().frames_sent, 1);
        // ...then a non-blocking flush of the next batch must fail softly.
        tx.push(2, 2);
        assert!(!tx.try_flush(), "ring is full");
        assert_eq!(tx.buffered_len(), 1, "items retained, not dropped");
        // Drain the ring and the retry succeeds.
        let mut out = Vec::new();
        assert_eq!(merge.recv_sorted(&mut out, 2), 2);
        assert!(tx.try_flush());
        assert_eq!(tx.buffered_len(), 0);
        drop(tx);
        assert_eq!(merge.recv_sorted(&mut out, 16), 1);
        assert_eq!(out.iter().map(|(s, _)| *s).collect::<Vec<_>>(), [0, 1, 2]);
    }

    #[test]
    fn hung_up_ring_swallows_and_counts_instead_of_panicking() {
        let (mut senders, merge) = sharded::<usize>(1, 4, 4, None);
        let mut tx = senders.pop().unwrap();
        tx.push(0, 0);
        drop(merge); // the consumer died mid-run
        tx.push(1, 1);
        tx.push(2, 2);
        tx.push(3, 3); // frame full: ships into the dead ring
        let stats = tx.stats();
        assert!(stats.disconnected);
        assert_eq!(stats.dropped_disconnected, 4);
        tx.push(4, 4);
        drop(tx); // drop-time flush of the partial tail: quiet, counted
    }
}

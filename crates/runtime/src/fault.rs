//! Transient channel faults for the streaming pipeline.
//!
//! The simulator's fault layer (`evlin_sim::fault`) corrupts *state*; this
//! module corrupts *transport*.  A [`FaultySender`] wraps the bounded
//! [`crate::channel`] sender and, driven by a seeded deterministic generator,
//! loses, duplicates or adjacently reorders items in flight — the classical
//! transient channel faults of the self-stabilization literature.  Wired
//! under each producer ring of the frame transport
//! ([`crate::channel::sharded`]) it turns the live-monitor feed into a
//! faulty link that corrupts whole frames, so the experiments can measure
//! how the online checker reacts to a corrupted event stream: a
//! violation is *flagged*, and once the stream quiesces past the corrupted
//! prefix the `t`-linearizability floater machinery *forgives* it.
//!
//! Determinism matters more than realism here: every decision comes from an
//! xorshift generator seeded by the caller, so a run with a given
//! [`FaultPlan`] injects exactly the same faults every time.

use crate::channel::{SendError, Sender};

/// Probability scale of the [`FaultPlan`] knobs: each knob is a chance out
/// of 1024 per item.
pub const FAULT_SCALE: u32 = 1024;

/// A seeded, deterministic plan of channel faults.
///
/// Each item sent through a [`FaultySender`] suffers at most one fault,
/// drawn in the order loss → duplication → reordering; a knob of 0 disables
/// that fault kind and an all-zero plan makes the sender transparent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed of the per-sender xorshift generator (0 is mapped to 1).
    pub seed: u64,
    /// Chance (out of [`FAULT_SCALE`]) that an item is silently lost.
    pub lose: u32,
    /// Chance (out of [`FAULT_SCALE`]) that an item is delivered twice.
    pub duplicate: u32,
    /// Chance (out of [`FAULT_SCALE`]) that an item is held back and swapped
    /// with the next item (adjacent reordering; the held item is flushed
    /// when the sender is dropped).
    pub reorder: u32,
}

impl FaultPlan {
    /// A plan that injects no faults (the wrapper becomes transparent).
    pub fn transparent(seed: u64) -> Self {
        FaultPlan {
            seed,
            lose: 0,
            duplicate: 0,
            reorder: 0,
        }
    }

    /// A purely lossy link.
    pub fn lossy(seed: u64, lose: u32) -> Self {
        FaultPlan {
            lose,
            ..FaultPlan::transparent(seed)
        }
    }

    /// A link that duplicates but never loses or reorders.
    pub fn duplicating(seed: u64, duplicate: u32) -> Self {
        FaultPlan {
            duplicate,
            ..FaultPlan::transparent(seed)
        }
    }

    /// A link that adjacently reorders but never loses or duplicates.
    pub fn reordering(seed: u64, reorder: u32) -> Self {
        FaultPlan {
            reorder,
            ..FaultPlan::transparent(seed)
        }
    }

    /// Derives an independent per-shard plan from this one: same fault
    /// rates, decorrelated seed.  The sharded frame transport
    /// ([`crate::channel::sharded`]) gives each producer ring its own
    /// [`FaultySender`]; deriving the seeds keeps a multi-shard run exactly
    /// as reproducible as a single-link one.
    pub fn for_shard(self, shard: usize) -> FaultPlan {
        FaultPlan {
            seed: self
                .seed
                .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(shard as u64 + 1)),
            ..self
        }
    }
}

/// Counters of the faults a [`FaultySender`] actually injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelFaultStats {
    /// Items that reached the underlying channel (duplicates counted twice).
    pub delivered: usize,
    /// Items silently lost.
    pub lost: usize,
    /// Items delivered twice (each adds one extra `delivered`).
    pub duplicated: usize,
    /// Items held back and swapped with their successor.
    pub reordered: usize,
}

/// A sender that injects seeded transient faults in front of a bounded
/// [`crate::channel`] sender.
///
/// The wrapper needs `&mut self` (it carries the generator and the held-back
/// item); each frame sender owns its link outright, so no second layer of
/// synchronization is needed.  Dropping the sender flushes a
/// held-back item before hanging up, so reordering never silently turns
/// into loss.
pub struct FaultySender<T: Clone> {
    inner: Sender<T>,
    plan: FaultPlan,
    rng: u64,
    held: Option<T>,
    stats: ChannelFaultStats,
}

impl<T: Clone> FaultySender<T> {
    /// Wraps `inner` with the given fault plan.
    pub fn new(inner: Sender<T>, plan: FaultPlan) -> Self {
        FaultySender {
            inner,
            plan,
            rng: plan.seed.max(1),
            held: None,
            stats: ChannelFaultStats::default(),
        }
    }

    /// The faults injected so far.
    pub fn stats(&self) -> ChannelFaultStats {
        self.stats
    }

    fn roll(&mut self) -> u32 {
        // xorshift64: full period over nonzero states, plenty for fault
        // schedules, and dependency-free.
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        (x >> 32) as u32 % FAULT_SCALE
    }

    /// Sends `item` through the faulty link.
    ///
    /// `Ok` means the link accepted the item — *including* when the fault
    /// plan lost it (loss is a channel fault, not a shutdown).  The error is
    /// reserved for a real disconnect of the underlying channel, carrying
    /// the item back exactly like [`Sender::send`].
    pub fn send(&mut self, item: T) -> Result<(), SendError<T>> {
        let roll = self.roll();
        if roll < self.plan.lose {
            self.stats.lost += 1;
            return Ok(());
        }
        if roll < self.plan.lose + self.plan.duplicate {
            self.stats.duplicated += 1;
            self.deliver(item.clone())?;
            self.deliver(item)?;
            return self.flush();
        }
        if roll < self.plan.lose + self.plan.duplicate + self.plan.reorder && self.held.is_none() {
            self.stats.reordered += 1;
            self.held = Some(item);
            return Ok(());
        }
        // Deliver the current item first, then any held-back predecessor —
        // the adjacent swap that makes a pending reorder visible.
        self.deliver(item)?;
        self.flush()
    }

    /// Delivers any held-back item without injecting new faults.
    pub fn flush(&mut self) -> Result<(), SendError<T>> {
        match self.held.take() {
            Some(item) => self.deliver(item),
            None => Ok(()),
        }
    }

    fn deliver(&mut self, item: T) -> Result<(), SendError<T>> {
        self.inner.send(item)?;
        self.stats.delivered += 1;
        Ok(())
    }
}

impl<T: Clone> Drop for FaultySender<T> {
    fn drop(&mut self) {
        // A held-back item must still reach the channel before the hang-up;
        // a disconnect here is swallowed (shutdown is not an error path).
        let _ = self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel;

    fn drain(rx: &channel::Receiver<usize>) -> Vec<usize> {
        std::iter::from_fn(|| rx.recv()).collect()
    }

    #[test]
    fn transparent_plan_preserves_the_stream() {
        let (tx, rx) = channel::bounded(64);
        let mut faulty = FaultySender::new(tx, FaultPlan::transparent(7));
        for i in 0..32usize {
            faulty.send(i).unwrap();
        }
        drop(faulty);
        assert_eq!(drain(&rx), (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn faults_are_seed_deterministic() {
        let run = |seed: u64| {
            let (tx, rx) = channel::bounded(256);
            let mut faulty = FaultySender::new(
                tx,
                FaultPlan {
                    seed,
                    lose: 128,
                    duplicate: 128,
                    reorder: 128,
                },
            );
            for i in 0..100usize {
                faulty.send(i).unwrap();
            }
            let stats = faulty.stats();
            drop(faulty);
            (drain(&rx), stats)
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).0, run(43).0, "different seeds, different faults");
    }

    #[test]
    fn lossy_link_loses_and_counts() {
        let (tx, rx) = channel::bounded(256);
        let mut faulty = FaultySender::new(tx, FaultPlan::lossy(5, 256));
        for i in 0..200usize {
            faulty.send(i).unwrap();
        }
        let stats = faulty.stats();
        drop(faulty);
        let received = drain(&rx);
        assert!(stats.lost > 0, "a 25% lossy link must lose something");
        assert_eq!(received.len(), 200 - stats.lost);
        assert_eq!(received.len(), stats.delivered);
        // Losses never reorder the survivors.
        assert!(received.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn duplicating_link_repeats_items_in_place() {
        let (tx, rx) = channel::bounded(256);
        let mut faulty = FaultySender::new(tx, FaultPlan::duplicating(9, 256));
        for i in 0..100usize {
            faulty.send(i).unwrap();
        }
        let stats = faulty.stats();
        drop(faulty);
        let received = drain(&rx);
        assert!(stats.duplicated > 0);
        assert_eq!(received.len(), 100 + stats.duplicated);
        // Duplicates are adjacent and order is otherwise preserved.
        assert!(received.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn reordering_link_swaps_adjacent_items_and_flushes_on_drop() {
        let (tx, rx) = channel::bounded(256);
        let mut faulty = FaultySender::new(tx, FaultPlan::reordering(11, 512));
        for i in 0..100usize {
            faulty.send(i).unwrap();
        }
        let stats = faulty.stats();
        drop(faulty); // flushes any held-back item
        let received = drain(&rx);
        assert!(stats.reordered > 0);
        assert_eq!(received.len(), 100, "reordering must never lose items");
        let mut sorted = received.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(received, sorted, "something actually moved");
    }

    #[test]
    fn disconnect_still_surfaces_through_the_faulty_link() {
        let (tx, rx) = channel::bounded(4);
        let mut faulty = FaultySender::new(tx, FaultPlan::transparent(3));
        drop(rx);
        let err = faulty.send(1usize).expect_err("receiver is gone");
        assert_eq!(err, SendError::Disconnected(1));
    }
}

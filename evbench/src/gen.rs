//! Seeded op scripts.  The benchmark's inputs come only from here: the same
//! `(seed, round)` always yields the same script, and the program under test
//! sees nothing but the generated operations.

/// SplitMix64: a tiny, well-mixed generator with a stable output stream.
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for one `(seed, stream)` pair; streams are independent.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut g = SplitMix64(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        g.next_u64();
        g
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is below 2^-50 here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// `fai-stream`: the object of each fetch&inc, uniform over `objects`.
pub fn fai_script(seed: u64, round: u64, objects: usize, ops: usize) -> Vec<u32> {
    let mut rng = SplitMix64::new(seed, round);
    (0..ops).map(|_| rng.below(objects as u64) as u32).collect()
}

/// A round length of `mean` ± 20%, drawn from `(seed, round)`.  Rounds of
/// one fixed length would end at one fixed phase of a service's periodic
/// timers, and every round would wait out the same part of a tick.
pub fn jittered(seed: u64, round: u64, mean: usize) -> usize {
    let mut rng = SplitMix64::new(seed, u64::MAX - round);
    mean * 4 / 5 + rng.below(mean as u64 * 2 / 5 + 1) as usize
}

/// One `reg-durable` operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegOp {
    /// Read register `object`.
    Read { object: u32 },
    /// Write `value` (unique across the round, never the initial 0) to
    /// register `object`.
    Write { object: u32, value: i64 },
}

/// `reg-durable`: thread `thread`'s script, one read in `read_one_in` ops on
/// average, the rest writes of values unique across all `threads` scripts.
pub fn reg_script(
    seed: u64,
    round: u64,
    thread: usize,
    threads: usize,
    objects: usize,
    read_one_in: u64,
    ops: usize,
) -> Vec<RegOp> {
    let mut rng = SplitMix64::new(seed, (round << 8) | thread as u64);
    let mut writes = 0i64;
    (0..ops)
        .map(|_| {
            let object = rng.below(objects as u64) as u32;
            if rng.below(read_one_in) == 0 {
                RegOp::Read { object }
            } else {
                let value = 1 + writes * threads as i64 + thread as i64;
                writes += 1;
                RegOp::Write { object, value }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_scripts() {
        assert_eq!(fai_script(7, 3, 1024, 5000), fai_script(7, 3, 1024, 5000));
        assert_eq!(
            reg_script(7, 3, 1, 2, 64, 5, 5000),
            reg_script(7, 3, 1, 2, 64, 5, 5000)
        );
    }

    #[test]
    fn different_seeds_give_different_scripts() {
        assert_ne!(fai_script(7, 0, 1024, 5000), fai_script(8, 0, 1024, 5000));
        assert_ne!(
            reg_script(7, 0, 0, 2, 64, 5, 5000),
            reg_script(8, 0, 0, 2, 64, 5, 5000)
        );
        // Rounds and threads of one seed draw independent scripts too.
        assert_ne!(fai_script(7, 0, 1024, 5000), fai_script(7, 1, 1024, 5000));
        assert_ne!(
            reg_script(7, 0, 0, 2, 64, 5, 5000),
            reg_script(7, 0, 1, 2, 64, 5, 5000)
        );
    }

    #[test]
    fn jittered_lengths_stay_within_a_fifth_and_vary() {
        let lengths: Vec<usize> = (0..200).map(|r| jittered(3, r, 1_000)).collect();
        assert!(lengths.iter().all(|n| (800..=1_200).contains(n)));
        assert!(lengths.iter().max().unwrap() - lengths.iter().min().unwrap() > 300);
        assert_eq!(jittered(3, 7, 1_000), jittered(3, 7, 1_000));
    }

    #[test]
    fn register_scripts_mix_reads_and_unique_writes() {
        let a = reg_script(1, 0, 0, 2, 64, 5, 20_000);
        let b = reg_script(1, 0, 1, 2, 64, 5, 20_000);
        let reads = a
            .iter()
            .filter(|op| matches!(op, RegOp::Read { .. }))
            .count();
        assert!((3_000..5_000).contains(&reads), "{reads} reads");
        let mut values: Vec<i64> = a
            .iter()
            .chain(&b)
            .filter_map(|op| match op {
                RegOp::Write { value, .. } => Some(*value),
                RegOp::Read { .. } => None,
            })
            .collect();
        let writes = values.len();
        values.sort_unstable();
        values.dedup();
        assert_eq!(values.len(), writes, "write values repeat");
        assert!(values[0] > 0, "a write reuses the initial value");
    }
}

//! The benchmark's own seeded generator.
//!
//! A local splitmix64, so that a change to `fundb_workload` or to the `rand`
//! shim cannot shift the load: the same `--seed` gives the same statements
//! for as long as this file is unchanged (a unit test pins a stream hash).

/// splitmix64 (Steele, Lea, Flood): one 64-bit state word, full period.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

/// The splitmix64 output mix, also used to derive loaded field values.
pub fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl SplitMix64 {
    /// An independent generator for sub-stream `stream` of `seed`.
    pub fn stream(seed: u64, stream: u64) -> Self {
        SplitMix64(mix(
            seed ^ mix(stream.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
        ))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-32 for the
    /// ranges used here).
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_values() {
        // First outputs of splitmix64 seeded with 0 (published test vector).
        let mut r = SplitMix64(0);
        assert_eq!(r.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(r.next_u64(), 0x6e78_9e6a_a1b9_65f4);
    }

    #[test]
    fn below_stays_in_range_and_streams_differ() {
        let mut a = SplitMix64::stream(7, 0);
        let mut b = SplitMix64::stream(7, 1);
        let xs: Vec<u64> = (0..100).map(|_| a.below(10)).collect();
        let ys: Vec<u64> = (0..100).map(|_| b.below(10)).collect();
        assert!(xs.iter().all(|&x| x < 10));
        assert_ne!(xs, ys);
    }
}

//! The benchmark's own seeded generator, so inputs and schedules depend on
//! `--seed` and on nothing a layer crate could change.

/// SplitMix64: small, well mixed, and every seed (including 0) is usable.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named purpose of a run, so adding a consumer never
    /// shifts what the others draw.
    pub fn for_stream(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`); the modulo bias is below 2⁻⁵⁰ for
    /// the small bounds used here.
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    pub fn permutation(&mut self, len: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..len).collect();
        self.shuffle(&mut order);
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_draws_and_permutations_are_complete() {
        let mut a = Rng::for_stream(7, 0);
        let mut b = Rng::for_stream(7, 0);
        assert_eq!(a.permutation(48), b.permutation(48));
        let mut seen = Rng::for_stream(8, 0).permutation(48);
        assert_ne!(seen, Rng::for_stream(9, 0).permutation(48));
        seen.sort_unstable();
        assert_eq!(seen, (0..48).collect::<Vec<_>>());
    }
}

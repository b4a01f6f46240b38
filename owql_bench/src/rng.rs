//! The benchmark's only source of randomness: a SplitMix64 stream
//! seeded from `--seed`, and a Zipf(1.0) sampler over person ids.

/// SplitMix64. Small, fast, and identical on every platform, so a
/// seed pins the whole workload.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one consumer (`salt` names it), so
    /// adding a consumer never shifts the numbers another one sees.
    pub fn fork(seed: u64, salt: u64) -> Rng {
        let mut rng = Rng(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// Zipf(1.0) over `n` items: rank `k` (1-based) is drawn with
/// probability proportional to `1/k`. Ranks map to item ids through a
/// seeded permutation, so the hot constants are spread over the id
/// space instead of being `person0, person1, …`.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
    ids: Vec<u32>,
}

impl Zipf {
    pub fn new(n: usize, seed: u64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / k as f64;
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        let mut ids: Vec<u32> = (0..n as u32).collect();
        let mut rng = Rng::fork(seed, 0x21BF);
        for i in (1..n).rev() {
            ids.swap(i, rng.below(i + 1));
        }
        Zipf { cdf, ids }
    }

    /// The item id of the rank drawn by `rng`.
    pub fn sample(&self, rng: &mut Rng) -> u32 {
        let u = rng.unit();
        let rank = self.cdf.partition_point(|&c| c <= u);
        self.ids[rank.min(self.ids.len() - 1)]
    }

    /// The `k` hottest item ids, hottest first.
    pub fn hottest(&self, k: usize) -> &[u32] {
        &self.ids[..k]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_forks_differ() {
        let a: Vec<u64> = {
            let mut r = Rng::fork(7, 0);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::fork(7, 0);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(Rng::fork(7, 1).next_u64(), Rng::fork(7, 2).next_u64());
    }

    #[test]
    fn below_and_unit_stay_in_range() {
        let mut r = Rng::fork(1, 0);
        for _ in 0..10_000 {
            assert!(r.below(13) < 13);
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn zipf_is_deterministic_per_seed_and_skewed() {
        let draw = |seed: u64| -> Vec<u32> {
            let z = Zipf::new(1000, seed);
            let mut r = Rng::fork(seed, 9);
            (0..5000).map(|_| z.sample(&mut r)).collect()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));

        let z = Zipf::new(1000, 3);
        let sample = draw(3);
        let hottest = z.hottest(1)[0];
        let share = sample.iter().filter(|&&id| id == hottest).count() as f64 / 5000.0;
        // H(1000) ≈ 7.49, so rank 1 carries ≈ 13% of the mass.
        assert!((0.10..0.17).contains(&share), "rank-1 share {share}");
        let top10: f64 = sample
            .iter()
            .filter(|id| z.hottest(10).contains(id))
            .count() as f64
            / 5000.0;
        assert!(top10 > 0.3, "top-10 share {top10}");
    }
}

//! Order statistics, the seeded generator, and the order-independent
//! row digest.

use mg_bench::cache::stable_hash64;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle two for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method), so
/// spreads printed here match the ones Python computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    // Python's exact integer arithmetic, extrapolation at the ends
    // included.
    let m = (n + 1) as i64;
    let at = |i: i64| {
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// The typical time of a serial job made of the same parts every rep:
/// the sum of each part's median over the reps. `reps` holds one list
/// of part times per rep, parts in the same order every rep.
///
/// The host slows single parts now and then by up to half; a median of
/// whole-job times still carries every slowed part of its reps, while a
/// median per part drops them.
pub fn sum_of_medians(reps: &[Vec<f64>]) -> f64 {
    let parts = reps.first().map_or(0, Vec::len);
    (0..parts)
        .map(|j| median(&reps.iter().map(|p| p[j]).collect::<Vec<_>>()))
        .sum()
}

/// How many samples must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile that has at least [`TAIL_BEYOND`] samples
/// beyond it: the value with exactly that many larger samples, and its
/// percentile rank. `None` with too few samples.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    (n > TAIL_BEYOND).then(|| {
        let rank = 100.0 * (n - TAIL_BEYOND) as f64 / n as f64;
        (v[n - TAIL_BEYOND - 1], rank)
    })
}

/// SplitMix64: a tiny seeded generator, so every input the benchmark
/// makes is a pure function of `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a over the rows sorted by their rendering, so the digest names
/// the set of (bench, cell, outcome) rows and not the order they were
/// produced in. `Debug` renders every `f64` in shortest round-trip form,
/// so equal digests mean bit-identical rows.
pub fn digest<I: IntoIterator<Item = String>>(rows: I) -> u64 {
    let mut lines: Vec<String> = rows.into_iter().collect();
    lines.sort_unstable();
    stable_hash64(lines.join("\n").as_bytes())
}

/// One digest line: `bench|cell|outcome`.
pub fn row_line<T: std::fmt::Debug>(bench: &str, cell: usize, outcome: &T) -> String {
    format!("{bench}|{cell}|{outcome:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), (1.25, 3.75));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[7.0, 5.0]), (4.5, 7.5));
    }

    #[test]
    fn sum_of_medians_drops_a_slowed_part_per_rep() {
        // Three parts of 1.0; each rep has one part slowed to 1.5, a
        // different one every rep.
        let reps = vec![
            vec![1.5, 1.0, 1.0],
            vec![1.0, 1.5, 1.0],
            vec![1.0, 1.0, 1.5],
        ];
        assert_eq!(sum_of_medians(&reps), 3.0);
        assert_eq!(sum_of_medians(&[vec![1.0, 2.0], vec![3.0, 2.0]]), 4.0);
        assert_eq!(sum_of_medians(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail(&[1.0; 10]), None);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (value, rank) = tail(&v).unwrap();
        assert_eq!(value, 90.0);
        assert_eq!(rank, 90.0);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), TAIL_BEYOND);
        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(tail(&v), Some((990.0, 99.0)));
    }

    #[test]
    fn rng_is_a_pure_function_of_the_seed() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let mut r = Rng::new(1);
        assert!((0..1000).map(|_| r.unit()).all(|x| (0.0..1.0).contains(&x)));
    }

    #[test]
    fn digest_does_not_depend_on_order() {
        let rows = |order: &[usize]| {
            let all = ["a|0|x", "a|1|y", "b|0|z"];
            digest(order.iter().map(|&i| all[i].to_string()))
        };
        assert_eq!(rows(&[0, 1, 2]), rows(&[2, 0, 1]));
        assert_ne!(rows(&[0, 1, 2]), rows(&[0, 1]));
        assert_ne!(digest(["a|0|x".to_string()]), digest(["a|0|y".to_string()]));
    }
}

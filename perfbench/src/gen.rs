//! Seeded input generation. The program under test only ever sees the
//! facts text and query text produced here.

use std::collections::BTreeSet;

/// SplitMix64: a small, fully specified generator, so the same seed gives
/// the same inputs on every machine and every commit.
pub struct Rng(u64);

impl Rng {
    /// An independent stream for sub-task `tag` of this seed.
    pub fn fork(seed: u64, tag: u64) -> Rng {
        let mut r = Rng(seed ^ tag.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }
}

/// An Erdős–Rényi `G(n, m)` digraph: exactly `m` distinct directed edges
/// without self-loops, drawn uniformly, rendered as a facts file over the
/// binary relation `E`.
pub fn er_facts(rng: &mut Rng, n: usize, m: usize) -> String {
    assert!(n >= 2 && m <= n * (n - 1), "G({n}, {m}) does not exist");
    let mut edges = BTreeSet::new();
    while edges.len() < m {
        let u = rng.below(n);
        let v = rng.below(n);
        if u != v {
            edges.insert((u, v));
        }
    }
    let mut text = format!("universe {n}\nrelation E 2\n");
    for (u, v) in edges {
        text.push_str(&format!("E {u} {v}\n"));
    }
    text
}

/// Edge count of a graph on `n` nodes with average out-degree `degree`.
pub fn edges_for(n: usize, degree: f64) -> usize {
    (n as f64 * degree).round() as usize
}

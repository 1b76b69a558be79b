//! Synthetic scale traces: Amazon-shaped rating streams at 10⁲–10⁵ nodes.
//!
//! The §III marketplace traces top out at a few hundred sellers — enough to
//! validate the detectors' *outputs*, far too small to exercise their
//! *scaling* behaviour. This module generates seeded synthetic workloads
//! with the same gross shape as the crawled data (a heavy-tailed ratee
//! popularity distribution, ~90 % positive background feedback) at any node
//! count, with a known set of planted colluding pairs whose statistics are
//! pinned exactly on the paper's detection thresholds:
//!
//! * each planted colluder receives 30 mutual +1 ratings from its partner
//!   (`N(j,i) = 30 ≥ T_N = 20`, fraction `a = 1.0 ≥ T_a`) and 10 −1 ratings
//!   from 10 distinct community raters (fraction `b = 0 < T_b`, reputation
//!   `R_i = 20 ≥ T_R`), so every planted pair is detected — and nothing
//!   else is frequent enough to be — under `Thresholds::new(1.0, 20, 0.8,
//!   0.2)` and the strict policy;
//! * background ratings never target a colluder, so the planted statistics
//!   stay exact at every scale.
//!
//! Every workload of the repository's benchmark (`benchmark/`) runs on
//! this trace, and `tests/scale_props.rs` pins the prune and epoch
//! counters it yields at n = 2 000.

use collusion_reputation::id::{NodeId, SimTime};
use collusion_reputation::rating::{Rating, RatingValue};

/// Parameters of a synthetic scale trace.
#[derive(Clone, Copy, Debug)]
pub struct ScaleConfig {
    /// Total node population (ids `1..=nodes`).
    pub nodes: u64,
    /// Background ratings issued per node (matrix density knob).
    pub ratings_per_node: u64,
    /// Planted colluding pairs; their members are the trailing
    /// `2 · colluding_pairs` ids.
    pub colluding_pairs: u64,
    /// RNG seed; equal configs generate byte-identical traces.
    pub seed: u64,
}

impl ScaleConfig {
    /// Amazon-shaped defaults at the given population: ~20 background
    /// ratings per node and one planted pair per 100 nodes (minimum 1).
    pub fn at_scale(nodes: u64, seed: u64) -> Self {
        ScaleConfig { nodes, ratings_per_node: 20, colluding_pairs: (nodes / 100).max(1), seed }
    }

    /// Every node id in the population, ascending.
    pub fn node_ids(&self) -> Vec<NodeId> {
        (1..=self.nodes).map(NodeId).collect()
    }

    /// The planted colluding pairs `(a, b)`, `a < b`.
    pub fn planted_pairs(&self) -> Vec<(NodeId, NodeId)> {
        let first = self.first_colluder();
        (0..self.colluding_pairs)
            .map(|k| (NodeId(first + 2 * k), NodeId(first + 2 * k + 1)))
            .collect()
    }

    fn first_colluder(&self) -> u64 {
        self.nodes - 2 * self.colluding_pairs + 1
    }

    /// Generate the full trace, time-ordered. Background ratings come
    /// first (one per tick), then the planted collusion and community
    /// pushback, so chunking the stream into equal epochs spreads the
    /// planted evidence across the final epochs.
    ///
    /// # Panics
    /// If the population cannot hold the planted pairs plus 10 distinct
    /// community raters (`nodes < 2·colluding_pairs + 10`).
    pub fn generate(&self) -> Vec<Rating> {
        let first_colluder = self.first_colluder();
        let honest = first_colluder - 1;
        assert!(honest >= 10, "need ≥10 honest nodes for the community raters");
        let mut s = self.seed ^ 0x5ca1_e000_0000_0000;
        let mut out = Vec::with_capacity(
            (self.nodes * self.ratings_per_node) as usize + 70 * self.colluding_pairs as usize,
        );
        let mut t = 0u64;
        for _ in 0..self.nodes * self.ratings_per_node {
            let rater = 1 + splitmix(&mut s) % honest;
            // u² popularity: low ids absorb most ratings (heavy tail)
            let u = (splitmix(&mut s) >> 11) as f64 / (1u64 << 53) as f64;
            let mut ratee = 1 + ((honest as f64) * u * u) as u64;
            if ratee > honest {
                ratee = honest;
            }
            if ratee == rater {
                ratee = 1 + ratee % honest;
                if ratee == rater {
                    continue;
                }
            }
            let v = if splitmix(&mut s).is_multiple_of(10) {
                RatingValue::Negative
            } else {
                RatingValue::Positive
            };
            out.push(Rating::new(NodeId(rater), NodeId(ratee), v, SimTime(t)));
            t += 1;
        }
        for (a, b) in self.planted_pairs() {
            for _ in 0..30 {
                out.push(Rating::positive(a, b, SimTime(t)));
                out.push(Rating::positive(b, a, SimTime(t)));
                t += 1;
            }
            // 10 distinct community raters each file one complaint per
            // colluder: infrequent (below T_N), so they implicate nobody
            let base = splitmix(&mut s) % (honest - 10);
            for k in 0..10 {
                let rater = NodeId(1 + base + k);
                out.push(Rating::negative(rater, a, SimTime(t)));
                out.push(Rating::negative(rater, b, SimTime(t)));
                t += 1;
            }
        }
        out
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use collusion_reputation::history::InteractionHistory;

    #[test]
    fn deterministic_and_self_rating_free() {
        let cfg = ScaleConfig::at_scale(300, 9);
        let a = cfg.generate();
        let b = cfg.generate();
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a.iter().all(|r| r.rater != r.ratee));
    }

    #[test]
    fn planted_pair_statistics_are_exact() {
        let cfg = ScaleConfig::at_scale(500, 3);
        let mut h = InteractionHistory::new();
        for r in cfg.generate() {
            h.record(r);
        }
        for (a, b) in cfg.planted_pairs() {
            for (x, y) in [(a, b), (b, a)] {
                assert_eq!(h.pair(x, y).total, 30, "partner count {x}->{y}");
                assert_eq!(h.pair(x, y).positive, 30);
                assert_eq!(h.ratings_for(y), 40, "N_i of {y}");
                assert_eq!(h.signed_reputation(y), 20, "R_i of {y}");
            }
        }
    }

    #[test]
    fn background_is_mostly_positive_and_heavy_tailed() {
        let cfg = ScaleConfig::at_scale(1000, 17);
        let ratings = cfg.generate();
        let background: Vec<_> = ratings
            .iter()
            .filter(|r| r.ratee.raw() <= cfg.nodes - 2 * cfg.colluding_pairs)
            .collect();
        let pos = background.iter().filter(|r| r.value == RatingValue::Positive).count();
        let frac = pos as f64 / background.len() as f64;
        assert!(frac > 0.85 && frac < 0.95, "positive fraction {frac}");
        // popularity skew: under u² placement the busiest decile holds
        // √0.1 ≈ 32 % of the mass — over 3× its proportional share
        let mut counts = vec![0u64; cfg.nodes as usize + 1];
        for r in &background {
            counts[r.ratee.raw() as usize] += 1;
        }
        counts.sort_unstable_by(|x, y| y.cmp(x));
        let top: u64 = counts[..cfg.nodes as usize / 10].iter().sum();
        let total: u64 = counts.iter().sum();
        assert!(top * 10 > total * 3, "top decile holds {top}/{total}");
    }
}

//! Synthetic Overstock Auction trace generator — the bidirectional
//! marketplace of Figure 1(d).
//!
//! "We crawled the ratings among approximately 100,000 users with over
//! 450,000 transactions during Oct., 2009 to Sept., 2010." Unlike Amazon,
//! every user can be both seller and buyer, so collusion is visible as
//! mutual high-frequency rating edges. The generator injects pair colluders
//! (the paper's finding — C5) and can optionally inject ≥3-member colluding
//! groups, which the paper observed *never* occur, so the graph analysis can
//! demonstrate both the negative result and the future-work probe.

use crate::model::{Trace, TraceRecord};
use collusion_reputation::id::NodeId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Generator configuration.
#[derive(Clone, Debug)]
pub struct OverstockConfig {
    /// Number of users (paper: ~100,000).
    pub users: u64,
    /// Number of ordinary transactions (paper: ~450,000).
    pub transactions: u64,
    /// Number of colluding pairs to inject.
    pub colluding_pairs: u64,
    /// Sizes of colluding *groups* (≥3) to inject; empty reproduces the
    /// paper's observation that none exist.
    pub colluding_groups: Vec<u64>,
    /// Mutual ratings per colluding relationship, inclusive range (must
    /// exceed the analysis edge threshold of 20 to be visible).
    pub collusion_ratings: (u64, u64),
    /// Probability an ordinary rating is positive.
    pub positive_rate: f64,
    /// Window length in days.
    pub days: u64,
    /// RNG seed.
    pub seed: u64,
}

impl OverstockConfig {
    /// Paper-calibrated configuration, volume-scaled by `scale`.
    pub fn paper(scale: f64, seed: u64) -> Self {
        assert!(scale > 0.0, "scale must be positive");
        OverstockConfig {
            users: ((100_000.0 * scale) as u64).max(500),
            transactions: ((450_000.0 * scale) as u64).max(2_000),
            colluding_pairs: 30,
            colluding_groups: Vec::new(),
            collusion_ratings: (21, 60),
            positive_rate: 0.9,
            days: 335,
            seed,
        }
    }
}

/// A generated trace plus ground truth.
#[derive(Clone, Debug)]
pub struct OverstockTrace {
    /// The rating records (both directions).
    pub trace: Trace,
    /// Total users.
    pub users: u64,
    /// Ground-truth colluding pairs (ids ascending within a pair).
    pub pairs: Vec<(NodeId, NodeId)>,
    /// Ground-truth colluding groups (member lists).
    pub groups: Vec<Vec<NodeId>>,
}

impl OverstockTrace {
    /// Every ground-truth colluder id, ascending and deduplicated.
    pub fn colluders(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self
            .pairs
            .iter()
            .flat_map(|&(a, b)| [a, b])
            .chain(self.groups.iter().flatten().copied())
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

/// Generate the trace described by `config`.
///
/// Colluders take the lowest user ids (pairs first, then groups) so figures
/// are easy to read; ordinary transactions draw uniformly over all users.
pub fn generate(config: &OverstockConfig) -> OverstockTrace {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut trace = Trace::new(config.days);
    let mut next_id = 0u64;
    // Colluding pairs.
    let mut pairs = Vec::with_capacity(config.colluding_pairs as usize);
    for _ in 0..config.colluding_pairs {
        let a = NodeId(next_id);
        let b = NodeId(next_id + 1);
        next_id += 2;
        pairs.push((a, b));
        let (lo, hi) = config.collusion_ratings;
        for (x, y) in [(a, b), (b, a)] {
            let count = rng.random_range(lo..=hi);
            for _ in 0..count {
                trace.records.push(TraceRecord {
                    rater: x,
                    ratee: y,
                    stars: 5,
                    day: rng.random_range(0..config.days),
                });
            }
        }
    }
    // Colluding groups (future-work probe): full mutual cliques.
    let mut groups = Vec::with_capacity(config.colluding_groups.len());
    for &size in &config.colluding_groups {
        assert!(size >= 3, "groups must have ≥3 members (use colluding_pairs for 2)");
        let members: Vec<NodeId> = (0..size)
            .map(|_| {
                let id = NodeId(next_id);
                next_id += 1;
                id
            })
            .collect();
        let (lo, hi) = config.collusion_ratings;
        for (i, &x) in members.iter().enumerate() {
            for &y in &members[i + 1..] {
                for (p, q) in [(x, y), (y, x)] {
                    let count = rng.random_range(lo..=hi);
                    for _ in 0..count {
                        trace.records.push(TraceRecord {
                            rater: p,
                            ratee: q,
                            stars: 5,
                            day: rng.random_range(0..config.days),
                        });
                    }
                }
            }
        }
        groups.push(members);
    }
    assert!(
        next_id <= config.users,
        "colluders ({next_id}) exceed the user pool ({})",
        config.users
    );
    // Ordinary transactions: uniform user pairs, ≈1 rating per pair.
    for _ in 0..config.transactions {
        let rater = NodeId(rng.random_range(0..config.users));
        let mut ratee = NodeId(rng.random_range(0..config.users));
        if ratee == rater {
            ratee = NodeId((ratee.raw() + 1) % config.users);
        }
        let stars = if rng.random_bool(config.positive_rate) {
            if rng.random_bool(0.7) {
                5
            } else {
                4
            }
        } else if rng.random_bool(0.5) {
            1
        } else {
            2
        };
        trace.records.push(TraceRecord {
            rater,
            ratee,
            stars,
            day: rng.random_range(0..config.days),
        });
    }
    OverstockTrace { trace, users: config.users, pairs, groups }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> OverstockConfig {
        OverstockConfig::paper(0.01, 4)
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&small());
        let b = generate(&small());
        assert_eq!(a.trace.records, b.trace.records);
    }

    #[test]
    fn pairs_rate_mutually_above_threshold() {
        let t = generate(&small());
        assert_eq!(t.pairs.len(), 30);
        for &(a, b) in &t.pairs {
            let ab = t.trace.records.iter().filter(|r| r.rater == a && r.ratee == b).count();
            let ba = t.trace.records.iter().filter(|r| r.rater == b && r.ratee == a).count();
            assert!(ab >= 21, "pair ({a},{b}) only {ab} ratings a→b");
            assert!(ba >= 21, "pair ({a},{b}) only {ba} ratings b→a");
        }
    }

    #[test]
    fn groups_form_full_mutual_cliques() {
        let mut cfg = small();
        cfg.colluding_groups = vec![3, 4];
        let t = generate(&cfg);
        assert_eq!(t.groups.len(), 2);
        for group in &t.groups {
            for &x in group {
                for &y in group {
                    if x != y {
                        let c =
                            t.trace.records.iter().filter(|r| r.rater == x && r.ratee == y).count();
                        assert!(c >= 21, "group edge {x}->{y} only {c}");
                    }
                }
            }
        }
    }

    #[test]
    fn colluders_listed_once_each() {
        let mut cfg = small();
        cfg.colluding_groups = vec![3];
        let t = generate(&cfg);
        let colluders = t.colluders();
        assert_eq!(colluders.len(), 30 * 2 + 3);
        let mut sorted = colluders.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), colluders.len());
    }

    #[test]
    fn no_self_ratings_in_ordinary_traffic() {
        let t = generate(&small());
        assert!(t.trace.records.iter().all(|r| r.rater != r.ratee));
    }

    #[test]
    #[should_panic(expected = "≥3 members")]
    fn two_member_group_rejected() {
        let mut cfg = small();
        cfg.colluding_groups = vec![2];
        let _ = generate(&cfg);
    }

    #[test]
    fn volume_near_configured_transactions() {
        let cfg = small();
        let t = generate(&cfg);
        let min = cfg.transactions as usize;
        assert!(t.trace.len() >= min);
        // collusive extra: ≤ pairs × 2 × 60
        assert!(t.trace.len() <= min + (cfg.colluding_pairs as usize) * 120 + 10);
    }
}

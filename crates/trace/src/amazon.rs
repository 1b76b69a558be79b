//! Synthetic Amazon book-seller trace generator.
//!
//! Calibrated to the crawl described in §III: 97 book sellers, ~2.1 M
//! ratings over the Apr 2009 – Apr 2010 window (351 days), seller
//! reputation levels spanning 0.67–0.98 (Figure 1a), an average of one
//! rating per seller–buyer pair per year for normal buyers (max ≈15), and
//! 18 suspicious sellers boosted by dedicated rater accounts submitting
//! 20–55 ratings/year of score 5 (Figure 1b raters 2–3) plus rival raters
//! submitting score 1 repeatedly (Figure 1b rater 1).
//!
//! Seller ids are `0..sellers.len()`, normal buyers follow, then boosters
//! and rivals — the generator returns the ground-truth assignments so the
//! analysis pipeline can be validated exactly.
//!
//! Generation is deterministic in the config seed and data-parallel per
//! seller (rayon), concatenated in seller order.

use crate::model::{Trace, TraceRecord};
use collusion_reputation::id::NodeId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// One seller's generation parameters.
#[derive(Clone, Copy, Debug)]
pub struct SellerSpec {
    /// Probability that an *organic* (non-collusive) rating is positive.
    /// Colluding sellers' published reputation ends up slightly above this
    /// thanks to booster ratings.
    pub organic_positive_rate: f64,
    /// Ratings received per year, including collusive ones.
    pub annual_ratings: u64,
    /// Whether this seller colludes with booster raters.
    pub colluding: bool,
}

/// Generator configuration.
#[derive(Clone, Debug)]
pub struct AmazonConfig {
    /// Sellers, in id order (seller id = index).
    pub sellers: Vec<SellerSpec>,
    /// Number of distinct normal buyer accounts.
    pub buyer_pool: u64,
    /// Crawl window in days.
    pub days: u64,
    /// Dedicated booster raters per colluding seller (paper: ≈139 raters
    /// over 18 sellers ≈ 8 each).
    pub boosters_per_colluder: u64,
    /// Booster ratings per year, inclusive range (paper: up to 55).
    pub booster_ratings: (u64, u64),
    /// Rival raters per colluding seller (Figure 1b shows one).
    pub rivals_per_colluder: u64,
    /// Rival ratings per year, inclusive range.
    pub rival_ratings: (u64, u64),
    /// Probability an organic rating is neutral (3 stars).
    pub neutral_prob: f64,
    /// RNG seed; every derived stream is seeded from this.
    pub seed: u64,
}

impl AmazonConfig {
    /// The paper-calibrated 97-seller configuration, volume-scaled by
    /// `scale` (1.0 ≈ 2 M ratings; use 0.01–0.1 for tests).
    pub fn paper(scale: f64, seed: u64) -> Self {
        assert!(scale > 0.0, "scale must be positive");
        let mut sellers = Vec::with_capacity(97);
        let vol = |v: u64| ((v as f64 * scale) as u64).max(60);
        // 18 colluding sellers: organic ≈0.93, boosted toward 0.94–0.97
        for k in 0..18 {
            sellers.push(SellerSpec {
                organic_positive_rate: 0.92 + 0.002 * (k % 5) as f64,
                annual_ratings: vol(24_000 + 500 * (k % 7)),
                colluding: true,
            });
        }
        // 12 honest high-reputed sellers (0.95–0.98)
        for k in 0..12 {
            sellers.push(SellerSpec {
                organic_positive_rate: 0.95 + 0.01 * (k % 4) as f64,
                annual_ratings: vol(28_000 + 1_000 * (k % 8)),
                colluding: false,
            });
        }
        // 40 median sellers (0.88–0.91)
        for k in 0..40 {
            sellers.push(SellerSpec {
                organic_positive_rate: 0.88 + 0.01 * (k % 4) as f64,
                annual_ratings: vol(12_000 + 800 * (k % 10)),
                colluding: false,
            });
        }
        // 27 low-reputed sellers (0.67–0.83)
        for k in 0..27 {
            sellers.push(SellerSpec {
                organic_positive_rate: 0.67 + 0.02 * (k % 9) as f64,
                annual_ratings: vol(2_000 + 500 * (k % 8)),
                colluding: false,
            });
        }
        AmazonConfig {
            sellers,
            buyer_pool: ((50_000.0 * scale) as u64).max(2_000),
            days: 351,
            boosters_per_colluder: 8,
            booster_ratings: (20, 55),
            rivals_per_colluder: 1,
            rival_ratings: (20, 40),
            neutral_prob: 0.02,
            seed,
        }
    }

    /// Total colluding sellers in the config.
    pub fn colluder_count(&self) -> usize {
        self.sellers.iter().filter(|s| s.colluding).count()
    }
}

/// A generated trace plus its ground truth.
#[derive(Clone, Debug)]
pub struct AmazonTrace {
    /// The rating records.
    pub trace: Trace,
    /// Seller specs, indexed by seller id.
    pub sellers: Vec<SellerSpec>,
    /// Ground truth: (booster rater, colluding seller) assignments.
    pub boosters: Vec<(NodeId, NodeId)>,
    /// Ground truth: (rival rater, targeted seller) assignments.
    pub rivals: Vec<(NodeId, NodeId)>,
}

impl AmazonTrace {
    /// Seller ids, `0..sellers.len()`.
    pub fn seller_ids(&self) -> Vec<NodeId> {
        (0..self.sellers.len() as u64).map(NodeId).collect()
    }

    /// Ids of the ground-truth colluding sellers.
    pub fn colluding_sellers(&self) -> Vec<NodeId> {
        self.sellers
            .iter()
            .enumerate()
            .filter(|(_, s)| s.colluding)
            .map(|(i, _)| NodeId(i as u64))
            .collect()
    }
}

/// Generate the trace described by `config`.
pub fn generate(config: &AmazonConfig) -> AmazonTrace {
    let n_sellers = config.sellers.len() as u64;
    let buyer_base = n_sellers;
    let special_base = buyer_base + config.buyer_pool;
    // Pre-assign booster/rival ids per colluding seller, in seller order.
    let mut boosters: Vec<(NodeId, NodeId)> = Vec::new();
    let mut rivals: Vec<(NodeId, NodeId)> = Vec::new();
    let mut next_special = special_base;
    let mut seller_specials: Vec<(Vec<NodeId>, Vec<NodeId>)> =
        Vec::with_capacity(config.sellers.len());
    for (sid, spec) in config.sellers.iter().enumerate() {
        let seller = NodeId(sid as u64);
        let mut b = Vec::new();
        let mut r = Vec::new();
        if spec.colluding {
            for _ in 0..config.boosters_per_colluder {
                let id = NodeId(next_special);
                next_special += 1;
                b.push(id);
                boosters.push((id, seller));
            }
            for _ in 0..config.rivals_per_colluder {
                let id = NodeId(next_special);
                next_special += 1;
                r.push(id);
                rivals.push((id, seller));
            }
        }
        seller_specials.push((b, r));
    }

    // Per-seller generation, parallel and deterministic.
    let per_seller: Vec<Vec<TraceRecord>> = config
        .sellers
        .par_iter()
        .enumerate()
        .map(|(sid, spec)| {
            let seller = NodeId(sid as u64);
            let mut rng = SmallRng::seed_from_u64(
                config.seed ^ (0x9e3779b97f4a7c15u64.wrapping_mul(sid as u64 + 1)),
            );
            let mut records = Vec::with_capacity(spec.annual_ratings as usize + 128);
            let (ref bs, ref rs) = seller_specials[sid];
            let mut special_total = 0u64;
            for &b in bs {
                let count = rng.random_range(config.booster_ratings.0..=config.booster_ratings.1);
                for _ in 0..count {
                    records.push(TraceRecord {
                        rater: b,
                        ratee: seller,
                        stars: 5,
                        day: rng.random_range(0..config.days),
                    });
                }
                special_total += count;
            }
            for &r in rs {
                let count = rng.random_range(config.rival_ratings.0..=config.rival_ratings.1);
                for _ in 0..count {
                    records.push(TraceRecord {
                        rater: r,
                        ratee: seller,
                        stars: 1,
                        day: rng.random_range(0..config.days),
                    });
                }
                special_total += count;
            }
            let organic = spec.annual_ratings.saturating_sub(special_total);
            for _ in 0..organic {
                let buyer = NodeId(buyer_base + rng.random_range(0..config.buyer_pool));
                let roll: f64 = rng.random();
                let stars = if roll < config.neutral_prob {
                    3
                } else if rng.random_bool(spec.organic_positive_rate) {
                    if rng.random_bool(0.7) {
                        5
                    } else {
                        4
                    }
                } else if rng.random_bool(0.6) {
                    1
                } else {
                    2
                };
                records.push(TraceRecord {
                    rater: buyer,
                    ratee: seller,
                    stars,
                    day: rng.random_range(0..config.days),
                });
            }
            records
        })
        .collect();

    let mut trace = Trace::new(config.days);
    trace.records.reserve(per_seller.iter().map(Vec::len).sum());
    for recs in per_seller {
        trace.records.extend(recs);
    }
    AmazonTrace { trace, sellers: config.sellers.clone(), boosters, rivals }
}

#[cfg(test)]
mod tests {
    use super::*;
    use collusion_reputation::rating::RatingValue;

    fn small() -> AmazonTrace {
        generate(&AmazonConfig::paper(0.01, 42))
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&AmazonConfig::paper(0.01, 7));
        let b = generate(&AmazonConfig::paper(0.01, 7));
        assert_eq!(a.trace.records, b.trace.records);
        let c = generate(&AmazonConfig::paper(0.01, 8));
        assert_ne!(a.trace.records, c.trace.records);
    }

    #[test]
    fn paper_config_has_97_sellers_and_18_colluders() {
        let cfg = AmazonConfig::paper(1.0, 0);
        assert_eq!(cfg.sellers.len(), 97);
        assert_eq!(cfg.colluder_count(), 18);
        // 18 × 8 boosters = 144 suspicious raters ≈ the paper's 139
        let t = generate(&AmazonConfig::paper(0.01, 0));
        assert_eq!(t.boosters.len(), 144);
        assert_eq!(t.rivals.len(), 18);
    }

    #[test]
    fn volume_scales_roughly_linearly() {
        let small = generate(&AmazonConfig::paper(0.01, 1)).trace.len() as f64;
        let big = generate(&AmazonConfig::paper(0.02, 1)).trace.len() as f64;
        let ratio = big / small;
        assert!((1.6..=2.4).contains(&ratio), "scaling ratio {ratio}");
    }

    #[test]
    fn full_scale_volume_near_two_million() {
        let cfg = AmazonConfig::paper(1.0, 0);
        let expected: u64 = cfg.sellers.iter().map(|s| s.annual_ratings).sum();
        assert!(
            (1_500_000..=2_600_000).contains(&expected),
            "full-scale volume {expected} not ≈2.1M"
        );
    }

    #[test]
    fn colluding_sellers_receive_booster_fives() {
        let t = small();
        let colluders = t.colluding_sellers();
        assert_eq!(colluders.len(), 18);
        let (booster, seller) = t.boosters[0];
        let count =
            t.trace.records.iter().filter(|r| r.rater == booster && r.ratee == seller).count()
                as u64;
        assert!((20..=55).contains(&count), "booster count {count}");
        assert!(t.trace.records.iter().filter(|r| r.rater == booster).all(|r| r.stars == 5));
    }

    #[test]
    fn rivals_submit_only_ones() {
        let t = small();
        let (rival, seller) = t.rivals[0];
        let ratings: Vec<&TraceRecord> =
            t.trace.records.iter().filter(|r| r.rater == rival).collect();
        assert!(ratings.len() >= 20);
        assert!(ratings.iter().all(|r| r.stars == 1 && r.ratee == seller));
    }

    #[test]
    fn organic_positive_rate_is_respected() {
        let t = small();
        // pick an honest high-reputed seller (id 18 = first honest)
        let seller = NodeId(18);
        let spec = t.sellers[18];
        assert!(!spec.colluding);
        let (mut pos, mut tot) = (0u64, 0u64);
        for r in t.trace.received_by(seller) {
            tot += 1;
            if r.value() == RatingValue::Positive {
                pos += 1;
            }
        }
        let frac = pos as f64 / tot as f64;
        assert!(
            (frac - spec.organic_positive_rate).abs() < 0.05,
            "positive fraction {frac} vs target {}",
            spec.organic_positive_rate
        );
    }

    #[test]
    fn normal_pair_frequency_stays_low() {
        let t = small();
        // count per (buyer, seller) pair among non-special raters
        use std::collections::HashMap;
        let special: std::collections::HashSet<NodeId> =
            t.boosters.iter().map(|&(b, _)| b).chain(t.rivals.iter().map(|&(r, _)| r)).collect();
        let mut counts: HashMap<(NodeId, NodeId), u64> = HashMap::new();
        for r in &t.trace.records {
            if !special.contains(&r.rater) {
                *counts.entry((r.rater, r.ratee)).or_default() += 1;
            }
        }
        let max = counts.values().copied().max().unwrap();
        assert!(max < 20, "a normal pair reached {max} ratings — would trip the filter");
        let avg = counts.values().sum::<u64>() as f64 / counts.len() as f64;
        assert!(avg < 3.0, "normal pair average {avg} too high (paper: ≈1)");
    }

    #[test]
    fn day_stamps_within_window() {
        let t = small();
        assert!(t.trace.records.iter().all(|r| r.day < t.trace.days));
        assert_eq!(t.trace.days, 351);
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn zero_scale_rejected() {
        let _ = AmazonConfig::paper(0.0, 0);
    }
}

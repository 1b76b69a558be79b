//! Formulas (1) and (2) and the Figure 4 surface.
//!
//! For a ratee `n_i` with partner rater `n_j`, let `N_i` be all ratings for
//! `n_i` in the period, `N(j,i)` the ratings from `n_j`, `a` the positive
//! fraction from `n_j` and `b` the positive fraction from everyone else.
//! With ±1 ratings the signed reputation decomposes exactly (Formula 1):
//!
//! ```text
//! R_i = 2·b·(N_i − N(j,i)) + 2·a·N(j,i) − N_i
//! ```
//!
//! Under the collusion hypothesis `1 ≥ a ≥ T_a` and `T_b > b ≥ 0`, `R_i` is
//! confined to the band of Formula (2):
//!
//! ```text
//! 2·T_b·(N_i − N(j,i)) + 2·N(j,i) − N_i  >  R_i  ≥  2·T_a·N(j,i) − N_i
//! ```
//!
//! The optimized detector tests that band in O(1) per pair instead of
//! scanning the row. [`Fig4Surface`] samples the same band over a grid of
//! `(N_i, N(j,i))`, regenerating the paper's Figure 4.
//!
//! **Neutral ratings.** The derivation assumes every rating is ±1. With
//! neutral (0) ratings present, `R_i` shifts toward zero while `N_i` counts
//! the neutrals, so the band check becomes conservative (neutral mass can
//! only move `R_i` *out* of the high band) — acceptable for a detector whose
//! trigger is *suspicion*, and the simulator only ever emits ±1 (as do eBay
//! and EigenTrust).

/// Formula (1): the signed reputation implied by `(a, b, n_i, n_ji)`.
///
/// Exact for ±1 ratings; fractional inputs return the expected value.
pub fn formula_reputation(a: f64, b: f64, n_i: u64, n_ji: u64) -> f64 {
    assert!(n_ji <= n_i, "pair ratings N(j,i)={n_ji} exceed total N_i={n_i}");
    2.0 * b * (n_i - n_ji) as f64 + 2.0 * a * n_ji as f64 - n_i as f64
}

/// The Formula (2) reputation band for a pair with totals `n_i`, `n_ji`
/// under thresholds `t_a`, `t_b`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReputationBand {
    /// Inclusive lower bound `2·T_a·N(j,i) − N_i`.
    pub lower: f64,
    /// Exclusive upper bound `2·T_b·(N_i − N(j,i)) + 2·N(j,i) − N_i`.
    pub upper: f64,
}

impl ReputationBand {
    /// Whether a signed reputation falls inside the band (lower inclusive,
    /// upper exclusive, matching `a ≥ T_a` and `b < T_b`).
    #[inline]
    pub fn contains(&self, r: f64) -> bool {
        r >= self.lower && r < self.upper
    }

    /// Whether the band is non-empty (`lower < upper`). An empty band means
    /// no `(a, b)` consistent with the thresholds can produce any reputation
    /// — the pair is unsuspectable at these counts.
    #[inline]
    pub fn is_feasible(&self) -> bool {
        self.lower < self.upper
    }
}

/// Formula (2): compute the suspicion band for the pair.
pub fn formula_band(t_a: f64, t_b: f64, n_i: u64, n_ji: u64) -> ReputationBand {
    assert!(n_ji <= n_i, "pair ratings N(j,i)={n_ji} exceed total N_i={n_i}");
    ReputationBand {
        lower: formula_reputation(t_a, 0.0, n_i, n_ji),
        upper: formula_reputation(1.0, t_b, n_i, n_ji),
    }
}

/// A sampled rendering of Figure 4: for each grid point `(N_i, N(j,i))`
/// with `N(j,i) ≤ N_i`, the suspicion band of reputations.
#[derive(Clone, Debug)]
pub struct Fig4Surface {
    /// Threshold `T_a` used.
    pub t_a: f64,
    /// Threshold `T_b` used.
    pub t_b: f64,
    /// Sampled points: `(n_i, n_ji, lower, upper)`.
    pub points: Vec<(u64, u64, f64, f64)>,
}

impl Fig4Surface {
    /// Sample the band over `n_i ∈ {step, 2·step, …, max_n}` and
    /// `n_ji ∈ {0, step, …, n_i}`.
    pub fn sample(t_a: f64, t_b: f64, max_n: u64, step: u64) -> Self {
        assert!(step > 0, "step must be positive");
        let mut points = Vec::new();
        let mut n_i = step;
        while n_i <= max_n {
            let mut n_ji = 0;
            while n_ji <= n_i {
                let band = formula_band(t_a, t_b, n_i, n_ji);
                points.push((n_i, n_ji, band.lower, band.upper));
                n_ji += step;
            }
            n_i += step;
        }
        Fig4Surface { t_a, t_b, points }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formula_reputation_matches_counting() {
        // 30 ratings from the partner, all positive; 10 from others, all
        // negative: R = 30 − 10 = 20.
        let r = formula_reputation(1.0, 0.0, 40, 30);
        assert_eq!(r, 20.0);
        // everyone positive: R = N_i
        assert_eq!(formula_reputation(1.0, 1.0, 40, 30), 40.0);
        // everyone negative: R = −N_i
        assert_eq!(formula_reputation(0.0, 0.0, 40, 30), -40.0);
    }

    #[test]
    fn formula_reputation_exact_against_enumeration() {
        // enumerate all integer splits for small counts
        for n_i in 1..=12u64 {
            for n_ji in 0..=n_i {
                let others = n_i - n_ji;
                for pos_j in 0..=n_ji {
                    for pos_o in 0..=others {
                        let a = if n_ji == 0 { 0.0 } else { pos_j as f64 / n_ji as f64 };
                        let b = if others == 0 { 0.0 } else { pos_o as f64 / others as f64 };
                        let expected =
                            (pos_j + pos_o) as i64 - ((n_ji - pos_j) + (others - pos_o)) as i64;
                        let got = formula_reputation(a, b, n_i, n_ji);
                        assert!(
                            (got - expected as f64).abs() < 1e-9,
                            "n_i={n_i} n_ji={n_ji} pos_j={pos_j} pos_o={pos_o}: {got} vs {expected}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn band_contains_colluder_profile() {
        // colluder: a=0.95 ≥ T_a=0.8, b=0.1 < T_b=0.2
        let n_i = 60;
        let n_ji = 40;
        let r = formula_reputation(0.95, 0.1, n_i, n_ji);
        let band = formula_band(0.8, 0.2, n_i, n_ji);
        assert!(band.contains(r), "colluder R={r} outside band {band:?}");
    }

    #[test]
    fn band_excludes_honest_profile() {
        // honest: community loves them too (b = 0.9)
        let n_i = 60;
        let n_ji = 40;
        let r = formula_reputation(0.95, 0.9, n_i, n_ji);
        let band = formula_band(0.8, 0.2, n_i, n_ji);
        assert!(!band.contains(r), "honest R={r} inside band {band:?}");
    }

    #[test]
    fn band_excludes_low_a_profile() {
        // partner not actually boosting (a = 0.3 < T_a)
        let n_i = 60;
        let n_ji = 40;
        let r = formula_reputation(0.3, 0.0, n_i, n_ji);
        let band = formula_band(0.8, 0.2, n_i, n_ji);
        assert!(!band.contains(r), "R={r} should fall below band {band:?}");
    }

    #[test]
    fn band_bounds_match_paper_expressions() {
        let (t_a, t_b, n_i, n_ji) = (0.8, 0.2, 100u64, 30u64);
        let band = formula_band(t_a, t_b, n_i, n_ji);
        assert!((band.lower - (2.0 * t_a * 30.0 - 100.0)).abs() < 1e-12);
        assert!((band.upper - (2.0 * t_b * 70.0 + 60.0 - 100.0)).abs() < 1e-12);
    }

    #[test]
    fn band_infeasible_when_pair_share_too_small() {
        // if the partner contributes almost nothing, no reputation can
        // satisfy both a ≥ T_a and b < T_b with a high R — with small n_ji
        // the band collapses (lower ≥ upper) once 2·T_a·n_ji − n_i exceeds
        // the maximum the community can add
        let band = formula_band(1.0, 0.0, 100, 0);
        assert!(!band.is_feasible(), "band {band:?} should be empty");
    }

    #[test]
    fn exhaustive_band_equivalence_with_fraction_test() {
        // For every integer rating split, band membership of the exact R
        // must coincide with (a ≥ T_a && b < T_b) — this is the key
        // soundness property making Optimized ≡ Basic on ±1 ratings.
        // Splits with no community ratings (others == 0) are excluded: both
        // detectors require outside evidence (C2), and the band's upper
        // bound legitimately excludes the a=1, others=0 corner.
        let (t_a, t_b) = (0.8, 0.2);
        for n_i in 1..=14u64 {
            for n_ji in 1..n_i {
                let others = n_i - n_ji;
                for pos_j in 0..=n_ji {
                    for pos_o in 0..=others {
                        let a = pos_j as f64 / n_ji as f64;
                        let b = if others == 0 { 0.0 } else { pos_o as f64 / others as f64 };
                        let r = formula_reputation(a, b, n_i, n_ji);
                        let band = formula_band(t_a, t_b, n_i, n_ji);
                        let fraction_test = a >= t_a && b < t_b;
                        // The band test is *necessary* for the fraction test:
                        if fraction_test {
                            assert!(
                                band.contains(r),
                                "fraction-suspicious split escaped the band: \
                                 n_i={n_i} n_ji={n_ji} pos_j={pos_j} pos_o={pos_o}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fig4_surface_dimensions() {
        let s = Fig4Surface::sample(0.8, 0.2, 40, 10);
        // n_i ∈ {10,20,30,40}; for each, n_ji ∈ {0,10,…,n_i}
        assert_eq!(s.points.len(), 2 + 3 + 4 + 5);
        for &(n_i, n_ji, lower, upper) in &s.points {
            assert!(n_ji <= n_i);
            let band = formula_band(0.8, 0.2, n_i, n_ji);
            assert_eq!(lower, band.lower);
            assert_eq!(upper, band.upper);
        }
    }

    #[test]
    #[should_panic(expected = "exceed total")]
    fn pair_count_exceeding_total_rejected() {
        let _ = formula_reputation(1.0, 0.0, 5, 6);
    }
}

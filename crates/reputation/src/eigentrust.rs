//! EigenTrust global reputation engines.
//!
//! Two engines are provided:
//!
//! * [`EigenTrust`] — the canonical power iteration
//!   `t⁽ᵏ⁺¹⁾ = (1−α)·Cᵀ·t⁽ᵏ⁾ + α·p` over the normalized local-trust matrix
//!   `C` with pretrusted distribution `p` and damping `α` (Kamvar et al.,
//!   WWW 2003). The iteration count and multiply-add operations are exposed
//!   for the Figure 13 cost comparison ("the operation cost in EigenTrust is
//!   caused by the recursive matrix calculation, which is determined by the
//!   number of the nodes in the system").
//!
//! * [`WeightedSumEngine`] — the variant the paper's evaluation section
//!   actually simulates: `R_i = Σ_j w_l·r_{ji} + Σ_p w_s·r_{pi}` where `w_l`
//!   is the weight of ordinary raters and `w_s > w_l` the weight of
//!   pretrusted raters (§V: `w_l = 0.2`, `w_s = 0.5`). Reputations are then
//!   normalized to sum to one so distributions are comparable across
//!   scenarios, matching the magnitudes in Figures 5–11.

use crate::history::InteractionHistory;
use crate::id::NodeId;
use crate::trust_matrix::TrustMatrix;

/// Configuration of the canonical EigenTrust power iteration.
#[derive(Clone, Copy, Debug)]
pub struct EigenTrustConfig {
    /// Damping factor `α` (probability of teleporting to pretrusted nodes).
    pub alpha: f64,
    /// L1 convergence tolerance.
    pub epsilon: f64,
    /// Iteration cap.
    pub max_iterations: usize,
}

impl Default for EigenTrustConfig {
    fn default() -> Self {
        EigenTrustConfig { alpha: 0.1, epsilon: 1e-9, max_iterations: 200 }
    }
}

/// Result of one EigenTrust computation.
#[derive(Clone, Debug)]
pub struct EigenTrustResult {
    /// Global trust vector, indexed by dense node id; sums to 1.
    pub trust: Vec<f64>,
    /// Iterations executed until convergence (or the cap).
    pub iterations: usize,
    /// Whether the L1 tolerance was reached within the cap.
    pub converged: bool,
    /// Multiply-add operations performed (cost metric for Figure 13).
    pub operations: u64,
}

impl EigenTrustResult {
    /// Trust value of a node (zero if out of range).
    pub fn trust_of(&self, node: NodeId) -> f64 {
        self.trust.get(node.raw() as usize).copied().unwrap_or(0.0)
    }

    /// Nodes ranked by trust, highest first, ties broken by id.
    pub fn ranking(&self) -> Vec<(NodeId, f64)> {
        let mut v: Vec<(NodeId, f64)> =
            self.trust.iter().enumerate().map(|(i, &t)| (NodeId(i as u64), t)).collect();
        v.sort_by(|a, b| {
            b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
        });
        v
    }
}

/// The canonical EigenTrust power-iteration engine.
#[derive(Clone, Debug, Default)]
pub struct EigenTrust {
    /// Iteration parameters.
    pub config: EigenTrustConfig,
}

impl EigenTrust {
    /// Engine with the given configuration.
    pub fn new(config: EigenTrustConfig) -> Self {
        EigenTrust { config }
    }

    /// Uniform pretrusted distribution over `pretrusted` within `0..n`
    /// (uniform over *all* nodes when the set is empty, as EigenTrust
    /// prescribes).
    pub fn pretrusted_distribution(n: usize, pretrusted: &[NodeId]) -> Vec<f64> {
        let mut p = vec![0.0; n];
        let in_range: Vec<usize> =
            pretrusted.iter().map(|id| id.raw() as usize).filter(|&i| i < n).collect();
        if in_range.is_empty() {
            let u = 1.0 / n as f64;
            p.fill(u);
        } else {
            let share = 1.0 / in_range.len() as f64;
            for i in in_range {
                p[i] += share;
            }
        }
        p
    }

    /// Run the power iteration on `matrix` with pretrusted set `pretrusted`.
    pub fn compute(&self, matrix: &TrustMatrix, pretrusted: &[NodeId]) -> EigenTrustResult {
        let n = matrix.n();
        assert!(n > 0, "EigenTrust needs at least one node");
        let p = Self::pretrusted_distribution(n, pretrusted);
        let mut t = p.clone();
        let mut next = vec![0.0; n];
        let mut operations = 0u64;
        let alpha = self.config.alpha;
        let mut iterations = 0;
        let mut converged = false;
        while iterations < self.config.max_iterations {
            operations += matrix.transpose_mul_with_fallback(&t, &p, &mut next);
            let mut delta = 0.0;
            for i in 0..n {
                next[i] = (1.0 - alpha) * next[i] + alpha * p[i];
                delta += (next[i] - t[i]).abs();
            }
            operations += 2 * n as u64;
            std::mem::swap(&mut t, &mut next);
            iterations += 1;
            if delta < self.config.epsilon {
                converged = true;
                break;
            }
        }
        // Normalize defensively against floating drift.
        let sum: f64 = t.iter().sum();
        if sum > 0.0 {
            for v in &mut t {
                *v /= sum;
            }
        }
        EigenTrustResult { trust: t, iterations, converged, operations }
    }

    /// Convenience: build the matrix from `history` over `0..n` and compute.
    pub fn compute_from_history(
        &self,
        history: &InteractionHistory,
        n: usize,
        pretrusted: &[NodeId],
    ) -> EigenTrustResult {
        let matrix = TrustMatrix::from_history(history, n);
        self.compute(&matrix, pretrusted)
    }
}

/// Configuration of the paper's weighted-sum reputation (§V).
#[derive(Clone, Copy, Debug)]
pub struct WeightedSumConfig {
    /// Weight `w_l` of ratings from ordinary nodes (paper: 0.2).
    pub w_l: f64,
    /// Weight `w_s` of ratings from pretrusted nodes (paper: 0.5).
    pub w_s: f64,
    /// Normalize the final vector to sum to one (matches the figures'
    /// reputation-distribution scale).
    pub normalize: bool,
}

impl Default for WeightedSumConfig {
    fn default() -> Self {
        WeightedSumConfig { w_l: 0.2, w_s: 0.5, normalize: true }
    }
}

/// The weighted-sum engine: `R_i = Σ_j w·r_{ji}` with per-rater weights.
#[derive(Clone, Debug, Default)]
pub struct WeightedSumEngine {
    /// Weights and normalization settings.
    pub config: WeightedSumConfig,
}

impl WeightedSumEngine {
    /// Engine with the given configuration.
    pub fn new(config: WeightedSumConfig) -> Self {
        WeightedSumEngine { config }
    }

    /// Compute reputations for nodes `0..n`. `pretrusted` selects the raters
    /// whose ratings carry weight `w_s`; every other rater carries `w_l`.
    ///
    /// Negative raw sums are floored at zero before normalization so that a
    /// node's reputation cannot be negative mass in the distribution (the
    /// figures plot non-negative values only); the raw signed value is
    /// returned alongside for threshold checks.
    pub fn compute(
        &self,
        history: &InteractionHistory,
        n: usize,
        pretrusted: &[NodeId],
    ) -> WeightedSumResult {
        let mut raw = vec![0.0f64; n];
        let mut operations = 0u64;
        let pretrusted_mask: Vec<bool> = {
            let mut mask = vec![false; n];
            for id in pretrusted {
                let i = id.raw() as usize;
                if i < n {
                    mask[i] = true;
                }
            }
            mask
        };
        // Sort pairs so float accumulation order is deterministic across
        // processes (HashMap iteration order is seeded per process).
        let mut pairs: Vec<(NodeId, NodeId, i64)> =
            history.iter_pairs().map(|(rater, ratee, c)| (rater, ratee, c.signed())).collect();
        pairs.sort_unstable_by_key(|&(rater, ratee, _)| (ratee, rater));
        for (rater, ratee, signed) in pairs {
            let (j, i) = (rater.raw() as usize, ratee.raw() as usize);
            if j >= n || i >= n {
                continue;
            }
            let w = if pretrusted_mask[j] { self.config.w_s } else { self.config.w_l };
            raw[i] += w * signed as f64;
            operations += 1;
        }
        let mut rep: Vec<f64> = raw.iter().map(|&v| v.max(0.0)).collect();
        if self.config.normalize {
            let sum: f64 = rep.iter().sum();
            if sum > 0.0 {
                for v in &mut rep {
                    *v /= sum;
                }
            }
            operations += n as u64;
        }
        WeightedSumResult { reputation: rep, raw, operations }
    }
}

/// The trust-normalized weighted-sum engine.
///
/// Reads the paper's `R_i = Σ_j w_l·r_{ji} + Σ_p w_s·r_{pi}` with `r_{ji}`
/// as EigenTrust's *normalized local trust* `c_{ji} ∈ [0, 1]` rather than
/// the raw signed rating sum: each rater contributes at most one vote,
/// however many ratings it submits, pretrusted votes weigh `w_s`. This is
/// one damped EigenTrust step and caps the leverage of sheer rating volume;
/// the plain [`WeightedSumEngine`] keeps the raw-sum reading. The simulator
/// exposes both so the evaluation can compare them.
#[derive(Clone, Debug, Default)]
pub struct NormalizedWeightedEngine {
    /// Weights and normalization settings (shared with the raw-sum engine).
    pub config: WeightedSumConfig,
}

impl NormalizedWeightedEngine {
    /// Engine with the given configuration.
    pub fn new(config: WeightedSumConfig) -> Self {
        NormalizedWeightedEngine { config }
    }

    /// Compute reputations for nodes `0..n`.
    pub fn compute(
        &self,
        history: &InteractionHistory,
        n: usize,
        pretrusted: &[NodeId],
    ) -> WeightedSumResult {
        let matrix = TrustMatrix::from_history(history, n);
        let mut pretrusted_mask = vec![false; n];
        for id in pretrusted {
            let i = id.raw() as usize;
            if i < n {
                pretrusted_mask[i] = true;
            }
        }
        let mut raw = vec![0.0f64; n];
        let mut operations = 0u64;
        for (j, &is_pre) in pretrusted_mask.iter().enumerate() {
            let w = if is_pre { self.config.w_s } else { self.config.w_l };
            for &(i, c) in matrix.row(j) {
                raw[i as usize] += w * c;
                operations += 1;
            }
        }
        let mut rep: Vec<f64> = raw.clone();
        if self.config.normalize {
            let sum: f64 = rep.iter().sum();
            if sum > 0.0 {
                for v in &mut rep {
                    *v /= sum;
                }
            }
            operations += n as u64;
        }
        WeightedSumResult { reputation: rep, raw, operations }
    }
}

/// Result of a weighted-sum computation.
#[derive(Clone, Debug)]
pub struct WeightedSumResult {
    /// Non-negative (optionally normalized) reputation per node.
    pub reputation: Vec<f64>,
    /// Raw signed weighted sums before flooring/normalization.
    pub raw: Vec<f64>,
    /// Operation count (weighted accumulations + normalization).
    pub operations: u64,
}

impl WeightedSumResult {
    /// Reputation of a node (zero if out of range).
    pub fn reputation_of(&self, node: NodeId) -> f64 {
        self.reputation.get(node.raw() as usize).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::SimTime;
    use crate::rating::Rating;

    fn chain_history(n: usize, reps: usize) -> InteractionHistory {
        // ring of goodwill: i rates i+1 mod n positively `reps` times
        let mut h = InteractionHistory::new();
        let mut t = 0;
        for i in 0..n {
            for _ in 0..reps {
                h.record(Rating::positive(
                    NodeId(i as u64),
                    NodeId(((i + 1) % n) as u64),
                    SimTime(t),
                ));
                t += 1;
            }
        }
        h
    }

    #[test]
    fn symmetric_ring_yields_uniform_trust() {
        let h = chain_history(5, 3);
        let res = EigenTrust::default().compute_from_history(&h, 5, &[]);
        assert!(res.converged);
        for &v in &res.trust {
            assert!((v - 0.2).abs() < 1e-6, "expected uniform, got {:?}", res.trust);
        }
        assert!((res.trust.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pretrusted_distribution_uniform_when_empty() {
        let p = EigenTrust::pretrusted_distribution(4, &[]);
        assert_eq!(p, vec![0.25; 4]);
    }

    #[test]
    fn pretrusted_distribution_concentrates_on_set() {
        let p = EigenTrust::pretrusted_distribution(4, &[NodeId(1), NodeId(3)]);
        assert_eq!(p, vec![0.0, 0.5, 0.0, 0.5]);
    }

    #[test]
    fn pretrusted_distribution_ignores_out_of_range() {
        let p = EigenTrust::pretrusted_distribution(2, &[NodeId(0), NodeId(9)]);
        assert_eq!(p, vec![1.0, 0.0]);
    }

    #[test]
    fn well_behaved_node_earns_more_trust() {
        // everyone rates n0 positively; n0 rates n1 positively
        let mut h = InteractionHistory::new();
        for j in 1..5u64 {
            for t in 0..3 {
                h.record(Rating::positive(NodeId(j), NodeId(0), SimTime(t)));
            }
        }
        h.record(Rating::positive(NodeId(0), NodeId(1), SimTime(99)));
        let res = EigenTrust::default().compute_from_history(&h, 5, &[]);
        let r = res.ranking();
        assert_eq!(r[0].0, NodeId(0), "n0 should rank first: {:?}", r);
        assert!(res.trust_of(NodeId(0)) > res.trust_of(NodeId(2)));
    }

    #[test]
    fn trust_vector_is_a_distribution() {
        let h = chain_history(7, 2);
        let res = EigenTrust::default().compute_from_history(&h, 7, &[NodeId(0)]);
        let sum: f64 = res.trust.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(res.trust.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn iteration_cap_respected() {
        let h = chain_history(6, 1);
        let engine =
            EigenTrust::new(EigenTrustConfig { alpha: 0.0, epsilon: 0.0, max_iterations: 3 });
        let res = engine.compute_from_history(&h, 6, &[]);
        assert_eq!(res.iterations, 3);
        assert!(!res.converged);
        assert!(res.operations > 0);
    }

    #[test]
    fn weighted_sum_weights_pretrusted_higher() {
        let mut h = InteractionHistory::new();
        // pretrusted n0 rates n1 once (+); ordinary n2 rates n3 once (+)
        h.record(Rating::positive(NodeId(0), NodeId(1), SimTime(0)));
        h.record(Rating::positive(NodeId(2), NodeId(3), SimTime(1)));
        let engine =
            WeightedSumEngine::new(WeightedSumConfig { w_l: 0.2, w_s: 0.5, normalize: false });
        let res = engine.compute(&h, 4, &[NodeId(0)]);
        assert!((res.reputation_of(NodeId(1)) - 0.5).abs() < 1e-12);
        assert!((res.reputation_of(NodeId(3)) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn weighted_sum_normalizes_to_one() {
        let mut h = InteractionHistory::new();
        h.record(Rating::positive(NodeId(0), NodeId(1), SimTime(0)));
        h.record(Rating::positive(NodeId(0), NodeId(2), SimTime(1)));
        let res = WeightedSumEngine::default().compute(&h, 3, &[]);
        assert!((res.reputation.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_sum_floors_negative_reputation() {
        let mut h = InteractionHistory::new();
        h.record(Rating::negative(NodeId(0), NodeId(1), SimTime(0)));
        h.record(Rating::positive(NodeId(0), NodeId(2), SimTime(1)));
        let res = WeightedSumEngine::default().compute(&h, 3, &[]);
        assert_eq!(res.reputation_of(NodeId(1)), 0.0);
        assert!(res.raw[1] < 0.0);
        assert!(res.reputation_of(NodeId(2)) > 0.0);
    }

    #[test]
    fn collusion_inflates_weighted_sum_reputation() {
        // colluders n4, n5 rate each other 10 times; n1 serves well twice
        let mut h = InteractionHistory::new();
        for t in 0..10 {
            h.record(Rating::positive(NodeId(4), NodeId(5), SimTime(t)));
            h.record(Rating::positive(NodeId(5), NodeId(4), SimTime(t)));
        }
        h.record(Rating::positive(NodeId(2), NodeId(1), SimTime(50)));
        h.record(Rating::positive(NodeId(3), NodeId(1), SimTime(51)));
        let res = WeightedSumEngine::default().compute(&h, 6, &[]);
        assert!(
            res.reputation_of(NodeId(4)) > res.reputation_of(NodeId(1)),
            "colluders should outrank honest node under plain weighted sums"
        );
    }
}

//! Sparse normalized local-trust matrix for EigenTrust.
//!
//! EigenTrust defines the local trust value `c_ij` of node `i` in node `j`
//! as `max(s_ij, 0)` normalized over all of `i`'s positive local scores,
//! where `s_ij = #sat(i,j) − #unsat(i,j)`. The matrix `C = [c_ij]` is row
//! stochastic for rows with at least one positive score; rows without any
//! positive opinion fall back to the pretrusted distribution `p` (as in the
//! original paper), which we implement during the power iteration rather
//! than materializing dense rows.
//!
//! The representation is row-major sparse (each row a sorted `Vec` of
//! `(col, value)`), which keeps `t = Cᵀ·t` multiplications cache-friendly and
//! lets row scans parallelize with rayon at the call site.

use crate::history::InteractionHistory;
use crate::id::NodeId;

/// Row-major sparse matrix of normalized local trust values.
#[derive(Clone, Debug)]
pub struct TrustMatrix {
    /// Number of nodes (rows == cols == n); node ids are dense `0..n`.
    n: usize,
    /// `rows[i]` = sorted `(j, c_ij)` with `c_ij > 0`, summing to 1 unless
    /// the row is empty.
    rows: Vec<Vec<(u32, f64)>>,
}

impl TrustMatrix {
    /// Empty `n × n` matrix.
    pub fn empty(n: usize) -> Self {
        TrustMatrix { n, rows: vec![Vec::new(); n] }
    }

    /// Build from an interaction history over nodes `0..n`.
    ///
    /// `s_ij` is the signed pair score from `i` about `j`; negative scores
    /// are clamped to zero before normalization, exactly as EigenTrust
    /// specifies.
    pub fn from_history(history: &InteractionHistory, n: usize) -> Self {
        let mut rows: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
        // Collect positive scores per rater row.
        for (rater, ratee, counters) in history.iter_pairs() {
            let (i, j) = (rater.raw() as usize, ratee.raw() as usize);
            if i >= n || j >= n {
                continue;
            }
            let s = counters.signed();
            if s > 0 {
                rows[i].push((j as u32, s as f64));
            }
        }
        for row in &mut rows {
            row.sort_unstable_by_key(|&(j, _)| j);
            let sum: f64 = row.iter().map(|&(_, v)| v).sum();
            if sum > 0.0 {
                for entry in row.iter_mut() {
                    entry.1 /= sum;
                }
            }
        }
        TrustMatrix { n, rows }
    }

    /// Build directly from raw signed scores `(i, j, s_ij)`.
    pub fn from_scores(n: usize, scores: &[(NodeId, NodeId, f64)]) -> Self {
        let mut rows: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
        for &(i, j, s) in scores {
            let (i, j) = (i.raw() as usize, j.raw() as usize);
            if i >= n || j >= n || i == j {
                continue;
            }
            if s > 0.0 {
                rows[i].push((j as u32, s));
            }
        }
        for row in &mut rows {
            row.sort_unstable_by_key(|&(j, _)| j);
            // merge duplicate columns
            let mut merged: Vec<(u32, f64)> = Vec::with_capacity(row.len());
            for &(j, v) in row.iter() {
                match merged.last_mut() {
                    Some(last) if last.0 == j => last.1 += v,
                    _ => merged.push((j, v)),
                }
            }
            let sum: f64 = merged.iter().map(|&(_, v)| v).sum();
            if sum > 0.0 {
                for entry in merged.iter_mut() {
                    entry.1 /= sum;
                }
            }
            *row = merged;
        }
        TrustMatrix { n, rows }
    }

    /// Matrix dimension.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The normalized trust `c_ij`, zero if absent.
    pub fn get(&self, i: NodeId, j: NodeId) -> f64 {
        let (i, j) = (i.raw() as usize, j.raw() as u32);
        if i >= self.n {
            return 0.0;
        }
        self.rows[i]
            .binary_search_by_key(&j, |&(col, _)| col)
            .map(|idx| self.rows[i][idx].1)
            .unwrap_or(0.0)
    }

    /// The sparse row of node `i`.
    pub fn row(&self, i: usize) -> &[(u32, f64)] {
        &self.rows[i]
    }

    /// Whether row `i` has no positive opinion (EigenTrust substitutes the
    /// pretrusted distribution for such rows).
    pub fn row_is_empty(&self, i: usize) -> bool {
        self.rows[i].is_empty()
    }

    /// Number of stored (non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    /// Compute `out = Cᵀ · t` plus, for every empty row `i`, `t_i · p`
    /// (the pretrusted fallback). Returns the number of multiply-add
    /// operations performed, which feeds the Figure 13 cost accounting.
    pub fn transpose_mul_with_fallback(&self, t: &[f64], p: &[f64], out: &mut [f64]) -> u64 {
        assert_eq!(t.len(), self.n);
        assert_eq!(p.len(), self.n);
        assert_eq!(out.len(), self.n);
        out.fill(0.0);
        let mut ops = 0u64;
        for (i, row) in self.rows.iter().enumerate() {
            let ti = t[i];
            if row.is_empty() {
                if ti != 0.0 {
                    for (o, &pj) in out.iter_mut().zip(p.iter()) {
                        *o += ti * pj;
                    }
                    ops += self.n as u64;
                }
            } else {
                for &(j, c) in row {
                    out[j as usize] += c * ti;
                }
                ops += row.len() as u64;
            }
        }
        ops
    }

    /// Verify row-stochasticity: every non-empty row sums to 1 ± `eps`.
    pub fn is_row_stochastic(&self, eps: f64) -> bool {
        self.rows.iter().all(|row| {
            if row.is_empty() {
                true
            } else {
                let s: f64 = row.iter().map(|&(_, v)| v).sum();
                (s - 1.0).abs() <= eps
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::SimTime;
    use crate::rating::Rating;

    fn history() -> InteractionHistory {
        let mut h = InteractionHistory::new();
        // n0 about n1: 3 pos → s=3 ; n0 about n2: 1 pos → s=1
        for t in 0..3 {
            h.record(Rating::positive(NodeId(0), NodeId(1), SimTime(t)));
        }
        h.record(Rating::positive(NodeId(0), NodeId(2), SimTime(3)));
        // n1 about n2: 1 pos 2 neg → s=−1 → clamped to 0
        h.record(Rating::positive(NodeId(1), NodeId(2), SimTime(4)));
        h.record(Rating::negative(NodeId(1), NodeId(2), SimTime(5)));
        h.record(Rating::negative(NodeId(1), NodeId(2), SimTime(6)));
        h
    }

    #[test]
    fn rows_are_normalized() {
        let m = TrustMatrix::from_history(&history(), 3);
        assert!((m.get(NodeId(0), NodeId(1)) - 0.75).abs() < 1e-12);
        assert!((m.get(NodeId(0), NodeId(2)) - 0.25).abs() < 1e-12);
        assert!(m.is_row_stochastic(1e-12));
    }

    #[test]
    fn negative_scores_clamped_to_zero() {
        let m = TrustMatrix::from_history(&history(), 3);
        assert_eq!(m.get(NodeId(1), NodeId(2)), 0.0);
        assert!(m.row_is_empty(1));
        assert!(m.row_is_empty(2));
    }

    #[test]
    fn transpose_mul_distributes_trust() {
        let m = TrustMatrix::from_history(&history(), 3);
        let t = vec![1.0, 0.0, 0.0];
        let p = vec![1.0 / 3.0; 3];
        let mut out = vec![0.0; 3];
        m.transpose_mul_with_fallback(&t, &p, &mut out);
        assert!((out[1] - 0.75).abs() < 1e-12);
        assert!((out[2] - 0.25).abs() < 1e-12);
        assert_eq!(out[0], 0.0);
    }

    #[test]
    fn empty_rows_fall_back_to_pretrusted() {
        let m = TrustMatrix::from_history(&history(), 3);
        // all mass on node 1, whose row is empty → redistributed via p
        let t = vec![0.0, 1.0, 0.0];
        let p = vec![0.5, 0.25, 0.25];
        let mut out = vec![0.0; 3];
        m.transpose_mul_with_fallback(&t, &p, &mut out);
        assert_eq!(out, vec![0.5, 0.25, 0.25]);
        // total mass preserved
        assert!((out.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn from_scores_merges_duplicates() {
        let m = TrustMatrix::from_scores(
            3,
            &[
                (NodeId(0), NodeId(1), 1.0),
                (NodeId(0), NodeId(1), 1.0),
                (NodeId(0), NodeId(2), 2.0),
                (NodeId(0), NodeId(0), 7.0),  // self — ignored
                (NodeId(1), NodeId(2), -4.0), // negative — ignored
            ],
        );
        assert!((m.get(NodeId(0), NodeId(1)) - 0.5).abs() < 1e-12);
        assert!((m.get(NodeId(0), NodeId(2)) - 0.5).abs() < 1e-12);
        assert_eq!(m.get(NodeId(0), NodeId(0)), 0.0);
        assert!(m.row_is_empty(1));
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn out_of_range_ids_ignored() {
        let m = TrustMatrix::from_scores(2, &[(NodeId(0), NodeId(5), 1.0)]);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.get(NodeId(0), NodeId(5)), 0.0);
    }

    #[test]
    fn ops_counter_counts_multiply_adds() {
        let m = TrustMatrix::from_history(&history(), 3);
        let t = vec![1.0, 1.0, 1.0];
        let p = vec![1.0 / 3.0; 3];
        let mut out = vec![0.0; 3];
        let ops = m.transpose_mul_with_fallback(&t, &p, &mut out);
        // row 0 has 2 entries; rows 1,2 empty with nonzero t → n each
        assert_eq!(ops, 2 + 3 + 3);
    }
}

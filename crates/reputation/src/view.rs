//! [`SnapshotView`] — the read-only probe interface detection kernels run
//! against.
//!
//! The detectors in `collusion-core` only ever *read* a frozen rating
//! matrix: rows, pair probes, per-ratee totals and the optional frequent
//! aggregates. Abstracting those probes behind a trait lets the same kernel
//! code run over a whole [`crate::sharded::ShardedSnapshot`] and over the
//! pipelined engine's partial slice of one (only the rows a close's
//! candidates touch), so both share one definition of every quantity.
//!
//! The `Sync` supertrait lets the forked epoch re-check probe a view from
//! many threads; views are frozen during a detection pass, so no locks are
//! needed.

use crate::history::{NodeTotals, PairCounters};
use crate::id::NodeId;

/// Read-only probe interface over a frozen CSR rating matrix.
///
/// All methods take dense `u32` indices (see [`SnapshotView::index`]);
/// interning is ascending by [`NodeId`], so ascending index order is
/// ascending id order for every implementor.
pub trait SnapshotView: Sync {
    /// Number of interned nodes.
    fn n(&self) -> usize;

    /// The interned node ids, ascending (dense index → id).
    fn nodes(&self) -> &[NodeId];

    /// The node id of dense index `idx`.
    fn node_id(&self, idx: u32) -> NodeId;

    /// The dense index of `id`, if interned.
    fn index(&self, id: NodeId) -> Option<u32>;

    /// Number of stored (rater, ratee) cells, overlays resolved.
    fn nnz(&self) -> usize;

    /// The forward row of ratee `idx`: rater indices (ascending) and their
    /// counters.
    fn row(&self, idx: u32) -> (&[u32], &[PairCounters]);

    /// Counters for the ordered pair (rater → ratee), zero if absent.
    fn pair(&self, rater: u32, ratee: u32) -> PairCounters;

    /// Aggregate counters for ratee `idx` (`N_i` and the split).
    fn totals_of(&self, idx: u32) -> NodeTotals;

    /// Signed reputation `R_i = #pos − #neg` of ratee `idx`.
    fn signed(&self, idx: u32) -> i64 {
        self.totals_of(idx).signed()
    }

    /// The precomputed frequent aggregate for ratee `idx`, if aggregates
    /// were computed for exactly this `t_n`.
    fn frequent_agg(&self, t_n: u64, idx: u32) -> Option<(u64, i64)>;

    /// Compute the frequent aggregate for one row directly: `(count,
    /// signed sum)` over raters with `N(j,i) ≥ t_n`.
    fn row_freq(&self, idx: u32, t_n: u64) -> (u64, i64) {
        let (_, cells) = self.row(idx);
        let mut count = 0u64;
        let mut signed = 0i64;
        for c in cells {
            if c.total >= t_n {
                count += c.total;
                signed += c.signed();
            }
        }
        (count, signed)
    }
}

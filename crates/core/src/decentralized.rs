//! The direction-test kernel a decentralized manager runs (§IV.B–C).
//!
//! The managers are high-reputed "power nodes" forming a Chord ring;
//! manager `M_i` (the DHT owner of `ID_i`) holds every rating *about*
//! `n_i`. `M_i` runs the forward direction test for each of its responsible
//! high-reputed nodes locally; when node `n_i` looks boosted by `n_j` and
//! `n_j` is managed elsewhere, `M_i` asks `M_j` to confirm. `M_j` verifies
//! `R_j ≥ T_R`, `N(i,j) ≥ T_N` and the reverse direction test and answers
//! positively iff they hold. The in-process protocol is
//! [`crate::system::DecentralizedSystem`]; the TCP one is
//! [`crate::net::server::ManagerNode`]. Both probe a frozen slice through
//! one dispatch on [`Method`].

use crate::basic::BasicDetector;
use crate::cost::CostMeter;
use crate::model::DirectionEvidence;
use crate::optimized::OptimizedDetector;
use crate::policy::DetectionPolicy;
use collusion_reputation::sharded::ShardedSnapshot;
use collusion_reputation::thresholds::Thresholds;

/// Which direction-test the managers run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// Row-scanning fraction test (§IV.B).
    Basic,
    /// Formula (2) band test (§IV.C).
    Optimized,
}

impl Method {
    /// The direction test `ratee ← rater` on a frozen slice. `rater` is
    /// `None` when the slice has never seen the rater (zero counters).
    pub(crate) fn direction(
        self,
        thresholds: Thresholds,
        policy: DetectionPolicy,
        snap: &ShardedSnapshot,
        (ratee, rater): (u32, Option<u32>),
        meter: &CostMeter,
        cache: &mut [Option<(u64, i64)>],
    ) -> Option<DirectionEvidence> {
        match self {
            Method::Basic => BasicDetector::with_policy(thresholds, policy)
                .check_direction_snap(snap, ratee, rater, meter),
            Method::Optimized => OptimizedDetector::with_policy(thresholds, policy)
                .direction_cached(snap, ratee, rater, meter, cache),
        }
    }
}

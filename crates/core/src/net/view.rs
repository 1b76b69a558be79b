//! The read view [`super::server::ManagerNode`] publishes for its query
//! path.
//!
//! The server publishes an immutable [`PublishedView`] (the node table
//! and signed reputations) after every close and every `PUBLISH_EVERY`
//! stream inserts, by swapping the `Arc` behind an `RwLock`. A `Query`
//! clones that `Arc` under the read lock and answers from the clone, so a
//! reader holds the lock for one reference-count increment and never waits
//! on detection or ingest; a writer holds it for one pointer store.

use std::sync::Arc;

use collusion_reputation::id::NodeId;

/// An immutable read view: everything a query path needs, behind one
/// `Arc`.
#[derive(Clone, Debug)]
pub struct PublishedView {
    /// The publication (1-based) this view is; 0 = initial empty state.
    pub epoch: u64,
    /// Interned node ids, ascending (dense index → id). Shared behind an
    /// `Arc`: the id set only changes when a close interns fresh nodes, so
    /// successive views usually alias one allocation instead of each close
    /// copying the full vector.
    pub nodes: Arc<Vec<NodeId>>,
    /// Signed reputation per dense index.
    pub signed: Vec<i64>,
}

impl PublishedView {
    /// Signed reputation of `id`, `None` if never rated.
    pub fn reputation(&self, id: NodeId) -> Option<i64> {
        self.nodes.binary_search(&id).ok().map(|i| self.signed[i])
    }
}

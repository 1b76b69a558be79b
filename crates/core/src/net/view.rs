//! Lock-free read publication for [`super::server::ManagerNode`]'s query
//! path.
//!
//! The server publishes an immutable [`PublishedView`] (the node table
//! and signed reputations) through a [`ViewCell`] after every close and every
//! `PUBLISH_EVERY` stream inserts. Readers hold a
//! [`ViewReader`] whose `get` fast path is a single atomic version load —
//! no lock, no allocation — and only on a version change clones the new
//! `Arc` out of the cell.
//!
//! Memory ordering: the publisher stores the new `Arc` into the slot
//! *before* bumping the version with `Release`; a reader that observes the
//! bumped version with `Acquire` therefore synchronizes-with the bump, and
//! everything sequenced before it — including the slot store — is visible
//! to the reader's subsequent slot read. A reader that races ahead of the
//! bump simply keeps serving the previous immutable view: readers never
//! block writers, writers never wait for readers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use collusion_reputation::id::NodeId;

/// An immutable read view: everything a query path needs, behind one
/// `Arc`.
#[derive(Clone, Debug)]
pub struct PublishedView {
    /// The close (1-based) this view reflects; 0 = initial empty state.
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

/// Single-writer multi-reader cell holding the current [`PublishedView`].
///
/// Publication protocol (the module docs give the full argument): the
/// writer replaces the slot, then bumps `version` with `Release`; readers
/// check `version` with `Acquire` and reread the slot only on a change.
/// The `RwLock` is held only for the duration of an `Arc` clone or store
/// — never while detection or query work runs — and the reader fast path
/// does not touch it at all.
#[derive(Debug)]
pub struct ViewCell {
    slot: RwLock<Arc<PublishedView>>,
    version: AtomicU64,
}

impl ViewCell {
    /// Cell starting at `initial` (version 0).
    pub fn new(initial: PublishedView) -> Self {
        ViewCell { slot: RwLock::new(Arc::new(initial)), version: AtomicU64::new(0) }
    }

    /// Monotonic publication counter (bumped once per publication).
    #[inline]
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Clone the current view out of the cell.
    pub fn load(&self) -> Arc<PublishedView> {
        self.slot.read().expect("view cell poisoned").clone()
    }

    /// Replace the published view and bump the version. Single-writer by
    /// convention: only the cell's owning server calls this.
    pub fn publish(&self, view: Arc<PublishedView>) {
        *self.slot.write().expect("view cell poisoned") = view;
        // Release: the slot store above happens-before any Acquire load
        // that observes the bumped version
        self.version.fetch_add(1, Ordering::Release);
    }

    /// A lock-free reader handle over this cell.
    pub fn reader(self: &Arc<Self>) -> ViewReader {
        ViewReader { cached: self.load(), seen: self.version(), cell: Arc::clone(self) }
    }
}

/// A query-side handle whose `get` fast path is one atomic load.
#[derive(Debug)]
pub struct ViewReader {
    cell: Arc<ViewCell>,
    cached: Arc<PublishedView>,
    seen: u64,
}

impl ViewReader {
    /// The current view. Wait-free when nothing was published since the
    /// last call (one `Acquire` version load); on a version change, one
    /// brief read-lock to clone the new `Arc` out.
    pub fn get(&mut self) -> &Arc<PublishedView> {
        let v = self.cell.version.load(Ordering::Acquire);
        if v != self.seen {
            self.cached = self.cell.load();
            self.seen = v;
        }
        &self.cached
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(epoch: u64, signed: Vec<i64>) -> PublishedView {
        let nodes = (1..=signed.len() as u64).map(NodeId).collect();
        PublishedView { epoch, nodes: Arc::new(nodes), signed }
    }

    #[test]
    fn published_views_reach_readers_and_the_fast_path_reuses_the_arc() {
        let cell = Arc::new(ViewCell::new(view(0, vec![0, 0, 0])));
        assert_eq!(cell.version(), 0);
        // a reader created before the publication
        let mut reader = cell.reader();
        assert_eq!(reader.get().epoch, 0);
        assert_eq!(reader.get().reputation(NodeId(2)), Some(0));

        cell.publish(Arc::new(view(1, vec![3, -1, 0])));
        assert_eq!(cell.version(), 1, "publish bumps the version");
        let seen = reader.get().clone();
        assert_eq!(seen.epoch, 1, "an existing reader sees the new view");
        assert_eq!(seen.reputation(NodeId(1)), Some(3));
        assert_eq!(seen.reputation(NodeId(9)), None);

        // no publication since the last get: the same Arc, no clone
        assert!(Arc::ptr_eq(&seen, reader.get()));

        cell.publish(Arc::new(view(2, vec![4, -1, 0])));
        assert_eq!(cell.version(), 2);
        assert!(!Arc::ptr_eq(&seen, reader.get()));
        assert_eq!(reader.get().epoch, 2);
    }
}

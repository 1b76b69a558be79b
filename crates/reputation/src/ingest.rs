//! Sharded multi-producer rating intake: the concurrent twin of
//! [`crate::epoch::EpochBuffer`].
//!
//! At production rates a single epoch buffer behind one lock serializes
//! every producer on one mutex. The [`ShardedIntake`] splits the epoch
//! delta into independent shards keyed by *ratee* — every counter cell of
//! one ratee lives in exactly one shard — so N producer threads folding
//! disjoint ratees never contend, and producers hitting the same shard
//! contend only on that shard's lock, not a global one.
//!
//! Determinism: counter arithmetic is commutative and associative
//! ([`PairCounters::accumulate`] is integer bookkeeping), so the multiset
//! of ratings alone fixes every cell, regardless of which producer folded
//! which rating in what order. [`ShardedIntake::drain`] concatenates the
//! shards and sorts by `(ratee, rater)` — byte-identical to
//! [`crate::epoch::EpochBuffer::drain`] over the same ratings, which is
//! what lets a manager's stream data plane fold through it (one
//! [`ShardedIntake::merge_cells`] per frame) and still close epochs
//! bit-identical to the serial engine (asserted by this module's tests).

use crate::epoch::EpochDelta;
use crate::fxhash::FxHashMap;
use crate::history::PairCounters;
use crate::id::NodeId;
use crate::rating::Rating;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One intake shard: a slice of the epoch delta map plus its rating count.
#[derive(Debug, Default)]
struct IntakeShard {
    /// (ratee, rater) → counter delta for this epoch. Fx-hashed; the drain
    /// sort erases any hasher dependence.
    delta: FxHashMap<(NodeId, NodeId), PairCounters>,
    ratings: u64,
}

/// Lock-striped epoch-delta accumulator shared by N producer threads.
#[derive(Debug)]
pub struct ShardedIntake {
    shards: Vec<Mutex<IntakeShard>>,
    /// Ratings folded since the last drain (approximate while producers
    /// are active; exact once they quiesce).
    ratings: AtomicU64,
}

impl ShardedIntake {
    /// Intake striped over `shards` locks (clamped to ≥ 1).
    pub fn new(shards: usize) -> Self {
        let shards = shards.max(1);
        ShardedIntake {
            shards: (0..shards).map(|_| Mutex::new(IntakeShard::default())).collect(),
            ratings: AtomicU64::new(0),
        }
    }

    #[inline]
    fn shard_of(&self, ratee: NodeId) -> usize {
        // keyed by ratee so each ratee's cells live in exactly one shard:
        // cross-shard (ratee, rater) duplicates are impossible by
        // construction and the drained concatenation needs no dedup
        (ratee.raw() % self.shards.len() as u64) as usize
    }

    /// Fold one rating in, locking only the ratee's shard. Self-ratings
    /// are ignored (returns `false`), matching
    /// [`crate::epoch::EpochBuffer::record`].
    pub fn record(&self, rating: Rating) -> bool {
        if rating.is_self_rating() {
            return false;
        }
        let mut shard =
            self.shards[self.shard_of(rating.ratee)].lock().expect("intake shard poisoned");
        shard.delta.entry((rating.ratee, rating.rater)).or_default().accumulate(rating.value);
        shard.ratings += 1;
        drop(shard);
        self.ratings.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Merge a producer's locally-aggregated counter cells in, locking
    /// each shard at most once.
    ///
    /// This is the batched twin of [`ShardedIntake::record`]: a producer
    /// aggregates its ratings into a private map (no lock, no contention)
    /// and periodically folds the cells here. `entries` is consumed and
    /// left empty (capacity retained for reuse); `ratings` is the number
    /// of raw ratings the cells aggregate. Counter merging is the same
    /// commutative bookkeeping as per-rating folding, so the drained delta
    /// is bit-identical either way.
    pub fn merge_cells(&self, entries: &mut Vec<(NodeId, NodeId, PairCounters)>, ratings: u64) {
        if entries.is_empty() {
            return;
        }
        let nshards = self.shards.len() as u64;
        // group cells by shard so each stripe is locked once per flush,
        // not once per rating
        entries.sort_unstable_by_key(|&(ratee, _, _)| ratee.raw() % nshards);
        let mut at = 0;
        while at < entries.len() {
            let shard_idx = self.shard_of(entries[at].0);
            let run_end = entries[at..]
                .iter()
                .position(|&(ratee, _, _)| self.shard_of(ratee) != shard_idx)
                .map_or(entries.len(), |k| at + k);
            let mut shard = self.shards[shard_idx].lock().expect("intake shard poisoned");
            for &(ratee, rater, c) in &entries[at..run_end] {
                shard.delta.entry((ratee, rater)).or_default().merge(&c);
            }
            drop(shard);
            at = run_end;
        }
        entries.clear();
        if let Some(shard) = self.shards.first() {
            // rating count is global, not per-cell; account it on stripe 0
            shard.lock().expect("intake shard poisoned").ratings += ratings;
        }
        self.ratings.fetch_add(ratings, Ordering::Relaxed);
    }

    /// Ratings folded in since the last [`ShardedIntake::drain`]. Exact
    /// only after producers quiesce.
    #[inline]
    pub fn ratings(&self) -> u64 {
        self.ratings.load(Ordering::Relaxed)
    }

    /// Whether no ratings are buffered.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.lock().expect("intake shard poisoned").delta.is_empty())
    }

    /// Close the epoch: drain every shard into one sorted delta.
    ///
    /// Caller contract: producers must have quiesced (no concurrent
    /// [`ShardedIntake::record`] calls), or the drain boundary between two
    /// epochs is unspecified — a straggler rating lands in whichever epoch
    /// observes its shard last. Shards are locked one at a time in index
    /// order; the final sort erases any shard/drain ordering, so the
    /// result is bit-identical to [`crate::epoch::EpochBuffer::drain`]
    /// over the same rating multiset.
    pub fn drain(&self) -> EpochDelta {
        let mut entries: Vec<(NodeId, NodeId, PairCounters)> = Vec::new();
        let mut ratings = 0u64;
        for s in &self.shards {
            let mut shard = s.lock().expect("intake shard poisoned");
            ratings += std::mem::take(&mut shard.ratings);
            entries.extend(shard.delta.drain().map(|((ratee, rater), c)| (ratee, rater, c)));
        }
        entries.sort_unstable_by_key(|&(ratee, rater, _)| (ratee, rater));
        self.ratings.fetch_sub(ratings, Ordering::Relaxed);
        EpochDelta { entries, ratings }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::EpochBuffer;
    use crate::id::SimTime;
    use crate::rating::RatingValue;
    use std::sync::Arc;

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn random_ratings(count: usize, seed: u64) -> Vec<Rating> {
        let mut s = seed;
        (0..count)
            .map(|k| {
                let rater = NodeId(splitmix(&mut s) % 40);
                let ratee = NodeId(splitmix(&mut s) % 40);
                let v = match splitmix(&mut s) % 3 {
                    0 => RatingValue::Negative,
                    1 => RatingValue::Neutral,
                    _ => RatingValue::Positive,
                };
                Rating::new(rater, ratee, v, SimTime(k as u64))
            })
            .collect()
    }

    #[test]
    fn drain_matches_epoch_buffer_bit_for_bit() {
        for shards in [1usize, 2, 7, 64] {
            let ratings = random_ratings(500, 0xD1CE ^ shards as u64);
            let intake = ShardedIntake::new(shards);
            let mut buffer = EpochBuffer::new();
            for &r in &ratings {
                assert_eq!(intake.record(r), buffer.record(r));
            }
            assert_eq!(intake.ratings(), buffer.ratings());
            let a = intake.drain();
            let b = buffer.drain();
            assert_eq!(a.entries, b.entries, "shards={shards}");
            assert_eq!(a.ratings, b.ratings);
            assert!(intake.is_empty());
            // second drain is empty
            assert!(intake.drain().entries.is_empty());
        }
    }

    #[test]
    fn concurrent_producers_fold_to_the_same_delta() {
        let ratings = random_ratings(2_000, 0xFEED);
        let mut buffer = EpochBuffer::new();
        for &r in &ratings {
            buffer.record(r);
        }
        let expect = buffer.drain();
        for producers in [1usize, 2, 4, 8] {
            let intake = Arc::new(ShardedIntake::new(8));
            std::thread::scope(|scope| {
                for chunk in ratings.chunks(ratings.len().div_ceil(producers)) {
                    let intake = Arc::clone(&intake);
                    scope.spawn(move || {
                        for &r in chunk {
                            intake.record(r);
                        }
                    });
                }
            });
            let got = intake.drain();
            assert_eq!(got.entries, expect.entries, "producers={producers}");
            assert_eq!(got.ratings, expect.ratings);
        }
    }

    #[test]
    fn self_ratings_rejected() {
        let intake = ShardedIntake::new(4);
        assert!(!intake.record(Rating::positive(NodeId(3), NodeId(3), SimTime(0))));
        assert!(intake.is_empty());
        assert_eq!(intake.drain().ratings, 0);
    }

    #[test]
    fn merged_cells_drain_identically_to_per_rating_folds() {
        for shards in [1usize, 3, 8] {
            let ratings = random_ratings(800, 0xBEEF ^ shards as u64);
            let per_rating = ShardedIntake::new(shards);
            for &r in &ratings {
                per_rating.record(r);
            }
            // producer-local aggregation: fold into a private map, then
            // merge the cells in batches of uneven size
            let batched = ShardedIntake::new(shards);
            let mut cells: Vec<(NodeId, NodeId, PairCounters)> = Vec::new();
            for chunk in ratings.chunks(171) {
                let mut local: std::collections::HashMap<(NodeId, NodeId), PairCounters> =
                    Default::default();
                let mut count = 0u64;
                for &r in chunk {
                    if r.is_self_rating() {
                        continue;
                    }
                    local.entry((r.ratee, r.rater)).or_default().accumulate(r.value);
                    count += 1;
                }
                cells.extend(local.into_iter().map(|((ratee, rater), c)| (ratee, rater, c)));
                batched.merge_cells(&mut cells, count);
                assert!(cells.is_empty(), "merge_cells must consume the batch");
            }
            assert_eq!(per_rating.ratings(), batched.ratings());
            let a = per_rating.drain();
            let b = batched.drain();
            assert_eq!(a.entries, b.entries, "shards={shards}");
            assert_eq!(a.ratings, b.ratings);
        }
    }
}

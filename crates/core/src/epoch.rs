//! Epoch-batched incremental detection: the scale path that turns the
//! per-period full matrix pass into work proportional to *what changed*.
//!
//! The [`EpochEngine`] owns three pieces of state that together replace
//! "rebuild snapshot, rerun detector" every detection period:
//!
//! * a [`ShardedSnapshot`] advanced in place by
//!   [`ShardedSnapshot::apply_epoch`],
//! * an [`EpochBuffer`] appending each rating to a log between closes,
//! * a verdict map: the standing suspect set keyed by node-id pair.
//!
//! At [`EpochEngine::close_epoch`] the buffer's log is sorted and folded
//! into an [`EpochDelta`] — the dirty-pair work queue — and the engine
//! re-examines only the *candidate pairs* whose verdict could have
//! changed. A node is *active* when it is a dirty ratee (its row, totals
//! or frequent aggregate changed) or its high-reputed flag flipped. Then:
//!
//! * every standing verdict with an active endpoint is re-checked (it may
//!   need retraction);
//! * **frequency first** — the paper's C4, "for each pair with
//!   `N(j,i) ≥ T_N`", is the first line of both kernels, and a direction
//!   `D(i←j)` (is `j` boosting `i`?) reads nothing outside `i`'s row. So a
//!   *new* flag on an active high row `c` can only come through a rater `x`
//!   whose cell in `c`'s row is frequent: the forward fan emits `{x, c}`
//!   for exactly those, and a row whose frequent aggregate count is zero
//!   emits nothing without its cells being read;
//! * the reverse fan `{c, y}`, over the rows `y` holding a frequent cell
//!   from `c` ([`ShardedSnapshot::frequent_ratees_of`]), runs only when `c`
//!   flipped **to** high under a non-mutual policy. Otherwise it cannot
//!   matter: an un-dirty `y` keeps `D(y←c)` unchanged, a dirty `y` reaches
//!   the pair through its own forward fan, and under `require_mutual` a
//!   flag needs `cell(c, y)` frequent as well, which `c`'s forward fan
//!   covers. What is left is `D(y←c)` having held all along while `c` sat
//!   below `T_R` — the flip opens that pair without touching `y`.
//!
//! (`T_N = 0` makes an absent cell frequent, so there the reverse fan runs
//! for every active row, over what is then the full reverse adjacency.)
//!
//! Any pair outside the candidate set either kept all of its inputs
//! byte-for-byte unchanged, so its standing verdict is still exact, or
//! fails C4 in every direction that changed. Candidate pairs are
//! re-checked with the *same* kernels the full pass uses
//! (`BasicDetector::check_pair_snap` /
//! `OptimizedDetector::check_direction_snap`) and the verdict map is
//! updated both ways — inserted on a flag, *removed* when a previously
//! suspicious pair no longer checks out. The resulting suspect set is
//! therefore bit-identical to running the full detector on the current
//! state (enforced by this module's tests and `tests/scale_props.rs`);
//! only the cost differs.
//!
//! With `prune` enabled (and the strict community definition in force) the
//! Formula (2) band pre-filter of [`OptimizedDetector::detect_pruned`]
//! additionally discards candidates whose row totals prove no band can be
//! entered. Behind the frequency gate it has almost nothing left to do —
//! see [`EpochStats::pruned`].

use std::collections::BTreeMap;
use std::time::Instant;

use collusion_reputation::codec::{ByteReader, ByteWriter, CodecError};
use collusion_reputation::epoch::{EpochBuffer, EpochDelta};
use collusion_reputation::history::{InteractionHistory, NodeTotals, PairCounters};
use collusion_reputation::id::NodeId;
use collusion_reputation::par;
use collusion_reputation::rating::Rating;
use collusion_reputation::sharded::ShardedSnapshot;
use collusion_reputation::thresholds::Thresholds;

use crate::model::DirectionEvidence;

use crate::basic::BasicDetector;
use crate::cost::CostMeter;
use crate::model::SuspectPair;
use crate::optimized::OptimizedDetector;
use crate::pairset::PairSet;
use crate::policy::DetectionPolicy;
use crate::report::DetectionReport;

/// Which detection kernel the engine runs on candidate pairs: the
/// §IV.B row-scan detector ([`BasicDetector`]) or the §IV.C Formula (2)
/// band detector ([`OptimizedDetector`]).
pub use crate::decentralized::Method as EpochMethod;

/// Cumulative counters across all closed epochs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EpochStats {
    /// Epochs closed (including empty ones).
    pub epochs: u64,
    /// Ratings folded through the buffer.
    pub ratings: u64,
    /// Candidate pairs that survived the cheap eligibility gates —
    /// frequent cell (C4), both endpoints high, not banned by the band
    /// memo (deduplicated; ineligible fans never become candidates).
    pub candidates: u64,
    /// Candidates that reached a kernel check.
    pub checked: u64,
    /// Candidates discarded by the band pre-filter at check time.
    /// Enumeration subsumes the pre-filter; `pruned` counts
    /// standing-verdict re-checks only: newly enumerated pairs the band
    /// bans are filtered out before they ever become candidates. Behind
    /// the frequency gate that filter has nothing left to remove on the
    /// benchmark: 0 of the 2 000 post-gate emissions (1 000 pairs) on both
    /// `engine-churn` and `engine-bulk`, seed 42.
    pub pruned: u64,
    /// Epoch closes forced by the [`EpochBuffer`] buffered-ratings memory
    /// watermark rather than the caller's schedule (a subset of `epochs`).
    pub forced_closes: u64,
}

/// Wall-clock breakdown of the most recent epoch close, in nanoseconds.
/// `advance` covers steps 1–2 (`advance_epoch_state`: delta merge +
/// high-flag recompute), `enumerate` step 3 (`enumerate_candidates`) and
/// `recheck` step 4 (`recheck_candidates`). The benchmark's engine
/// workloads report these per close so the next close-path bottleneck is
/// visible by name.
#[derive(Clone, Copy, Debug, Default)]
pub struct CloseTimings {
    /// Steps 1–2: snapshot delta merge + high-flag recompute.
    pub advance_ns: u64,
    /// Step 3: candidate enumeration.
    pub enumerate_ns: u64,
    /// Step 4: candidate re-check.
    pub recheck_ns: u64,
}

/// Reusable per-close scratch buffers. Clearing and re-growing these is
/// semantically identical to the fresh `vec![..; n]` allocations of the
/// original close loop, but steady-state closes stop allocating.
#[derive(Debug, Default)]
struct CloseScratch {
    /// Dirty-or-flipped node flags (step 3).
    active: Vec<bool>,
    /// Nodes whose high flag flipped *to* high in this close (step 3; the
    /// only rows the reverse fan serves).
    to_high: Vec<bool>,
    /// Per-row prunability flags, batch-filled by
    /// [`OptimizedDetector::rows_prunable_batch`] when pruning is armed:
    /// nonzero = prunable (step 3, reused verbatim by step 4).
    memo: Vec<u8>,
    /// Candidate-pair dedup set (step 3, cleared per close, table reused).
    seen: PairSet,
    /// Candidate pairs of the current close (step 3's output).
    cands: Vec<(u32, u32)>,
    /// Per-ratee frequent-aggregate cache (step 4). Only
    /// `community_excludes_frequent` reads it, so only that policy pays its
    /// O(n) reset; otherwise it stays empty.
    cache: Vec<Option<(u64, i64)>>,
}

impl CloseScratch {
    /// Reset `active`, `to_high` and `memo` for a snapshot of `n` nodes.
    fn reset_merge(&mut self, n: usize) {
        self.active.clear();
        self.active.resize(n, false);
        self.to_high.clear();
        self.to_high.resize(n, false);
        self.memo.clear();
        self.memo.resize(n, 0);
    }
}

/// Incremental detector maintaining an exact suspect set across epochs.
#[derive(Debug)]
pub struct EpochEngine {
    thresholds: Thresholds,
    policy: DetectionPolicy,
    method: EpochMethod,
    prune: bool,
    basic: BasicDetector,
    optimized: OptimizedDetector,
    snap: ShardedSnapshot,
    buffer: EpochBuffer,
    high: Vec<bool>,
    verdicts: BTreeMap<(NodeId, NodeId), SuspectPair>,
    stats: EpochStats,
    scratch: CloseScratch,
    /// Resolved close fork-join width (≥ 1; `1` is the serial oracle).
    close_threads: usize,
    /// Sub-stage breakdown of the most recent non-empty close.
    last_close: CloseTimings,
}

/// What [`EpochEngine::frozen_snapshot`] is made of: a clone of the
/// standing snapshot and a copy of the open epoch's unsorted log.
#[derive(Debug)]
pub struct FrozenParts {
    snap: ShardedSnapshot,
    open: EpochBuffer,
    threads: usize,
}

impl FrozenParts {
    /// Sort and fold the copied log, and merge it into the snapshot copy.
    pub fn merge(mut self) -> ShardedSnapshot {
        self.snap.apply_epoch(&self.open.drain(), self.threads);
        self.snap
    }
}

/// Recompute the high flags of one shard's row range, collecting the
/// global indices that flipped in ascending order. Each lane is
/// `thresholds.is_high_reputed(totals.signed() as f64)` verbatim.
fn recompute_high_shard(
    tc: &collusion_reputation::sharded::TotalsColumns<'_>,
    flags: &mut [bool],
    thresholds: &Thresholds,
    flips: &mut Vec<u32>,
) {
    let base = tc.base as usize;
    for (k, was) in flags.iter_mut().enumerate() {
        let totals =
            NodeTotals { total: tc.total[k], positive: tc.positive[k], negative: tc.negative[k] };
        let now = thresholds.is_high_reputed(totals.signed() as f64);
        if now != *was {
            *was = now;
            flips.push((base + k) as u32);
        }
    }
}

/// Steps 1–2 of an epoch close: advance the snapshot in place (carrying
/// high flags across any re-interning) and recompute the high-reputed
/// flags, returning the indices that flipped.
///
/// `threads` bounds the fork-join width of both the per-shard delta merge
/// and the high-flag recompute. Shards are ratee-range disjoint and the
/// per-shard flip buffers are concatenated in shard order, so the flip
/// list is ascending — byte-identical to the serial sweep — for any
/// thread count.
fn advance_epoch_state(
    snap: &mut ShardedSnapshot,
    high: &mut Vec<bool>,
    thresholds: &Thresholds,
    delta: &EpochDelta,
    threads: usize,
) -> Vec<u32> {
    if let Some(remap) = snap.apply_epoch(delta, threads) {
        let mut carried = vec![false; snap.n()];
        for (old, &new) in remap.iter().enumerate() {
            carried[new as usize] = high[old];
        }
        *high = carried;
    }
    // High-flag recompute over the SoA totals columns: contiguous loads
    // instead of a shard-resolving `totals_of` probe per row.
    if threads <= 1 {
        let mut flips: Vec<u32> = Vec::new();
        for tc in snap.totals_columns() {
            let base = tc.base as usize;
            let flags = &mut high[base..base + tc.total.len()];
            recompute_high_shard(&tc, flags, thresholds, &mut flips);
        }
        return flips;
    }
    // Forked path: pair each shard's totals columns with its slice of the
    // flag vector (shard ranges tile 0..n in order), fan the per-shard
    // recompute out, then concatenate the per-shard flip buffers in shard
    // order so the combined list is ascending like the serial sweep.
    let mut items: Vec<(collusion_reputation::sharded::TotalsColumns<'_>, &mut [bool])> = {
        let mut rest: &mut [bool] = high;
        let mut items = Vec::new();
        for tc in snap.totals_columns() {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(tc.total.len());
            items.push((tc, head));
            rest = tail;
        }
        items
    };
    let per_shard: Vec<Vec<u32>> = par::map_mut(threads, &mut items, |(tc, flags)| {
        let mut flips = Vec::new();
        recompute_high_shard(tc, flags, thresholds, &mut flips);
        flips
    });
    per_shard.into_iter().flatten().collect()
}

/// Inputs of the candidate-enumeration pass that are not per-close state.
struct CandidateParams<'a> {
    /// Band detector supplying [`OptimizedDetector::rows_prunable_batch`].
    optimized: &'a OptimizedDetector,
    /// [`DetectionPolicy::require_mutual`].
    require_mutual: bool,
    /// Whether the Formula (2) pre-filter is armed *and* sound.
    prune_on: bool,
}

/// Step 3 of an epoch close: enumerate the candidate pairs whose verdict
/// could have changed, into `scratch.cands`. `snap` has just applied the
/// close's delta, so its [`ShardedSnapshot::applied_rows`] are the dirty
/// rows. `verdict_keys` must iterate the standing verdict keys in
/// ascending order (the [`BTreeMap`] key order) so the candidate list is
/// reproduced exactly regardless of who owns the verdict map.
///
/// The candidate fan joins each active high row to the pairs its frequent
/// cells reach (the module docs give the rule and why the reverse fan is
/// this narrow); pairs that pass the cheap gates are pushed in discovery
/// order, first-wins deduplicated.
fn enumerate_candidates<I: IntoIterator<Item = (NodeId, NodeId)>>(
    snap: &ShardedSnapshot,
    high: &[bool],
    params: &CandidateParams<'_>,
    flips: &[u32],
    verdict_keys: I,
    scratch: &mut CloseScratch,
) {
    let prune_on = params.prune_on;
    scratch.reset_merge(snap.n());
    // Batch-fill the prunability flags for every row up front. The memo is
    // a pure function of row totals, so computing lanes the old lazy scan
    // would never have consulted cannot change which pairs are admitted —
    // and the SoA kernel fills all n lanes for less than the scalar oracle
    // charged for its misses. Step 4 reuses these flags verbatim.
    if prune_on {
        for tc in snap.totals_columns() {
            let base = tc.base as usize;
            let out = &mut scratch.memo[base..base + tc.total.len()];
            params.optimized.rows_prunable_batch(&tc, out);
        }
    }
    for row in snap.applied_rows() {
        scratch.active[row as usize] = true;
    }
    for &f in flips {
        scratch.active[f as usize] = true;
        scratch.to_high[f as usize] = high[f as usize];
    }
    let CloseScratch { active, to_high, memo, seen, cands, .. } = scratch;
    seen.clear();
    cands.clear();
    // Standing verdicts with an active endpoint first, in key order.
    for (a, b) in verdict_keys {
        let (i, j) = (
            snap.index(a).expect("verdict node interned"),
            snap.index(b).expect("verdict node interned"),
        );
        if (active[i as usize] || active[j as usize]) && seen.insert(i, j) {
            cands.push((i, j));
        }
    }
    let prunable = |x: u32| -> bool { prune_on && memo[x as usize] != 0 };
    // `T_N = 0` makes an absent cell frequent: a pair can then be flagged
    // through a direction that has no cell to fan over
    let absent_is_frequent = params.optimized.thresholds.t_n == 0;
    for c in 0..snap.n() as u32 {
        if !active[c as usize] || !high[c as usize] {
            continue;
        }
        let c_banned = prunable(c);
        if c_banned && params.require_mutual {
            continue; // no pair with this endpoint can be flagged
        }
        let admit = |x: u32| -> bool {
            if x == c || !high[x as usize] {
                return false;
            }
            let x_banned = prunable(x);
            let banned = if params.require_mutual {
                x_banned // c already known not banned here
            } else {
                c_banned && x_banned
            };
            !banned
        };
        for x in snap.frequent_raters_of(c) {
            if admit(x) && seen.insert(x, c) {
                cands.push((x, c));
            }
        }
        if (to_high[c as usize] && !params.require_mutual) || absent_is_frequent {
            for &y in snap.frequent_ratees_of(c) {
                if admit(y) && seen.insert(c, y) {
                    cands.push((c, y));
                }
            }
        }
    }
}

/// Kernel configuration of the re-check pass (step 4).
struct RecheckKernels<'a> {
    /// Which kernel runs on candidate pairs.
    method: EpochMethod,
    /// [`DetectionPolicy::require_mutual`].
    require_mutual: bool,
    /// Whether the Formula (2) pre-filter is armed *and* sound.
    prune_active: bool,
    /// §IV.B row-scan kernel.
    basic: &'a BasicDetector,
    /// §IV.C band kernel.
    optimized: &'a OptimizedDetector,
}

/// What a re-check pass did, beyond mutating the verdict map.
struct RecheckOutcome {
    /// Updated standing suspect set plus this pass's kernel cost.
    report: DetectionReport,
    /// Candidates that reached a kernel check.
    checked: u64,
    /// Candidates discarded by the band pre-filter at check time.
    pruned: u64,
}

/// Step 4 of an epoch close: re-check `scratch.cands` with the configured
/// kernel, updating `verdicts` both ways (insert on flag, remove on
/// retraction).
///
/// `scratch.memo` holds the per-row prunability flags (nonzero = prunable)
/// batch-computed by [`enumerate_candidates`] from the same snapshot state;
/// it is read only when `kernels.prune_active`.
fn recheck_candidates(
    kernels: &RecheckKernels<'_>,
    snap: &ShardedSnapshot,
    high: &[bool],
    verdicts: &mut BTreeMap<(NodeId, NodeId), SuspectPair>,
    scratch: &mut CloseScratch,
) -> RecheckOutcome {
    let meter = CostMeter::new();
    let mut checked = 0u64;
    let mut pruned = 0u64;
    let CloseScratch { cands, memo, cache, .. } = scratch;
    cache.clear();
    if kernels.optimized.policy.community_excludes_frequent {
        cache.resize(snap.n(), None);
    }
    for &(i, j) in cands.iter() {
        let (id_i, id_j) = (snap.node_id(i), snap.node_id(j));
        let key = if id_i < id_j { (id_i, id_j) } else { (id_j, id_i) };
        // an endpoint lost its high flag: retract without a kernel check
        if !(high[i as usize] && high[j as usize]) {
            verdicts.remove(&key);
            continue;
        }
        if kernels.prune_active {
            let (pi, pj) = (memo[i as usize] != 0, memo[j as usize] != 0);
            let skip = if kernels.require_mutual { pi || pj } else { pi && pj };
            if skip {
                // sound: a prunable row's direction check cannot pass,
                // so the full kernel would produce no flag here
                pruned += 1;
                verdicts.remove(&key);
                continue;
            }
        }
        checked += 1;
        let verdict = match kernels.method {
            EpochMethod::Basic => kernels.basic.check_pair_snap(snap, i, j, &meter),
            EpochMethod::Optimized => {
                let ev_fwd = kernels.optimized.direction_cached(snap, i, Some(j), &meter, cache);
                let ev_rev = kernels.optimized.direction_cached(snap, j, Some(i), &meter, cache);
                if kernels.require_mutual {
                    match (ev_fwd, ev_rev) {
                        (Some(f), Some(r)) => Some(SuspectPair::new(id_j, id_i, Some(f), Some(r))),
                        _ => None,
                    }
                } else if ev_fwd.is_none() && ev_rev.is_none() {
                    None
                } else {
                    Some(SuspectPair::new(id_j, id_i, ev_fwd, ev_rev))
                }
            }
        };
        match verdict {
            Some(pair) => verdicts.insert(key, pair),
            None => verdicts.remove(&key),
        };
    }
    RecheckOutcome {
        report: DetectionReport::new(verdicts.values().copied().collect(), meter.snapshot()),
        checked,
        pruned,
    }
}

/// The state an [`EpochEngine`] is assembled from: a fresh engine's empty
/// snapshot, or a checkpoint's restored one.
struct EngineParts {
    /// Detection thresholds.
    thresholds: Thresholds,
    /// Detection policy.
    policy: DetectionPolicy,
    /// Kernel selection.
    method: EpochMethod,
    /// Formula (2) pre-filter armed.
    prune: bool,
    /// Snapshot as of the last closed epoch.
    snap: ShardedSnapshot,
    /// Standing verdict map.
    verdicts: BTreeMap<(NodeId, NodeId), SuspectPair>,
    /// Cumulative counters.
    stats: EpochStats,
}

impl EpochEngine {
    /// Engine over an initially empty history covering `nodes`, sharded
    /// into about `target_shards` row ranges. `prune` arms the Formula (2)
    /// band pre-filter; it self-disables under
    /// [`DetectionPolicy::community_excludes_frequent`], where adjusted
    /// totals make row-level pruning unsound.
    pub fn new(
        nodes: &[NodeId],
        target_shards: usize,
        method: EpochMethod,
        thresholds: Thresholds,
        policy: DetectionPolicy,
        prune: bool,
    ) -> Self {
        // every engine snapshot carries the frequent aggregates and reverse
        // index for `T_N`, whatever the policy: the candidate fan reads them
        let empty = InteractionHistory::new();
        let snap =
            ShardedSnapshot::build_with_frequent(&empty, nodes, target_shards, thresholds.t_n);
        EpochEngine::from_parts(EngineParts {
            thresholds,
            policy,
            method,
            prune,
            snap,
            verdicts: BTreeMap::new(),
            stats: EpochStats::default(),
        })
    }

    /// Assemble an engine around detection state as of an epoch boundary.
    /// The high-reputed flags are recomputed from the snapshot (they are a
    /// pure function of it there); the caller owns the invariant that the
    /// verdicts are consistent with it too.
    fn from_parts(parts: EngineParts) -> Self {
        assert_eq!(
            parts.snap.frequent_t_n(),
            Some(parts.thresholds.t_n),
            "engine snapshots carry the frequent index the candidate fan reads"
        );
        let high = (0..parts.snap.n() as u32)
            .map(|i| parts.thresholds.is_high_reputed(parts.snap.signed(i) as f64))
            .collect();
        EpochEngine {
            thresholds: parts.thresholds,
            policy: parts.policy,
            method: parts.method,
            prune: parts.prune,
            basic: BasicDetector::with_policy(parts.thresholds, parts.policy),
            optimized: OptimizedDetector::with_policy(parts.thresholds, parts.policy),
            snap: parts.snap,
            buffer: EpochBuffer::new(),
            high,
            verdicts: parts.verdicts,
            stats: parts.stats,
            scratch: CloseScratch::default(),
            close_threads: par::resolve_threads(0),
            last_close: CloseTimings::default(),
        }
    }

    /// Set the close fork-join width (`0` = auto: the `RAYON_NUM_THREADS`
    /// override, else available parallelism). Every width produces
    /// byte-identical detection output; `1` is the serial oracle.
    pub fn set_close_threads(&mut self, knob: usize) {
        self.close_threads = par::resolve_threads(knob);
    }

    /// Sub-stage wall-clock breakdown of the most recent non-empty close.
    #[inline]
    pub fn last_close_timings(&self) -> CloseTimings {
        self.last_close
    }

    /// Append one rating to the open epoch's log (one push; self-ratings
    /// ignored). If the watermark is armed and this rating brings the
    /// buffered ratings to the limit, the epoch closes early (the standing
    /// verdict map absorbs the results; `forced_closes` counts it).
    /// Returns whether the rating was accepted.
    #[inline]
    pub fn record(&mut self, rating: Rating) -> bool {
        let accepted = self.buffer.record(rating);
        if self.buffer.over_watermark() {
            self.stats.forced_closes += 1;
            let _ = self.close_epoch();
        }
        accepted
    }

    /// Arm or disarm the epoch-buffer memory watermark: the number of
    /// buffered ratings that forces a close (see
    /// [`EpochBuffer::with_max_ratings`]). `None` (the default) never
    /// forces a close.
    pub fn set_pair_watermark(&mut self, max_ratings: Option<usize>) {
        self.buffer.set_max_ratings(max_ratings);
    }

    /// The configured watermark in buffered ratings, if any.
    #[inline]
    pub fn pair_watermark(&self) -> Option<usize> {
        self.buffer.max_ratings()
    }

    /// Whether the open buffer holds at least as many ratings as an armed
    /// watermark — a pure function of the ratings replayed into it. Recovery
    /// uses this to re-trigger a forced close whose marker was lost to a
    /// torn WAL tail while the triggering rating stayed durable.
    #[inline]
    pub fn buffer_over_watermark(&self) -> bool {
        self.buffer.over_watermark()
    }

    /// The sharded snapshot as of the last closed epoch.
    #[inline]
    pub fn snapshot(&self) -> &ShardedSnapshot {
        &self.snap
    }

    /// The slice as of *now*: a clone of the standing snapshot with the
    /// open epoch merged in through the same [`ShardedSnapshot::apply_epoch`]
    /// a close uses, so it holds every rating [`EpochEngine::record`] has
    /// accepted — bit-identical to a fresh build from a history that
    /// recorded them. The engine itself is untouched (no epoch closes).
    pub fn frozen_snapshot(&self) -> ShardedSnapshot {
        self.frozen_parts().merge()
    }

    /// The copying half of [`EpochEngine::frozen_snapshot`], for a caller
    /// that holds the engine behind a lock: take the parts under it,
    /// [`FrozenParts::merge`] them after releasing it.
    pub fn frozen_parts(&self) -> FrozenParts {
        FrozenParts {
            snap: self.snap.clone(),
            open: self.buffer.clone(),
            threads: self.close_threads,
        }
    }

    /// Cumulative counters.
    #[inline]
    pub fn stats(&self) -> EpochStats {
        self.stats
    }

    /// Ratings waiting in the open epoch.
    #[inline]
    pub fn pending_ratings(&self) -> u64 {
        self.buffer.ratings()
    }

    /// The standing suspect set as a report (no kernel work, zero cost).
    pub fn report(&self) -> DetectionReport {
        DetectionReport::new(self.verdicts.values().copied().collect(), CostMeter::new().snapshot())
    }

    fn prune_active(&self) -> bool {
        self.prune && !self.policy.community_excludes_frequent
    }

    /// Close the open epoch: merge the buffered delta into the sharded
    /// snapshot, re-check exactly the candidate pairs whose inputs changed,
    /// and return the updated standing suspect set. The reported cost
    /// covers only this close's kernel work.
    ///
    /// Steps 1–2 are `advance_epoch_state`, step 3
    /// `enumerate_candidates` and step 4 `recheck_candidates`; the
    /// step comments live on those functions.
    pub fn close_epoch(&mut self) -> DetectionReport {
        let delta: EpochDelta = self.buffer.drain();
        self.stats.epochs += 1;
        self.stats.ratings += delta.ratings;
        if delta.is_empty() {
            return self.report();
        }
        // 1–2. advance the snapshot and high flags, collecting flips
        let t0 = Instant::now();
        let flips = advance_epoch_state(
            &mut self.snap,
            &mut self.high,
            &self.thresholds,
            &delta,
            self.close_threads,
        );
        let t1 = Instant::now();

        // 3. enumerate candidate pairs. A pair's verdict can only change
        //    when an endpoint is *active* (dirty ratee or high-flip), so:
        //
        //    a) standing verdicts with an active endpoint are re-checked
        //       (they may need retraction) — a scan of the small verdict
        //       map, not of the graph;
        //    b) *new* flags can only appear on pairs joined by a frequent
        //       cell (C4) to an active node that is high — and, when
        //       pruning is armed, not provably banned by its own row
        //       totals — so ineligible fans are skipped before they ever
        //       touch the dedup set. Each surviving neighbour gets the
        //       same cheap gate. Skipped pairs are exactly those the
        //       kernel provably would not flag, and any stale verdict they
        //       might carry is already covered by (a).
        let params = CandidateParams {
            optimized: &self.optimized,
            require_mutual: self.policy.require_mutual,
            prune_on: self.prune_active(),
        };
        enumerate_candidates(
            &self.snap,
            &self.high,
            &params,
            &flips,
            self.verdicts.keys().copied(),
            &mut self.scratch,
        );
        let t2 = Instant::now();
        self.stats.candidates += self.scratch.cands.len() as u64;

        // 4. re-check candidates, updating the verdict map both ways,
        //    reusing the batch prunability flags step 3 computed
        let kernels = RecheckKernels {
            method: self.method,
            require_mutual: self.policy.require_mutual,
            prune_active: self.prune_active(),
            basic: &self.basic,
            optimized: &self.optimized,
        };
        let out = recheck_candidates(
            &kernels,
            &self.snap,
            &self.high,
            &mut self.verdicts,
            &mut self.scratch,
        );
        let t3 = Instant::now();
        self.last_close = CloseTimings {
            advance_ns: (t1 - t0).as_nanos() as u64,
            enumerate_ns: (t2 - t1).as_nanos() as u64,
            recheck_ns: (t3 - t2).as_nanos() as u64,
        };
        self.stats.checked += out.checked;
        self.stats.pruned += out.pruned;
        out.report
    }

    /// Close the epoch, accounting it as watermark-forced. WAL replay calls
    /// this for epoch-close markers whose `forced` flag is set, so recovered
    /// [`EpochStats`] match the uncrashed run exactly.
    pub fn close_epoch_forced(&mut self) -> DetectionReport {
        self.stats.forced_closes += 1;
        self.close_epoch()
    }

    // ----- Durability ---------------------------------------------------

    /// Serialize the engine's detection state — interned nodes, snapshot
    /// rows, standing verdicts and cumulative stats — as a checkpoint
    /// payload covering the WAL prefix up to and including `wal_seq`.
    ///
    /// Must be called at an epoch boundary (open buffer empty): ratings
    /// still buffered live only in the WAL *after* the last epoch-close
    /// marker, and a checkpoint claiming a later `wal_seq` would cause
    /// recovery to skip their replay.
    pub fn persist_bytes(&self, wal_seq: u64) -> Vec<u8> {
        debug_assert!(
            self.buffer.is_empty(),
            "persist_bytes requires an epoch boundary (open buffer must be empty)"
        );
        let n = self.snap.n();
        // ids, row lengths and cells are exact; ~80 bytes a verdict is not
        let mut w = ByteWriter::with_capacity(
            128 + n * 12 + self.snap.nnz() * CELL_BYTES + self.verdicts.len() * 80,
        );
        w.put_u32(STATE_VERSION);
        w.put_u64(wal_seq);
        w.put_u32(n as u32);
        for i in 0..n as u32 {
            w.put_u64(self.snap.node_id(i).raw());
        }
        for i in 0..n as u32 {
            // a row at a time into space reserved once, not a capacity
            // check per field (four a cell, 8 M at n = 100k)
            let (cols, cells) = self.snap.row(i);
            let (len, row) = w.put_zeroed(4 + cols.len() * CELL_BYTES).split_at_mut(4);
            len.copy_from_slice(&(cols.len() as u32).to_le_bytes());
            for ((out, &col), cell) in row.chunks_exact_mut(CELL_BYTES).zip(cols).zip(cells) {
                out[..4].copy_from_slice(&col.to_le_bytes());
                out[4..12].copy_from_slice(&cell.total.to_le_bytes());
                out[12..20].copy_from_slice(&cell.positive.to_le_bytes());
                out[20..].copy_from_slice(&cell.negative.to_le_bytes());
            }
        }
        w.put_u32(self.verdicts.len() as u32);
        for pair in self.verdicts.values() {
            w.put_u64(pair.low.raw());
            w.put_u64(pair.high.raw());
            encode_evidence(&mut w, pair.low_boosts_high.as_ref());
            encode_evidence(&mut w, pair.high_boosts_low.as_ref());
        }
        w.put_u64(self.stats.epochs);
        w.put_u64(self.stats.ratings);
        w.put_u64(self.stats.candidates);
        w.put_u64(self.stats.checked);
        w.put_u64(self.stats.pruned);
        w.put_u64(self.stats.forced_closes);
        w.into_bytes()
    }

    /// Rebuild an engine from a [`EpochEngine::persist_bytes`] payload.
    /// Returns the engine plus the checkpoint's WAL high-water mark;
    /// recovery replays WAL records with sequence numbers beyond it.
    ///
    /// Counters and verdicts round-trip bit-identically: each persisted
    /// row is validated and decoded straight into the arena of the
    /// snapshot shard that owns it ([`ShardedSnapshot::row_builder`]), its
    /// totals the saturating sum of its cells, as the history that folded
    /// them holds them. Evidence `f64`s travel as bit patterns, and
    /// high-reputed flags are recomputed from the restored snapshot (they
    /// are a pure function of it at epoch boundaries). Malformed payloads —
    /// including a row whose columns are not strictly ascending, or a cell
    /// whose positive and negative counts exceed its total, which the
    /// writer never produces — yield `Err`, never a panic.
    pub fn recover_from_bytes(
        bytes: &[u8],
        target_shards: usize,
        method: EpochMethod,
        thresholds: Thresholds,
        policy: DetectionPolicy,
        prune: bool,
    ) -> Result<(Self, u64), CodecError> {
        let mut r = ByteReader::new(bytes);
        if r.get_u32()? != STATE_VERSION {
            return Err(CodecError::BadMagic);
        }
        let wal_seq = r.get_u64()?;
        let n_raw = r.get_u32()? as u64;
        let n = r.checked_count(n_raw, 8)?;
        let mut nodes: Vec<NodeId> = Vec::with_capacity(n);
        for _ in 0..n {
            nodes.push(NodeId(r.get_u64()?));
        }
        // interning order must be strictly ascending for row indices to be
        // meaningful against the restored snapshot
        if !nodes.windows(2).all(|w| w[0] < w[1]) {
            return Err(CodecError::BadLength);
        }
        let mut rows = ShardedSnapshot::row_builder(nodes, target_shards, Some(thresholds.t_n));
        for i in 0..n {
            let row_raw = r.get_u32()? as u64;
            let row_len = r.checked_count(row_raw, CELL_BYTES)?;
            let mut sum = PairCounters::default();
            let mut prev = None;
            for _ in 0..row_len {
                let col = r.get_u32()? as usize;
                let counters = PairCounters {
                    total: r.get_u64()?,
                    positive: r.get_u64()?,
                    negative: r.get_u64()?,
                };
                if col >= n || col == i || counters.total == 0 || prev >= Some(col) {
                    return Err(CodecError::BadLength);
                }
                // neutral ratings count only in `total`, so the split never
                // exceeds it
                if counters.positive > counters.total
                    || counters.negative > counters.total - counters.positive
                {
                    return Err(CodecError::BadLength);
                }
                prev = Some(col);
                sum.merge(&counters);
                rows.push(col as u32, counters);
            }
            rows.end_row(NodeTotals {
                total: sum.total,
                positive: sum.positive,
                negative: sum.negative,
            });
        }
        let snap = rows.finish();
        let mut verdicts = BTreeMap::new();
        let verdict_raw = r.get_u32()? as u64;
        let verdict_count = r.checked_count(verdict_raw, 18)?;
        for _ in 0..verdict_count {
            let low = NodeId(r.get_u64()?);
            let high = NodeId(r.get_u64()?);
            let low_boosts_high = decode_evidence(&mut r)?;
            let high_boosts_low = decode_evidence(&mut r)?;
            let valid = low < high
                && (low_boosts_high.is_some() || high_boosts_low.is_some())
                && snap.index(low).is_some()
                && snap.index(high).is_some();
            if !valid {
                return Err(CodecError::BadLength);
            }
            verdicts
                .insert((low, high), SuspectPair { low, high, low_boosts_high, high_boosts_low });
        }
        let stats = EpochStats {
            epochs: r.get_u64()?,
            ratings: r.get_u64()?,
            candidates: r.get_u64()?,
            checked: r.get_u64()?,
            pruned: r.get_u64()?,
            forced_closes: r.get_u64()?,
        };
        if !r.is_exhausted() {
            return Err(CodecError::BadLength);
        }
        let engine = EpochEngine::from_parts(EngineParts {
            thresholds,
            policy,
            method,
            prune,
            snap,
            verdicts,
            stats,
        });
        Ok((engine, wal_seq))
    }

    // ----- State comparison --------------------------------------------

    /// Whether two engines hold bit-identical detection state. See
    /// [`EpochEngine::state_diff`].
    pub fn state_eq(&self, other: &EpochEngine) -> bool {
        self.state_diff(other).is_none()
    }

    /// Compare every piece of detection state — interned nodes, snapshot
    /// rows and totals, high-reputed flags, standing verdicts, cumulative
    /// stats — returning a description of the first mismatch, or `None`
    /// when the engines are bit-identical. The recovery and close-width
    /// tests use this to assert equivalence with an uncrashed serial run.
    pub fn state_diff(&self, other: &EpochEngine) -> Option<String> {
        if self.snap.n() != other.snap.n() {
            return Some(format!("node count {} != {}", self.snap.n(), other.snap.n()));
        }
        for i in 0..self.snap.n() as u32 {
            if self.snap.node_id(i) != other.snap.node_id(i) {
                return Some(format!("node id at index {i} differs"));
            }
            if self.snap.totals_of(i) != other.snap.totals_of(i) {
                return Some(format!("totals of index {i} differ"));
            }
            if self.snap.row(i) != other.snap.row(i) {
                return Some(format!("row {i} differs"));
            }
        }
        if self.high != other.high {
            return Some("high-reputed flags differ".to_owned());
        }
        if self.verdicts != other.verdicts {
            return Some(format!(
                "verdicts differ: {} vs {} entries",
                self.verdicts.len(),
                other.verdicts.len()
            ));
        }
        if self.stats != other.stats {
            return Some(format!("stats differ: {:?} vs {:?}", self.stats, other.stats));
        }
        None
    }
}

/// Version tag inside checkpoint payloads (the file-level header is owned
/// by `collusion_reputation::checkpoint`).
const STATE_VERSION: u32 = 1;
/// Encoded size of one snapshot cell: `col:u32 total:u64 positive:u64
/// negative:u64`.
const CELL_BYTES: usize = 28;

fn encode_evidence(w: &mut ByteWriter, ev: Option<&DirectionEvidence>) {
    match ev {
        None => w.put_u8(0),
        Some(e) => {
            w.put_u8(1);
            w.put_u64(e.pair_ratings);
            match e.fraction_a {
                None => w.put_u8(0),
                Some(v) => {
                    w.put_u8(1);
                    w.put_f64(v);
                }
            }
            match e.fraction_b {
                None => w.put_u8(0),
                Some(v) => {
                    w.put_u8(1);
                    w.put_f64(v);
                }
            }
            w.put_i64(e.signed_reputation);
        }
    }
}

fn decode_evidence(r: &mut ByteReader<'_>) -> Result<Option<DirectionEvidence>, CodecError> {
    let opt_f64 = |r: &mut ByteReader<'_>| -> Result<Option<f64>, CodecError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(r.get_f64()?)),
            t => Err(CodecError::InvalidTag(t)),
        }
    };
    match r.get_u8()? {
        0 => Ok(None),
        1 => {
            let pair_ratings = r.get_u64()?;
            let fraction_a = opt_f64(r)?;
            let fraction_b = opt_f64(r)?;
            let signed_reputation = r.get_i64()?;
            Ok(Some(DirectionEvidence { pair_ratings, fraction_a, fraction_b, signed_reputation }))
        }
        t => Err(CodecError::InvalidTag(t)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::SnapshotInput;
    use collusion_reputation::history::InteractionHistory;
    use collusion_reputation::id::SimTime;
    use collusion_reputation::rating::RatingValue;

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Pseudo-random rating stream over `ids`, biased positive, with a
    /// planted mutual-boost pair (ids[0], ids[1]).
    fn epoch_ratings(ids: &[u64], count: usize, seed: u64, t0: u64) -> Vec<Rating> {
        let mut s = seed;
        let mut out = Vec::with_capacity(count + 8);
        for k in 0..count {
            let rater = ids[(splitmix(&mut s) % ids.len() as u64) as usize];
            let ratee = ids[(splitmix(&mut s) % ids.len() as u64) as usize];
            if rater == ratee {
                continue;
            }
            let v = match splitmix(&mut s) % 10 {
                0 => RatingValue::Negative,
                1 => RatingValue::Neutral,
                _ => RatingValue::Positive,
            };
            out.push(Rating::new(NodeId(rater), NodeId(ratee), v, SimTime(t0 + k as u64)));
        }
        for k in 0..4 {
            out.push(Rating::positive(NodeId(ids[0]), NodeId(ids[1]), SimTime(t0 + 9000 + k)));
            out.push(Rating::positive(NodeId(ids[1]), NodeId(ids[0]), SimTime(t0 + 9100 + k)));
        }
        out
    }

    fn full_pass(
        history: &InteractionHistory,
        ids: &[NodeId],
        method: EpochMethod,
        thresholds: Thresholds,
        policy: DetectionPolicy,
    ) -> Vec<SuspectPair> {
        let snap = if policy.community_excludes_frequent {
            ShardedSnapshot::build_with_frequent(history, ids, 1, thresholds.t_n)
        } else {
            ShardedSnapshot::build(history, ids, 1)
        };
        let input = SnapshotInput::from_signed(&snap, ids);
        let report = match method {
            EpochMethod::Basic => {
                BasicDetector::with_policy(thresholds, policy).detect_snapshot(&input)
            }
            EpochMethod::Optimized => {
                OptimizedDetector::with_policy(thresholds, policy).detect_snapshot(&input)
            }
        };
        report.pairs
    }

    fn pair_keys(pairs: &[SuspectPair]) -> Vec<(NodeId, NodeId)> {
        pairs.iter().map(|p| p.ids()).collect()
    }

    fn check_engine_matches_full(
        method: EpochMethod,
        policy: DetectionPolicy,
        prune: bool,
        seed: u64,
    ) {
        let base_ids: Vec<u64> = (1..=12).collect();
        let nodes: Vec<NodeId> = base_ids.iter().map(|&i| NodeId(i)).collect();
        let thresholds = Thresholds::new(1.0, 3, 0.8, 0.4);
        let mut engine = EpochEngine::new(&nodes, 4, method, thresholds, policy, prune);
        let mut history = InteractionHistory::new();
        for epoch in 0..6u64 {
            // epoch 3 introduces two brand-new nodes mid-stream
            let ids: Vec<u64> = if epoch >= 3 {
                base_ids.iter().copied().chain([40, 41]).collect()
            } else {
                base_ids.clone()
            };
            for r in epoch_ratings(&ids, 60, seed ^ (epoch + 1), epoch * 10_000) {
                engine.record(r);
                history.record(r);
            }
            let report = engine.close_epoch();
            let all_ids: Vec<NodeId> = ids.iter().map(|&i| NodeId(i)).collect();
            let expect = full_pass(&history, &all_ids, method, thresholds, policy);
            assert_eq!(
                pair_keys(&report.pairs),
                pair_keys(&expect),
                "epoch {epoch} method {method:?} policy {policy:?} prune {prune}"
            );
            // evidence payloads match too, not just the id sets
            assert_eq!(report.pairs, expect, "evidence mismatch at epoch {epoch}");
        }
        assert_eq!(engine.stats().epochs, 6);
        assert!(engine.stats().ratings > 0);
    }

    #[test]
    fn engine_matches_full_pass_optimized_strict() {
        check_engine_matches_full(EpochMethod::Optimized, DetectionPolicy::STRICT, false, 0xA1);
    }

    #[test]
    fn engine_matches_full_pass_optimized_pruned() {
        check_engine_matches_full(EpochMethod::Optimized, DetectionPolicy::STRICT, true, 0xB2);
    }

    #[test]
    fn engine_matches_full_pass_basic_strict() {
        check_engine_matches_full(EpochMethod::Basic, DetectionPolicy::STRICT, false, 0xC3);
    }

    #[test]
    fn engine_matches_full_pass_basic_pruned() {
        check_engine_matches_full(EpochMethod::Basic, DetectionPolicy::STRICT, true, 0xD4);
    }

    #[test]
    fn engine_matches_full_pass_extended_policy() {
        check_engine_matches_full(EpochMethod::Optimized, DetectionPolicy::EXTENDED, false, 0xE5);
        // prune flag self-disables under the extended policy — still exact
        check_engine_matches_full(EpochMethod::Optimized, DetectionPolicy::EXTENDED, true, 0xF6);
    }

    #[test]
    fn verdicts_retract_when_evidence_erodes() {
        let thresholds = Thresholds::new(1.0, 3, 0.8, 0.4);
        let nodes: Vec<NodeId> = (1..=6).map(NodeId).collect();
        let mut engine = EpochEngine::new(
            &nodes,
            2,
            EpochMethod::Optimized,
            thresholds,
            DetectionPolicy::STRICT,
            true,
        );
        let mut history = InteractionHistory::new();
        // epoch 1: 1 and 2 boost each other; 3 gives each one negative
        let mut t = 0u64;
        let feed = |engine: &mut EpochEngine, history: &mut InteractionHistory, r: Rating| {
            engine.record(r);
            history.record(r);
        };
        for _ in 0..5 {
            feed(&mut engine, &mut history, Rating::positive(NodeId(1), NodeId(2), SimTime(t)));
            feed(&mut engine, &mut history, Rating::positive(NodeId(2), NodeId(1), SimTime(t)));
            t += 1;
        }
        feed(&mut engine, &mut history, Rating::negative(NodeId(3), NodeId(1), SimTime(t)));
        feed(&mut engine, &mut history, Rating::negative(NodeId(3), NodeId(2), SimTime(t)));
        t += 1;
        let r1 = engine.close_epoch();
        assert!(r1.is_colluder(NodeId(1)) && r1.is_colluder(NodeId(2)), "pair flagged first");
        // epoch 2: the community showers both with positives — community
        // fraction b rises above T_b, the verdict must retract
        for _ in 0..30 {
            for rater in [3u64, 4, 5, 6] {
                feed(
                    &mut engine,
                    &mut history,
                    Rating::positive(NodeId(rater), NodeId(1), SimTime(t)),
                );
                feed(
                    &mut engine,
                    &mut history,
                    Rating::positive(NodeId(rater), NodeId(2), SimTime(t)),
                );
                t += 1;
            }
        }
        let r2 = engine.close_epoch();
        let expect = full_pass(
            &history,
            &nodes,
            EpochMethod::Optimized,
            thresholds,
            DetectionPolicy::STRICT,
        );
        assert_eq!(pair_keys(&r2.pairs), pair_keys(&expect));
        assert!(!r2.is_colluder(NodeId(1)), "verdict retracted after community evidence");
    }

    /// The one case the reverse fan still serves: under a non-mutual policy
    /// `D(y←c)` holds for epochs while `c` sits below `T_R`, then `c` flips
    /// to high in an epoch that does not touch `y`. Nothing in `y`'s row
    /// changed and `c`'s own row has no frequent cell, so only the fan over
    /// `frequent_ratees_of(c)` can raise the pair.
    #[test]
    fn to_high_flip_opens_a_standing_direction_through_the_reverse_fan() {
        let thresholds = Thresholds::new(2.0, 3, 0.8, 0.4);
        let policy = DetectionPolicy { require_mutual: false, community_excludes_frequent: false };
        let (c, y) = (NodeId(1), NodeId(2));
        let nodes: Vec<NodeId> = (1..=6).map(NodeId).collect();
        for method in [EpochMethod::Basic, EpochMethod::Optimized] {
            let mut engine = EpochEngine::new(&nodes, 2, method, thresholds, policy, false);
            let mut history = InteractionHistory::new();
            let mut t = 0u64;
            let mut close = |engine: &mut EpochEngine,
                             history: &mut InteractionHistory,
                             ratings: &[(u64, u64, RatingValue)]| {
                for &(rater, ratee, v) in ratings {
                    let r = Rating::new(NodeId(rater), NodeId(ratee), v, SimTime(t));
                    t += 1;
                    engine.record(r);
                    history.record(r);
                }
                let report = engine.close_epoch();
                assert_eq!(report.pairs, full_pass(history, &nodes, method, thresholds, policy));
                report
            };
            use RatingValue::{Negative, Positive};
            // c boosts y against a hostile community: D(y←c) holds, y is
            // high, c has no reputation at all — nothing is flagged
            let boost = [(1, 2, Positive); 6];
            let community = [(3, 2, Negative), (4, 2, Negative), (5, 2, Positive)];
            let r1 = close(&mut engine, &mut history, &[&boost[..], &community[..]].concat());
            assert!(r1.pairs.is_empty());
            // an epoch that touches neither: still nothing
            let r2 = close(&mut engine, &mut history, &[(5, 6, Positive)]);
            assert!(r2.pairs.is_empty());
            // c crosses T_R on one-off ratings (no frequent cell in its own
            // row); y is not rated, so only the to-high flip is new
            let r3 = close(&mut engine, &mut history, &[(3, 1, Positive), (4, 1, Positive)]);
            assert_eq!(pair_keys(&r3.pairs), [(c, y)], "{method:?}: flip opens the pair");
            // and falling back below T_R retracts it
            let r4 = close(&mut engine, &mut history, &[(5, 1, Negative)]);
            assert!(r4.pairs.is_empty(), "{method:?}: flip to low retracts");
        }
    }

    #[test]
    fn persist_recover_round_trips_bit_identically() {
        let thresholds = Thresholds::new(1.0, 3, 0.8, 0.4);
        let base_ids: Vec<u64> = (1..=12).collect();
        let nodes: Vec<NodeId> = base_ids.iter().map(|&i| NodeId(i)).collect();
        for (method, policy, prune) in [
            (EpochMethod::Optimized, DetectionPolicy::STRICT, true),
            (EpochMethod::Basic, DetectionPolicy::STRICT, false),
            (EpochMethod::Optimized, DetectionPolicy::EXTENDED, false),
        ] {
            let mut engine = EpochEngine::new(&nodes, 4, method, thresholds, policy, prune);
            for epoch in 0..4u64 {
                for r in epoch_ratings(&base_ids, 60, 0x5EED ^ epoch, epoch * 10_000) {
                    engine.record(r);
                }
                engine.close_epoch();
            }
            let bytes = engine.persist_bytes(77);
            let (mut recovered, cursor) =
                EpochEngine::recover_from_bytes(&bytes, 4, method, thresholds, policy, prune)
                    .expect("round trip");
            assert_eq!(cursor, 77);
            assert_eq!(recovered.stats(), engine.stats());
            assert_eq!(recovered.report().pairs, engine.report().pairs);
            assert_eq!(recovered.high, engine.high);
            // snapshot counters are bit-identical cell by cell
            assert_eq!(recovered.snap.n(), engine.snap.n());
            for i in 0..engine.snap.n() as u32 {
                assert_eq!(recovered.snap.node_id(i), engine.snap.node_id(i));
                assert_eq!(recovered.snap.totals_of(i), engine.snap.totals_of(i));
                assert_eq!(recovered.snap.row(i), engine.snap.row(i), "row {i}");
            }
            // both engines evolve identically after the round trip
            for r in epoch_ratings(&base_ids, 60, 0xFACE, 90_000) {
                engine.record(r);
                recovered.record(r);
            }
            let a = engine.close_epoch();
            let b = recovered.close_epoch();
            assert_eq!(a.pairs, b.pairs, "post-recovery epochs diverge");
        }
    }

    #[test]
    fn recover_rejects_malformed_payloads_without_panicking() {
        let thresholds = Thresholds::new(1.0, 3, 0.8, 0.4);
        let nodes: Vec<NodeId> = (1..=6).map(NodeId).collect();
        let mut engine = EpochEngine::new(
            &nodes,
            2,
            EpochMethod::Optimized,
            thresholds,
            DetectionPolicy::STRICT,
            true,
        );
        for r in epoch_ratings(&[1, 2, 3, 4, 5, 6], 40, 0xAB, 0) {
            engine.record(r);
        }
        engine.close_epoch();
        let good = engine.persist_bytes(5);
        let recover = |bytes: &[u8]| {
            EpochEngine::recover_from_bytes(
                bytes,
                2,
                EpochMethod::Optimized,
                thresholds,
                DetectionPolicy::STRICT,
                true,
            )
        };
        assert!(recover(&good).is_ok());
        // truncations at every prefix must error, never panic
        for cut in 0..good.len() {
            assert!(recover(&good[..cut]).is_err(), "prefix {cut} accepted");
        }
        // trailing garbage is rejected
        let mut padded = good.clone();
        padded.push(0);
        assert!(recover(&padded).is_err());
        // wrong version tag
        let mut wrong = good.clone();
        wrong[0] ^= 0xFF;
        assert!(recover(&wrong).is_err());
        // a row's columns repeated, or descending: the writer emits neither
        let (_, cells) = first_row_with_two_cells(&good);
        let mut repeated = good.clone();
        repeated.copy_within(cells..cells + 4, cells + CELL_BYTES);
        assert!(recover(&repeated).is_err(), "repeated column accepted");
        let mut descending = good.clone();
        descending[cells..cells + 2 * CELL_BYTES].rotate_left(CELL_BYTES);
        assert!(recover(&descending).is_err(), "descending columns accepted");
        // a cell claiming more positives, or more positives plus negatives,
        // than ratings: the writer never emits either
        let total = u64::from_le_bytes(good[cells + 4..cells + 12].try_into().unwrap());
        let mut positive_over = good.clone();
        positive_over[cells + 12..cells + 20].copy_from_slice(&(total + 4).to_le_bytes());
        assert!(recover(&positive_over).is_err(), "positive > total accepted");
        let mut split_over = good.clone();
        split_over[cells + 12..cells + 20].copy_from_slice(&total.to_le_bytes());
        split_over[cells + 20..cells + 28].copy_from_slice(&1u64.to_le_bytes());
        assert!(recover(&split_over).is_err(), "positive + negative > total accepted");
    }

    /// Index of the first persisted row holding at least two cells, and the
    /// byte offset of its first cell.
    fn first_row_with_two_cells(image: &[u8]) -> (u32, usize) {
        let u32_at = |at: usize| u32::from_le_bytes(image[at..at + 4].try_into().unwrap()) as usize;
        // version, wal_seq, then n and the node ids
        let mut at = 4 + 8;
        let n = u32_at(at);
        at += 4 + n * 8;
        for row in 0..n as u32 {
            let len = u32_at(at);
            if len >= 2 {
                return (row, at + 4);
            }
            at += 4 + len * CELL_BYTES;
        }
        panic!("no row holds two cells");
    }

    /// Counts no engine could have counted, but an image can claim: two
    /// frequent cells of one row at `total = 2^63` overflow the row's sums.
    /// Restore, the row's frequent aggregate, the next record and the next
    /// close saturate instead of panicking.
    #[test]
    fn restored_counts_past_u64_saturate_instead_of_panicking() {
        let thresholds = Thresholds::new(1.0, 3, 0.8, 0.4);
        let nodes: Vec<NodeId> = (1..=6).map(NodeId).collect();
        let mut seed = EpochEngine::new(
            &nodes,
            2,
            EpochMethod::Optimized,
            thresholds,
            DetectionPolicy::STRICT,
            true,
        );
        for r in epoch_ratings(&[1, 2, 3, 4, 5, 6], 40, 0xAB, 0) {
            seed.record(r);
        }
        seed.close_epoch();
        let mut image = seed.persist_bytes(5);
        let (row, cells) = first_row_with_two_cells(&image);
        let rater_col = u32::from_le_bytes(image[cells..cells + 4].try_into().unwrap());
        for cell in [cells, cells + CELL_BYTES] {
            image[cell + 4..cell + 12].copy_from_slice(&(1u64 << 63).to_le_bytes());
            image[cell + 12..cell + 20].copy_from_slice(&(1u64 << 63).to_le_bytes());
            image[cell + 20..cell + 28].copy_from_slice(&0u64.to_le_bytes());
        }
        let (mut restored, _) = EpochEngine::recover_from_bytes(
            &image,
            2,
            EpochMethod::Optimized,
            thresholds,
            DetectionPolicy::STRICT,
            true,
        )
        .expect("an overflowing row still restores");
        let snap = restored.snapshot();
        assert_eq!(snap.row_freq(row, thresholds.t_n), (u64::MAX, i64::MAX));
        assert_eq!(snap.frequent_agg(thresholds.t_n, row), Some((u64::MAX, i64::MAX)));
        let (ratee, rater) = (snap.node_id(row), snap.node_id(rater_col));
        restored.record(Rating::positive(rater, ratee, SimTime(1_000)));
        restored.close_epoch();
        let snap = restored.snapshot();
        let row = snap.index(ratee).expect("ratee still interned");
        assert_eq!(snap.totals_of(row).total, u64::MAX);
        assert_eq!(snap.frequent_agg(thresholds.t_n, row), Some((u64::MAX, i64::MAX)));
    }

    #[test]
    fn watermark_forces_early_close_and_counts_it() {
        let thresholds = Thresholds::new(1.0, 3, 0.8, 0.4);
        let nodes: Vec<NodeId> = (1..=8).map(NodeId).collect();
        let mut bounded = EpochEngine::new(
            &nodes,
            2,
            EpochMethod::Optimized,
            thresholds,
            DetectionPolicy::STRICT,
            true,
        );
        bounded.set_pair_watermark(Some(4));
        assert_eq!(bounded.pair_watermark(), Some(4));
        let mut unbounded = EpochEngine::new(
            &nodes,
            2,
            EpochMethod::Optimized,
            thresholds,
            DetectionPolicy::STRICT,
            true,
        );
        let mut history = InteractionHistory::new();
        for r in epoch_ratings(&[1, 2, 3, 4, 5, 6, 7, 8], 120, 0xCAFE, 0) {
            bounded.record(r);
            unbounded.record(r);
            history.record(r);
        }
        let rb = bounded.close_epoch();
        let ru = unbounded.close_epoch();
        assert!(bounded.stats().forced_closes > 0, "watermark never tripped");
        assert_eq!(unbounded.stats().forced_closes, 0);
        assert!(bounded.stats().epochs > unbounded.stats().epochs);
        // same final suspect set as the unbounded engine and the full pass
        assert_eq!(pair_keys(&rb.pairs), pair_keys(&ru.pairs));
        let expect = full_pass(
            &history,
            &nodes,
            EpochMethod::Optimized,
            thresholds,
            DetectionPolicy::STRICT,
        );
        assert_eq!(rb.pairs, expect);
    }

    #[test]
    fn forced_closes_count_buffered_ratings_not_pairs() {
        let nodes: Vec<NodeId> = (1..=4).map(NodeId).collect();
        let mut engine = EpochEngine::new(
            &nodes,
            2,
            EpochMethod::Optimized,
            Thresholds::new(1.0, 3, 0.8, 0.4),
            DetectionPolicy::STRICT,
            true,
        );
        const W: u64 = 7;
        engine.set_pair_watermark(Some(W as usize));
        // three pairs rated over and over, with a self-rating in every five
        let mut accepted = 0u64;
        for k in 0..100u64 {
            let (rater, ratee) = if k % 5 == 0 { (2, 2) } else { (1 + k % 3, 4) };
            accepted += u64::from(engine.record(Rating::positive(
                NodeId(rater),
                NodeId(ratee),
                SimTime(k),
            )));
        }
        assert_eq!(accepted, 80);
        assert_eq!(engine.stats().forced_closes, accepted / W);
        assert_eq!(engine.pending_ratings(), accepted % W);
    }

    #[test]
    fn frozen_snapshot_sees_the_open_epoch_and_leaves_the_engine_alone() {
        let thresholds = Thresholds::new(1.0, 3, 0.8, 0.4);
        let base_ids: Vec<u64> = (1..=12).collect();
        let nodes: Vec<NodeId> = base_ids.iter().map(|&i| NodeId(i)).collect();
        let policy = DetectionPolicy::STRICT;
        let mut engine =
            EpochEngine::new(&nodes, 4, EpochMethod::Optimized, thresholds, policy, false);
        let mut history = InteractionHistory::new();
        let fold =
            |engine: &mut EpochEngine, history: &mut InteractionHistory, ids: &[u64], seed| {
                for r in epoch_ratings(ids, 60, seed, seed * 10_000) {
                    engine.record(r);
                    history.record(r);
                }
            };
        fold(&mut engine, &mut history, &base_ids, 1);
        engine.close_epoch();
        // the open epoch interns two ids the standing snapshot has not seen
        let wider: Vec<u64> = base_ids.iter().copied().chain([40, 41]).collect();
        fold(&mut engine, &mut history, &wider, 2);
        let pending = engine.pending_ratings();
        assert!(pending > 0);

        let frozen = engine.frozen_snapshot();
        let expect = ShardedSnapshot::build(&history, &nodes, 1);
        assert_eq!(frozen.nodes(), expect.nodes());
        for i in 0..expect.n() as u32 {
            assert_eq!(frozen.totals_of(i), expect.totals_of(i), "totals of {i}");
            assert_eq!(frozen.row(i), expect.row(i), "row {i}");
        }
        // nothing was drained or closed
        assert_eq!(engine.pending_ratings(), pending);
        assert_eq!(engine.stats().epochs, 1);
        assert!(engine.snapshot().index(NodeId(40)).is_none());
        let all: Vec<NodeId> = wider.iter().map(|&i| NodeId(i)).collect();
        let report = engine.close_epoch();
        assert_eq!(
            report.pairs,
            full_pass(&history, &all, EpochMethod::Optimized, thresholds, policy)
        );
    }

    #[test]
    fn empty_epoch_keeps_standing_verdicts() {
        let thresholds = Thresholds::new(1.0, 3, 0.8, 0.4);
        let nodes: Vec<NodeId> = (1..=4).map(NodeId).collect();
        let mut engine = EpochEngine::new(
            &nodes,
            2,
            EpochMethod::Optimized,
            thresholds,
            DetectionPolicy::STRICT,
            true,
        );
        for t in 0..5u64 {
            engine.record(Rating::positive(NodeId(1), NodeId(2), SimTime(t)));
            engine.record(Rating::positive(NodeId(2), NodeId(1), SimTime(t)));
        }
        engine.record(Rating::negative(NodeId(3), NodeId(1), SimTime(9)));
        engine.record(Rating::negative(NodeId(3), NodeId(2), SimTime(9)));
        let r1 = engine.close_epoch();
        assert!(!r1.pairs.is_empty());
        let r2 = engine.close_epoch();
        assert_eq!(pair_keys(&r1.pairs), pair_keys(&r2.pairs));
        assert_eq!(engine.stats().epochs, 2);
    }
}

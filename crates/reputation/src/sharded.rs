//! [`ShardedSnapshot`] — the frozen CSR view of an [`InteractionHistory`]
//! that every detection pass reads, split by ratee-id range into
//! independent shards.
//!
//! The detectors in `collusion-core` probe the rating matrix millions of
//! times per pass. Served from `InteractionHistory`'s hash maps, every probe
//! pays a hash of a `(NodeId, NodeId)` tuple; served from this snapshot, a
//! probe is a binary search over a short, contiguous row. The snapshot is
//! *frozen*: detectors only read it, so row walks need no locks.
//!
//! Node ids are interned to dense `u32` indices (`nodes[idx] ↔ idx`),
//! ascending by id, covering the caller's node list *plus* every rater and
//! ratee in the history (detector row scans include raters outside the
//! manager's view). The interned index space is cut into `target_shards`
//! contiguous ranges of ratee rows — one shard for a paper-scale matrix, 64
//! at 100k nodes — and each `Shard` owns the forward CSR (per ratee, the
//! rater indices ascending with their packed [`PairCounters`]), the
//! per-ratee totals (`N_i` and the signed reputation `R_i` of Formula 2)
//! and the optional frequent aggregates (per-ratee `(count, signed sum)`
//! over raters with `N(j,i) ≥ T_N`, for the extended policy) of its range.
//! A closed epoch touches only the shards owning its rows, and shards
//! merge in parallel, since their row ranges are disjoint.
//!
//! Every whole-matrix build goes through one row-order constructor,
//! [`RowBuilder`]: rows arrive in ascending order, columns strictly
//! ascending, and each is written straight into the arena of the shard that
//! owns it. [`ShardedSnapshot::build`] feeds it from one pass over the
//! history's cells — ids resolved through the base list's index (only ids
//! the list lacks are interned on top), cells grouped by shard in place,
//! each shard's cells counting-sorted by row and each row sorted by column
//! — instead of one hash probe per cell; checkpoint restore
//! (`EpochEngine::recover_from_bytes` in `collusion-core`) decodes
//! persisted rows into it directly, with no history in between.
//!
//! There is no reverse CSR (it would interleave all shards and serialize
//! the merge): pair probes binary-search the ratee's forward row inside its
//! shard. The one reverse question epoch-incremental
//! detection still asks — "which rows hold a *frequent* cell from this
//! rater", for a rater whose reputation just crossed `T_R` — is answered
//! by a reverse index of frequent edges only (`freq_rev[j]` = sorted ratees
//! `i` with `cell(i, j).total ≥ T_N`, no counters). The paper's C4 gate
//! rules every other edge out before anything else is read, so the index
//! holds a few entries per colluder instead of one per rating pair; it is
//! kept beside the per-row frequent aggregates, from the same `T_N`
//! crossings, and is empty for a snapshot built without a `T_N`.
//!
//! The snapshot also drains a closed [`EpochBuffer`] directly
//! ([`ShardedSnapshot::apply_epoch`]): both ids of every logged rating
//! resolve to dense indices, the ratings are sorted as packed
//! `(row, col, value)` keys and folded into per-pair deltas, counters merge
//! into rows in place, and previously unseen nodes are re-interned with a
//! monotone index remap — so a long-running engine never replays a full
//! history, and no close sorts by id. A snapshot
//! changes only by a fresh build or by `apply_epoch`, and both only add
//! counts, so the frequent reverse index only ever gains edges. An advanced
//! snapshot is bit-identical to a fresh build from a history that recorded
//! the same ratings; the crate tests check each probe against the history
//! itself, and the workspace `detection_equivalence`/`scale_props`
//! harnesses check the detectors' reports.

use crate::epoch::EpochBuffer;
use crate::fxhash::FxHashMap;
use crate::history::{InteractionHistory, NodeTotals, PairCounters};
use crate::id::NodeId;
use crate::rating::RatingValue;

/// One cell with ids resolved to dense indices: `(global ratee row, rater
/// index, counters)` (id order and index order agree — interning is
/// ascending by id).
type IdxEntry = (u32, u32, PairCounters);

/// Bits of one dense index inside a packed close key.
const INDEX_BITS: u32 = 31;

/// The most nodes a snapshot interns. A close sorts each rating as one
/// `u64` key holding two dense indices of 31 bits each and a
/// 2-bit rating value, so every index must stay below `2^31`.
pub const MAX_NODES: usize = 1 << INDEX_BITS;

/// Pack one resolved rating into its close sort key: the row in the top
/// 31 bits, the column in the next 31, the value in the low 2. Ascending
/// keys are ascending `(row, col)`, with a pair's ratings adjacent.
#[inline]
fn pack_key(row: u32, col: u32, value: RatingValue) -> u64 {
    debug_assert!((row as usize) < MAX_NODES && (col as usize) < MAX_NODES);
    let code = match value {
        RatingValue::Negative => 0,
        RatingValue::Neutral => 1,
        RatingValue::Positive => 2,
    };
    (u64::from(row) << (INDEX_BITS + 2)) | (u64::from(col) << 2) | code
}

/// The `(row, col, value)` of a key [`pack_key`] made.
#[inline]
fn unpack_key(key: u64) -> (u32, u32, RatingValue) {
    let value = match key & 3 {
        0 => RatingValue::Negative,
        1 => RatingValue::Neutral,
        _ => RatingValue::Positive,
    };
    let col = ((key >> 2) & ((1 << INDEX_BITS) - 1)) as u32;
    ((key >> (INDEX_BITS + 2)) as u32, col, value)
}

/// Sort `keys` and fold each run of one pair into an `out` entry, in
/// `(row, col)` order.
fn fold_keys(keys: &mut [u64], out: &mut Vec<IdxEntry>) {
    keys.sort_unstable();
    out.clear();
    for run in keys.chunk_by(|a, b| a >> 2 == b >> 2) {
        let mut c = PairCounters::default();
        run.iter().for_each(|&key| c.accumulate(unpack_key(key).2));
        let (row, col, _) = unpack_key(run[0]);
        out.push((row, col, c));
    }
}

/// Borrowed structure-of-arrays totals of one contiguous row range.
///
/// `total[k]`, `positive[k]`, `negative[k]` are the
/// [`NodeTotals`] of global row `base + k`. Produced by
/// [`ShardedSnapshot::totals_columns`] for the batch detection kernels.
#[derive(Clone, Copy, Debug)]
pub struct TotalsColumns<'a> {
    /// Global row index of element 0.
    pub base: u32,
    /// Per-ratee rating counts `N_i`.
    pub total: &'a [u64],
    /// Per-ratee positive counts.
    pub positive: &'a [u64],
    /// Per-ratee negative counts.
    pub negative: &'a [u64],
}

/// Rows-per-shard so that `n` rows split into at most `target` shards.
fn rows_per_shard_for(n: usize, target: usize) -> usize {
    if n == 0 {
        1
    } else {
        n.div_ceil(target.max(1))
    }
}

/// Frequent aggregate `(count, signed sum)` of one row's cells over the
/// cells with `total ≥ t_n`. The sums are exact, then clamped to the
/// result types: a restored image can hold cells whose sum overflows.
fn freq_of(cells: &[PairCounters], t_n: u64) -> (u64, i64) {
    let (mut count, mut signed) = (0i128, 0i128);
    for c in cells.iter().filter(|c| c.total >= t_n) {
        count += i128::from(c.total);
        signed += i128::from(c.signed());
    }
    clamp_freq(count, signed)
}

/// Clamp an exact frequent aggregate to `(u64, i64)`, saturating.
fn clamp_freq(count: i128, signed: i128) -> (u64, i64) {
    let count = u64::try_from(count.max(0)).unwrap_or(u64::MAX);
    let signed = i64::try_from(signed).unwrap_or(if signed < 0 { i64::MIN } else { i64::MAX });
    (count, signed)
}

/// Merge the ascending ratee indices of one rater's `(rater, ratee)` edge
/// run into the rater's ascending frequent-ratee list, in place, with one
/// backward two-pointer pass — every element moves at most once, against
/// the O(len) memmove a per-edge `Vec::insert` pays. Values already
/// present are skipped, so the result matches per-edge sorted insertion.
fn merge_sorted_into(list: &mut Vec<u32>, run: &[(u32, u32)]) {
    // Count genuinely new values first (monotone forward walk) so the
    // backward merge knows its final length up front.
    let mut new = 0usize;
    {
        let mut a = 0usize;
        for &(_, g) in run {
            a += list[a..].partition_point(|&x| x < g);
            if a >= list.len() || list[a] != g {
                new += 1;
            }
        }
    }
    if new == 0 {
        return;
    }
    let old_len = list.len();
    list.resize(old_len + new, 0);
    let mut w = old_len + new; // write cursor (exclusive)
    let mut a = old_len; // old elements [0, a) not yet merged
    let mut r = run.len();
    while r > 0 {
        let g = run[r - 1].1;
        while a > 0 && list[a - 1] > g {
            w -= 1;
            list[w] = list[a - 1];
            a -= 1;
        }
        if !(a > 0 && list[a - 1] == g) {
            w -= 1;
            list[w] = g;
        }
        r -= 1;
    }
    debug_assert_eq!(w, a);
}

/// Reusable buffers of [`Shard::rebuild_with`]: the spare arena epoch
/// merges write into and swap (so steady-state closes never allocate), and
/// the newly frequent edges of the last merge. Scratch, not state — a clone
/// of a shard starts with none, so freezing a snapshot copies each arena
/// once.
#[derive(Debug, Default)]
struct MergeScratch {
    /// Spare CSR offsets.
    offsets: Vec<u32>,
    /// Spare rater-index arena.
    cols: Vec<u32>,
    /// Spare counter arena.
    cells: Vec<PairCounters>,
    /// `(rater, ratee row)` edges whose cell crossed `T_N` in the last
    /// merge, for the frequent reverse index (cleared per merge).
    new_frequent: Vec<(u32, u32)>,
}

impl Clone for MergeScratch {
    fn clone(&self) -> Self {
        MergeScratch::default()
    }
}

/// Reusable buffers of [`ShardedSnapshot::apply_epoch`]. Scratch, not
/// state: a clone starts with none, so freezing a snapshot copies none of
/// them.
#[derive(Debug, Default)]
struct ApplyScratch {
    /// The drained log's packed `(row, col, value)` sort keys.
    keys: Vec<u64>,
    /// The keys folded into per-pair entries — the last apply's dirty
    /// rows ([`ShardedSnapshot::applied_rows`]).
    entries: Vec<IdxEntry>,
    /// `(rater, ratee)` edges for the frequent reverse index.
    fixup_edges: Vec<(u32, u32)>,
}

impl Clone for ApplyScratch {
    fn clone(&self) -> Self {
        ApplyScratch::default()
    }
}

/// One contiguous range of ratee rows with its own CSR arena.
///
/// Per-ratee totals are stored structure-of-arrays — three contiguous
/// `u64` columns instead of an array of structs — so the batch band/high
/// kernels in `collusion-core` can stream them with vector loads.
#[derive(Clone, Debug)]
struct Shard {
    /// First global row index of the range.
    base: u32,
    /// Number of rows in the range.
    rows: usize,
    /// CSR offsets, `rows + 1` entries.
    row_offsets: Vec<u32>,
    /// Rater indices (global, ascending within each row).
    row_cols: Vec<u32>,
    /// Counters parallel to `row_cols`.
    row_cells: Vec<PairCounters>,
    /// Per-ratee rating counts `N_i` (SoA column).
    tot_total: Vec<u64>,
    /// Per-ratee positive counts (SoA column).
    tot_pos: Vec<u64>,
    /// Per-ratee negative counts (SoA column).
    tot_neg: Vec<u64>,
    /// Per-ratee frequent aggregates ([`freq_of`] of each row), present
    /// iff the snapshot keeps them.
    freq: Option<Vec<(u64, i64)>>,
    /// Double-buffer and newly frequent edges of the epoch merge.
    scratch: MergeScratch,
}

impl Shard {
    fn empty(base: u32, rows: usize, with_freq: bool) -> Shard {
        Shard {
            base,
            rows,
            row_offsets: vec![0u32; rows + 1],
            row_cols: Vec::new(),
            row_cells: Vec::new(),
            tot_total: vec![0; rows],
            tot_pos: vec![0; rows],
            tot_neg: vec![0; rows],
            freq: with_freq.then(|| vec![(0, 0); rows]),
            scratch: MergeScratch::default(),
        }
    }

    #[inline]
    fn totals(&self, local: usize) -> NodeTotals {
        NodeTotals {
            total: self.tot_total[local],
            positive: self.tot_pos[local],
            negative: self.tot_neg[local],
        }
    }

    #[inline]
    fn set_totals(&mut self, local: usize, t: NodeTotals) {
        self.tot_total[local] = t.total;
        self.tot_pos[local] = t.positive;
        self.tot_neg[local] = t.negative;
    }

    #[inline]
    fn row(&self, local: usize) -> (&[u32], &[PairCounters]) {
        let (s, e) = (self.row_offsets[local] as usize, self.row_offsets[local + 1] as usize);
        (&self.row_cols[s..e], &self.row_cells[s..e])
    }

    /// Frequent aggregate of one row computed directly.
    fn row_freq(&self, local: usize, t_n: u64) -> (u64, i64) {
        freq_of(self.row(local).1, t_n)
    }

    /// Rater indices of the row's frequent cells (`total ≥ t_n`), ascending.
    /// The row's aggregate count is the sum of exactly those cells' totals
    /// (each ≥ 1), so a zero count answers "none" without reading a cell.
    fn frequent_raters(&self, local: usize, t_n: Option<u64>) -> impl Iterator<Item = u32> + '_ {
        let t_n = t_n.filter(|_| self.freq.as_ref().is_some_and(|f| f[local].0 > 0));
        let (cols, cells) = t_n.map_or((&[][..], &[][..]), |_| self.row(local));
        let min = t_n.unwrap_or(u64::MAX);
        cols.iter().zip(cells).filter(move |(_, c)| c.total >= min).map(|(&j, _)| j)
    }

    /// Merge one epoch's resolved delta entries (all rows owned by this
    /// shard, sorted by row then rater index) by rebuilding the packed
    /// arena into the spare buffers and swapping.
    ///
    /// Untouched row *ranges* are bulk-copied (`extend_from_slice`, no
    /// per-cell work); touched rows two-pointer-merge against their entry
    /// group. Totals and frequent aggregates update in place; a cell that
    /// crosses `T_N` (the same comparison the aggregate delta makes) is
    /// recorded in [`MergeScratch::new_frequent`] for the caller's reverse
    /// index. Counters only grow, so no cell ever crosses back. After the
    /// first few epochs the spare arenas have grown to capacity and the
    /// merge allocates nothing.
    fn rebuild_with(&mut self, entries: &[IdxEntry], freq_t_n: Option<u64>) {
        // `u64::MAX` sentinel keeps the merge loop branch-simple when the
        // snapshot tracks no frequent aggregates (no cell ever qualifies).
        let freq_min = freq_t_n.unwrap_or(u64::MAX);
        self.scratch.new_frequent.clear();
        let mut offs = std::mem::take(&mut self.scratch.offsets);
        let mut cols = std::mem::take(&mut self.scratch.cols);
        let mut cells = std::mem::take(&mut self.scratch.cells);
        offs.clear();
        cols.clear();
        cells.clear();
        offs.reserve(self.rows + 1);
        cols.reserve(self.row_cols.len() + entries.len());
        cells.reserve(self.row_cells.len() + entries.len());
        offs.push(0u32);

        let src_offs: &[u32] = &self.row_offsets;
        let src_cols: &[u32] = &self.row_cols;
        let src_cells: &[PairCounters] = &self.row_cells;
        // Bulk-copy rows [from, to) unchanged; offsets shift uniformly by
        // however much earlier merged rows have grown.
        let copy_gap = |from: usize,
                        to: usize,
                        offs: &mut Vec<u32>,
                        cols: &mut Vec<u32>,
                        cells: &mut Vec<PairCounters>| {
            if from >= to {
                return;
            }
            let s = src_offs[from];
            let e = src_offs[to];
            let shift = (cols.len() as u32).wrapping_sub(s);
            cols.extend_from_slice(&src_cols[s as usize..e as usize]);
            cells.extend_from_slice(&src_cells[s as usize..e as usize]);
            offs.extend(src_offs[from + 1..=to].iter().map(|&o| o.wrapping_add(shift)));
        };

        let mut k = 0usize;
        let mut done = 0usize; // rows [0, done) emitted
        while k < entries.len() {
            let g = entries[k].0;
            let local = (g - self.base) as usize;
            copy_gap(done, local, &mut offs, &mut cols, &mut cells);

            let mut k_end = k + 1;
            while k_end < entries.len() && entries[k_end].0 == g {
                k_end += 1;
            }
            let group = &entries[k..k_end];
            let (s, e) = (src_offs[local] as usize, src_offs[local + 1] as usize);
            // Frequent-aggregate delta: only cells the group touches can
            // change their contribution, so track the exact integer diff
            // instead of rescanning the merged row (bit-identical — the
            // aggregate is a sum of integer contributions).
            let (mut dfreq_count, mut dfreq_signed) = (0i128, 0i128);
            // Merge by segment: groups are tiny relative to rows, so copy
            // the untouched run before each insertion point with one
            // `extend_from_slice` instead of per-cell pushes.
            let mut a = s;
            for &(_, r, d) in group {
                let pos = a + src_cols[a..e].partition_point(|&c| c < r);
                cols.extend_from_slice(&src_cols[a..pos]);
                cells.extend_from_slice(&src_cells[a..pos]);
                a = pos;
                cols.push(r);
                if a < e && src_cols[a] == r {
                    let old = src_cells[a];
                    let mut c = old;
                    c.merge(&d);
                    let was_frequent = old.total >= freq_min;
                    if was_frequent {
                        dfreq_count -= i128::from(old.total);
                        dfreq_signed -= i128::from(old.signed());
                    }
                    if c.total >= freq_min {
                        dfreq_count += i128::from(c.total);
                        dfreq_signed += i128::from(c.signed());
                        if !was_frequent {
                            self.scratch.new_frequent.push((r, g));
                        }
                    }
                    cells.push(c);
                    a += 1;
                } else {
                    if d.total >= freq_min {
                        dfreq_count += i128::from(d.total);
                        dfreq_signed += i128::from(d.signed());
                        self.scratch.new_frequent.push((r, g));
                    }
                    cells.push(d);
                }
            }
            cols.extend_from_slice(&src_cols[a..e]);
            cells.extend_from_slice(&src_cells[a..e]);
            offs.push(cols.len() as u32);

            for &(_, _, c) in group {
                self.tot_total[local] = self.tot_total[local].saturating_add(c.total);
                self.tot_pos[local] = self.tot_pos[local].saturating_add(c.positive);
                self.tot_neg[local] = self.tot_neg[local].saturating_add(c.negative);
            }
            if dfreq_count != 0 || dfreq_signed != 0 {
                if let Some(f) = self.freq.as_mut() {
                    let (count, signed) = f[local];
                    f[local] = if count == u64::MAX || signed == i64::MAX || signed == i64::MIN {
                        // a clamped aggregate is not the exact sum the
                        // delta applies to: rescan the merged row
                        freq_of(&cells[offs[offs.len() - 2] as usize..], freq_min)
                    } else {
                        clamp_freq(
                            i128::from(count) + dfreq_count,
                            i128::from(signed) + dfreq_signed,
                        )
                    };
                }
            }

            done = local + 1;
            k = k_end;
        }
        copy_gap(done, self.rows, &mut offs, &mut cols, &mut cells);

        assert!(cols.len() <= u32::MAX as usize, "too many cells for u32 shard offsets");
        std::mem::swap(&mut self.row_offsets, &mut offs);
        std::mem::swap(&mut self.row_cols, &mut cols);
        std::mem::swap(&mut self.row_cells, &mut cells);
        self.scratch.offsets = offs;
        self.scratch.cols = cols;
        self.scratch.cells = cells;
    }
}

/// Frozen CSR view of the rating matrix, sharded by ratee-index range.
///
/// Detectors read it through its probe methods and produce bit-identical
/// reports for every shard count; [`ShardedSnapshot::apply_epoch`] touches
/// only the shards owning the epoch's rows, in parallel.
#[derive(Clone, Debug)]
pub struct ShardedSnapshot {
    /// Interned node ids, ascending; `nodes[idx]` is the id of dense `idx`.
    nodes: Vec<NodeId>,
    /// id → dense index. Fx-hashed for probe cost on the per-rating hot
    /// path; the ids come from ratings, so on a manager they are
    /// client-chosen (see [`crate::fxhash`] on exposure).
    index: FxHashMap<NodeId, u32>,
    /// Rows per shard (last shard may be short).
    rows_per_shard: usize,
    /// Requested shard count; actual count is `n.div_ceil(rows_per_shard)`.
    target_shards: usize,
    /// The shards, ascending by row range.
    shards: Vec<Shard>,
    /// `freq_rev[j]` = global ratee indices `i` with `cell(i, j).total ≥
    /// T_N`, ascending; every list is empty when `freq_t_n` is `None`. No
    /// counters — pair probes go through the ratee's forward row.
    freq_rev: Vec<Vec<u32>>,
    /// `T_N` the per-shard frequent aggregates and the frequent reverse
    /// index were computed for, if any.
    freq_t_n: Option<u64>,
    /// Sort keys, folded entries and reverse-index edges of the last
    /// [`ShardedSnapshot::apply_epoch`].
    apply: ApplyScratch,
}

/// The row-order constructor of a [`ShardedSnapshot`], the one way a whole
/// matrix is built: rows are written in ascending global row order, each as
/// its cells (columns strictly ascending) followed by its totals, straight
/// into the arena of the shard that owns the row. The shard partition is
/// fixed by the node count before the first row, so nothing is staged in
/// a whole-matrix temporary.
///
/// Checkpoint restore decodes persisted rows into it; a build from an
/// [`InteractionHistory`] groups the history's cells by row and feeds
/// them in.
#[derive(Debug)]
pub struct RowBuilder {
    /// The snapshot under construction; rows at and after the cursor are
    /// still empty.
    snap: ShardedSnapshot,
    /// Shard owning the row being written.
    shard: usize,
    /// Local index of the row being written inside that shard.
    local: usize,
}

impl RowBuilder {
    fn new(
        nodes: Vec<NodeId>,
        index: FxHashMap<NodeId, u32>,
        target_shards: usize,
        freq_t_n: Option<u64>,
    ) -> Self {
        assert!(nodes.len() <= MAX_NODES, "too many nodes to intern");
        let n = nodes.len();
        let rows_per_shard = rows_per_shard_for(n, target_shards);
        let shards = (0..n.div_ceil(rows_per_shard))
            .map(|s| {
                let base = s * rows_per_shard;
                Shard::empty(base as u32, rows_per_shard.min(n - base), freq_t_n.is_some())
            })
            .collect();
        RowBuilder {
            snap: ShardedSnapshot {
                nodes,
                index,
                rows_per_shard,
                target_shards,
                shards,
                freq_rev: Vec::new(),
                freq_t_n,
                apply: ApplyScratch::default(),
            },
            shard: 0,
            local: 0,
        }
    }

    /// Append cell `(col, cell)` to the open row. Columns must be strictly
    /// ascending within a row and `cell` non-empty; a caller holding
    /// untrusted rows checks both before pushing.
    #[inline]
    pub fn push(&mut self, col: u32, cell: PairCounters) {
        let shard = &mut self.snap.shards[self.shard];
        debug_assert!(
            shard.row_cols.len() == shard.row_offsets[self.local] as usize
                || shard.row_cols.last() < Some(&col),
            "row columns must be strictly ascending"
        );
        debug_assert!(cell.total > 0, "stored cells are non-empty");
        shard.row_cols.push(col);
        shard.row_cells.push(cell);
    }

    /// Make room for `cells` more cells in the open row's shard, so the
    /// arena grows once instead of by doubling.
    fn reserve(&mut self, cells: usize) {
        let shard = &mut self.snap.shards[self.shard];
        shard.row_cols.reserve_exact(cells);
        shard.row_cells.reserve_exact(cells);
    }

    /// Close the open row with the ratee's `totals` and its frequent
    /// aggregate, and move to the next row.
    pub fn end_row(&mut self, totals: NodeTotals) {
        let freq_t_n = self.snap.freq_t_n;
        let shard = &mut self.snap.shards[self.shard];
        let local = self.local;
        assert!(shard.row_cols.len() <= u32::MAX as usize, "too many cells for u32 shard offsets");
        shard.row_offsets[local + 1] = shard.row_cols.len() as u32;
        shard.set_totals(local, totals);
        if let Some(t_n) = freq_t_n {
            let agg = shard.row_freq(local, t_n);
            if let Some(f) = shard.freq.as_mut() {
                f[local] = agg;
            }
        }
        self.local += 1;
        if self.local == shard.rows {
            self.shard += 1;
            self.local = 0;
        }
    }

    /// The finished snapshot, once every row has been ended.
    pub fn finish(self) -> ShardedSnapshot {
        let mut snap = self.snap;
        assert_eq!(self.shard, snap.shards.len(), "every row must be ended before finish");
        // Frequent reverse index: the ascending global row walk keeps each
        // rater's list sorted without an explicit sort, and a row without
        // frequent cells is skipped on its aggregate alone.
        let mut freq_rev: Vec<Vec<u32>> = vec![Vec::new(); snap.nodes.len()];
        for shard in &snap.shards {
            for local in 0..shard.rows {
                let g = shard.base + local as u32;
                for j in shard.frequent_raters(local, snap.freq_t_n) {
                    freq_rev[j as usize].push(g);
                }
            }
        }
        snap.freq_rev = freq_rev;
        snap
    }
}

/// `id → dense index` for interned `nodes`.
fn index_of(nodes: &[NodeId]) -> FxHashMap<NodeId, u32> {
    nodes.iter().enumerate().map(|(i, &id)| (id, i as u32)).collect()
}

/// Resolve every cell of `history` through `index` into `out`, in the
/// history's iteration order. Returns the ids `index` lacks, sorted and
/// deduplicated; when there are any, `out` misses their cells.
fn resolve_cells(
    history: &InteractionHistory,
    index: &FxHashMap<NodeId, u32>,
    out: &mut Vec<IdxEntry>,
) -> Vec<NodeId> {
    out.clear();
    out.reserve_exact(history.iter_pairs().len());
    let mut fresh = Vec::new();
    for (rater, ratee, c) in history.iter_pairs() {
        match (index.get(&ratee), index.get(&rater)) {
            (Some(&i), Some(&j)) => out.push((i, j, c)),
            (i, j) => {
                fresh.extend(i.is_none().then_some(ratee));
                fresh.extend(j.is_none().then_some(rater));
            }
        }
    }
    fresh.sort_unstable();
    fresh.dedup();
    fresh
}

/// Permute `cells` in place so each shard's cells are contiguous, in shard
/// order (an American-flag pass: every cell moves at most once). Returns
/// the `n_shards + 1` shard bounds.
fn partition_by_shard(
    cells: &mut [IdxEntry],
    rows_per_shard: usize,
    n_shards: usize,
) -> Vec<usize> {
    let shard_of = |cell: &IdxEntry| cell.0 as usize / rows_per_shard;
    let mut bounds = vec![0usize; n_shards + 1];
    for cell in cells.iter() {
        bounds[shard_of(cell) + 1] += 1;
    }
    for s in 0..n_shards {
        bounds[s + 1] += bounds[s];
    }
    let mut next = bounds.clone();
    for s in 0..n_shards {
        while next[s] < bounds[s + 1] {
            let t = shard_of(&cells[next[s]]);
            if t != s {
                cells.swap(next[s], next[t]);
            }
            next[t] += 1;
        }
    }
    bounds
}

impl ShardedSnapshot {
    /// Build a sharded snapshot of `history` over at most `target_shards`
    /// shards. The interned set is the union of `nodes` and every
    /// rater/ratee in the history, so detector row scans (which include
    /// raters outside the manager's view) never miss an id.
    pub fn build(history: &InteractionHistory, nodes: &[NodeId], target_shards: usize) -> Self {
        Self::from_history(history, nodes.to_vec(), target_shards, None)
    }

    /// [`ShardedSnapshot::build`] plus eager per-shard frequent aggregates
    /// and the frequent reverse index for `t_n` (the epoch engine's
    /// frequency-first candidate fan, and the extended detection policy).
    pub fn build_with_frequent(
        history: &InteractionHistory,
        nodes: &[NodeId],
        target_shards: usize,
        t_n: u64,
    ) -> Self {
        Self::from_history(history, nodes.to_vec(), target_shards, Some(t_n))
    }

    /// A [`RowBuilder`] over `nodes` (strictly ascending: dense index `i`
    /// is `nodes[i]`), cut into at most `target_shards` shards, keeping
    /// frequent aggregates and the frequent reverse index for `freq_t_n`.
    pub fn row_builder(
        nodes: Vec<NodeId>,
        target_shards: usize,
        freq_t_n: Option<u64>,
    ) -> RowBuilder {
        assert!(nodes.windows(2).all(|w| w[0] < w[1]), "nodes must be strictly ascending");
        let index = index_of(&nodes);
        RowBuilder::new(nodes, index, target_shards, freq_t_n)
    }

    /// The history build: intern, resolve the cells in one pass, group
    /// them by shard in place, then counting-sort each shard's cells by
    /// row, sort each row by column and write the rows through a
    /// [`RowBuilder`]. The cells are held once, plus one shard's scratch.
    fn from_history(
        history: &InteractionHistory,
        mut nodes: Vec<NodeId>,
        target_shards: usize,
        freq_t_n: Option<u64>,
    ) -> Self {
        // Intern: the base list, plus only the ids its index misses.
        nodes.sort_unstable();
        nodes.dedup();
        let mut index = index_of(&nodes);
        let mut cells = Vec::new();
        let fresh = resolve_cells(history, &index, &mut cells);
        if !fresh.is_empty() {
            nodes.extend(fresh);
            nodes.sort_unstable();
            index = index_of(&nodes);
            let missed = resolve_cells(history, &index, &mut cells);
            debug_assert!(missed.is_empty(), "every id is interned after the first pass");
        }

        let mut rows = RowBuilder::new(nodes, index, target_shards, freq_t_n);
        let (rows_per_shard, n_shards) = (rows.snap.rows_per_shard, rows.snap.shards.len());
        let bounds = partition_by_shard(&mut cells, rows_per_shard, n_shards);
        let mut offsets: Vec<u32> = Vec::new();
        let mut grouped: Vec<(u32, PairCounters)> = Vec::new();
        for (s, span) in bounds.windows(2).enumerate() {
            let shard_cells = &cells[span[0]..span[1]];
            let (base, n_rows) = (rows.snap.shards[s].base, rows.snap.shards[s].rows);
            assert!(shard_cells.len() <= u32::MAX as usize, "too many cells for u32 shard offsets");
            // counting sort by row: offsets[k + 1] counts, then bounds, row k
            offsets.clear();
            offsets.resize(n_rows + 1, 0);
            for &(i, _, _) in shard_cells {
                offsets[(i - base) as usize + 1] += 1;
            }
            for k in 0..n_rows {
                offsets[k + 1] += offsets[k];
            }
            grouped.clear();
            grouped.resize(shard_cells.len(), (0, PairCounters::default()));
            for &(i, j, c) in shard_cells {
                let slot = &mut offsets[(i - base) as usize];
                grouped[*slot as usize] = (j, c);
                *slot += 1;
            }
            rows.reserve(shard_cells.len());
            // each offsets[k] advanced to row k's end, the start of row k + 1
            let mut start = 0;
            for k in 0..n_rows {
                let row = &mut grouped[start..offsets[k] as usize];
                start = offsets[k] as usize;
                row.sort_unstable_by_key(|e| e.0);
                for &(j, c) in &*row {
                    rows.push(j, c);
                }
                rows.end_row(history.totals(rows.snap.nodes[base as usize + k]));
            }
        }
        rows.finish()
    }

    // ----- Shape ------------------------------------------------------------

    /// Number of shards currently held.
    #[inline]
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of rows each shard covers (the last shard may be short).
    #[inline]
    pub fn rows_per_shard(&self) -> usize {
        self.rows_per_shard
    }

    /// The `T_N` this snapshot keeps frequent aggregates and the frequent
    /// reverse index for, if it was built with one.
    #[inline]
    pub fn frequent_t_n(&self) -> Option<u64> {
        self.freq_t_n
    }

    /// Global ratee indices holding a frequent cell (`total ≥ T_N`) from
    /// `rater`, ascending — the rows whose verdict with `rater` a flip of
    /// `rater`'s reputation can open. Empty without a `T_N`.
    #[inline]
    pub fn frequent_ratees_of(&self, rater: u32) -> &[u32] {
        &self.freq_rev[rater as usize]
    }

    /// Global rater indices whose cell in `ratee`'s row is frequent
    /// (`total ≥ T_N`), ascending. A row whose frequent aggregate count is
    /// zero yields nothing without its cells being read. Empty without a
    /// `T_N`.
    #[inline]
    pub fn frequent_raters_of(&self, ratee: u32) -> impl Iterator<Item = u32> + '_ {
        let shard = self.shard_of(ratee);
        shard.frequent_raters((ratee - shard.base) as usize, self.freq_t_n)
    }

    /// Iterate the per-shard structure-of-arrays totals columns, ascending
    /// by row range. Batch band/high kernels stream these with contiguous
    /// loads instead of one [`ShardedSnapshot::totals_of`] probe per row.
    pub fn totals_columns(&self) -> impl Iterator<Item = TotalsColumns<'_>> {
        self.shards.iter().map(|s| TotalsColumns {
            base: s.base,
            total: &s.tot_total,
            positive: &s.tot_pos,
            negative: &s.tot_neg,
        })
    }

    #[inline]
    fn shard_of(&self, idx: u32) -> &Shard {
        &self.shards[idx as usize / self.rows_per_shard]
    }

    // ----- Epoch application ------------------------------------------------

    /// Drain one closed epoch's log into the shards, without any backing
    /// history, and empty `epoch` (keeping its capacity). Counters add
    /// cell-wise (LSM-style), totals and frequent aggregates update per
    /// touched row, (rater, ratee) edges whose cell crossed `T_N` enter the
    /// frequent reverse index.
    ///
    /// Both ids of every logged rating resolve through the index, each
    /// rating becomes one packed `(row, col, value)` `u64` key, and the
    /// keys are sorted and folded into per-pair `(row, col, counters)`
    /// entries. Interning is ascending by id, so this is the
    /// `(ratee id, rater id)` order [`EpochBuffer::drain`] produces, with
    /// the same cells. The merge is then a shard-parallel **arena
    /// rebuild**: each touched shard rewrites its packed CSR into a retained
    /// spare arena — untouched row ranges bulk-copy, touched rows
    /// two-pointer-merge — and the arenas swap. Steady state (no fresh
    /// nodes) allocates nothing.
    ///
    /// Previously unseen node ids are re-interned. Because interning is
    /// ascending by id, that *shifts dense indices*: the return value is
    /// then `Some(remap)` with `remap[old_idx] = new_idx` (strictly
    /// monotone) so callers can migrate index-keyed state. `None` means
    /// indices are unchanged.
    ///
    /// `threads` bounds the fork-join width of the per-shard merge (shard
    /// row ranges are disjoint, so the result is identical for any value;
    /// `1` runs inline and is the oracle the parallel path is tested
    /// against, `0` is resolved by the caller — pass an explicit count).
    pub fn apply_epoch(&mut self, epoch: &mut EpochBuffer, threads: usize) -> Option<Vec<u32>> {
        self.apply.entries.clear();
        if epoch.is_empty() {
            return None;
        }
        let mut scratch = std::mem::take(&mut self.apply);
        // Resolve optimistically: the steady state has no fresh ids, so
        // pay one resolution pass and only fall back to the
        // collect-fresh → reintern → re-resolve path on an actual miss.
        let mut remap = None;
        if !self.resolve_keys(&epoch.log, &mut scratch.keys) {
            let mut fresh: Vec<NodeId> = epoch
                .log
                .iter()
                .flat_map(|&(ratee, rater, _)| [ratee, rater])
                .filter(|id| !self.index.contains_key(id))
                .collect();
            fresh.sort_unstable();
            fresh.dedup();
            remap = Some(self.reintern(&fresh));
            let resolved = self.resolve_keys(&epoch.log, &mut scratch.keys);
            assert!(resolved, "all logged ids must be interned after reintern");
        }
        epoch.log.clear();
        fold_keys(&mut scratch.keys, &mut scratch.entries);

        let freq_t_n = self.freq_t_n;
        let entries: &[IdxEntry] = &scratch.entries;
        crate::par::for_each_mut(threads, &mut self.shards, |shard| {
            let base = shard.base as usize;
            let lo = entries.partition_point(|e| (e.0 as usize) < base);
            let hi = entries.partition_point(|e| (e.0 as usize) < base + shard.rows);
            if lo == hi {
                return;
            }
            shard.rebuild_with(&entries[lo..hi], freq_t_n);
        });

        // Serial frequent-reverse-index fix-up from the per-shard newly
        // frequent edges (usually none). Gathered and sorted by rater so
        // each touched list is extended by ONE backward in-place merge
        // instead of a `Vec::insert` (and its memmove) per edge — the
        // per-rater edge runs arrive sorted and a rater's list is touched
        // exactly once, so the resulting lists are identical to per-edge
        // sorted insertion.
        let edges = &mut scratch.fixup_edges;
        edges.clear();
        for shard in &self.shards {
            edges.extend_from_slice(&shard.scratch.new_frequent);
        }
        edges.sort_unstable();
        for run in edges.chunk_by(|a, b| a.0 == b.0) {
            merge_sorted_into(&mut self.freq_rev[run[0].0 as usize], run);
        }

        self.apply = scratch;
        remap
    }

    /// The rows the most recent [`ShardedSnapshot::apply_epoch`] merged a
    /// folded entry into, ascending, once per entry — the close's dirty
    /// rows, read from the entries that merge consumed. A clone starts
    /// with none.
    pub fn applied_rows(&self) -> impl Iterator<Item = u32> + '_ {
        self.apply.entries.iter().map(|&(row, _, _)| row)
    }

    /// Resolve both ids of every rating in `log` into one packed key each,
    /// in `keys`. Returns `false` (with `keys` unspecified) on the first id
    /// not interned yet.
    fn resolve_keys(&self, log: &[(NodeId, NodeId, RatingValue)], keys: &mut Vec<u64>) -> bool {
        keys.clear();
        keys.reserve(log.len());
        for &(ratee, rater, value) in log {
            match (self.index.get(&ratee), self.index.get(&rater)) {
                (Some(&row), Some(&col)) => keys.push(pack_key(row, col, value)),
                _ => return false,
            }
        }
        true
    }

    /// Intern `fresh` ids (sorted, deduped, all previously unknown) and
    /// rebuild the shard partition under the widened index space. Returns
    /// the strictly monotone old-index → new-index remap.
    fn reintern(&mut self, fresh: &[NodeId]) -> Vec<u32> {
        let old_nodes = std::mem::take(&mut self.nodes);
        let old_n = old_nodes.len();
        let mut merged: Vec<NodeId> = Vec::with_capacity(old_n + fresh.len());
        let mut remap: Vec<u32> = Vec::with_capacity(old_n);
        let mut old_of_new: Vec<Option<u32>> = Vec::with_capacity(old_n + fresh.len());
        let (mut a, mut b) = (0usize, 0usize);
        while a < old_n || b < fresh.len() {
            if b >= fresh.len() || (a < old_n && old_nodes[a] < fresh[b]) {
                remap.push(merged.len() as u32);
                old_of_new.push(Some(a as u32));
                merged.push(old_nodes[a]);
                a += 1;
            } else {
                old_of_new.push(None);
                merged.push(fresh[b]);
                b += 1;
            }
        }
        let n = merged.len();
        assert!(n <= MAX_NODES, "too many nodes to intern");
        self.index = index_of(&merged);
        self.nodes = merged;

        let old_rps = self.rows_per_shard;
        let old_shards = std::mem::take(&mut self.shards);
        self.rows_per_shard = rows_per_shard_for(n, self.target_shards);
        let rps = self.rows_per_shard;
        let n_shards = n.div_ceil(rps);

        let freq_t_n = self.freq_t_n;
        self.shards = Vec::with_capacity(n_shards);
        for s in 0..n_shards {
            let base = s * rps;
            let rows = rps.min(n - base);
            let mut shard = Shard::empty(base as u32, rows, freq_t_n.is_some());
            let mut row_offsets = Vec::with_capacity(rows + 1);
            row_offsets.push(0u32);
            let mut row_cols = Vec::new();
            let mut row_cells = Vec::new();
            for local in 0..rows {
                if let Some(og) = old_of_new[base + local] {
                    let osh = &old_shards[og as usize / old_rps];
                    let olocal = (og - osh.base) as usize;
                    let (cols, cells) = osh.row(olocal);
                    row_cols.extend(cols.iter().map(|&c| remap[c as usize]));
                    row_cells.extend_from_slice(cells);
                    shard.set_totals(local, osh.totals(olocal));
                    if let (Some(f), Some(of)) = (shard.freq.as_mut(), osh.freq.as_ref()) {
                        f[local] = of[olocal];
                    }
                }
                row_offsets.push(row_cols.len() as u32);
            }
            shard.row_offsets = row_offsets;
            shard.row_cols = row_cols;
            shard.row_cells = row_cells;
            self.shards.push(shard);
        }

        let old_rev = std::mem::take(&mut self.freq_rev);
        let mut freq_rev: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (oj, mut list) in old_rev.into_iter().enumerate() {
            // The remap is strictly monotone, so remapped lists stay sorted.
            for g in &mut list {
                *g = remap[*g as usize];
            }
            freq_rev[remap[oj] as usize] = list;
        }
        self.freq_rev = freq_rev;
        remap
    }
}

/// Read-only probes the detection kernels run against. All take dense
/// `u32` indices (see [`ShardedSnapshot::index`]); interning is ascending
/// by [`NodeId`], so ascending index order is ascending id order.
impl ShardedSnapshot {
    /// Number of interned nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.nodes.len()
    }

    /// The interned node ids, ascending (dense index → id).
    #[inline]
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The node id of dense index `idx`.
    #[inline]
    pub fn node_id(&self, idx: u32) -> NodeId {
        self.nodes[idx as usize]
    }

    /// The dense index of `id`, if interned.
    #[inline]
    pub fn index(&self, id: NodeId) -> Option<u32> {
        self.index.get(&id).copied()
    }

    /// Number of stored (rater, ratee) cells.
    pub fn nnz(&self) -> usize {
        self.shards.iter().map(|s| s.row_cols.len()).sum()
    }

    /// The forward row of ratee `idx`: rater indices (ascending) and their
    /// counters.
    #[inline]
    pub fn row(&self, idx: u32) -> (&[u32], &[PairCounters]) {
        let shard = self.shard_of(idx);
        shard.row((idx - shard.base) as usize)
    }

    /// Counters for the ordered pair (rater → ratee), zero if absent. The
    /// probe goes through the *ratee's forward row* (there are no reverse
    /// counters): a binary search inside one shard.
    #[inline]
    pub fn pair(&self, rater: u32, ratee: u32) -> PairCounters {
        let (cols, cells) = self.row(ratee);
        match cols.binary_search(&rater) {
            Ok(pos) => cells[pos],
            Err(_) => PairCounters::default(),
        }
    }

    /// Aggregate counters for ratee `idx` (`N_i` and the split).
    #[inline]
    pub fn totals_of(&self, idx: u32) -> NodeTotals {
        let shard = self.shard_of(idx);
        shard.totals((idx - shard.base) as usize)
    }

    /// Signed reputation `R_i = #pos − #neg` of ratee `idx`.
    #[inline]
    pub fn signed(&self, idx: u32) -> i64 {
        self.totals_of(idx).signed()
    }

    /// The precomputed frequent aggregate for ratee `idx`, if aggregates
    /// were computed for exactly this `t_n`.
    #[inline]
    pub fn frequent_agg(&self, t_n: u64, idx: u32) -> Option<(u64, i64)> {
        if self.freq_t_n != Some(t_n) {
            return None;
        }
        let shard = self.shard_of(idx);
        shard.freq.as_ref().map(|f| f[(idx - shard.base) as usize])
    }

    /// Compute the frequent aggregate for one row directly: `(count,
    /// signed sum)` over raters with `N(j,i) ≥ t_n`.
    pub fn row_freq(&self, idx: u32, t_n: u64) -> (u64, i64) {
        let shard = self.shard_of(idx);
        shard.row_freq((idx - shard.base) as usize, t_n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::EpochBuffer;
    use crate::id::SimTime;
    use crate::rating::{Rating, RatingValue};

    fn pseudo_ratings(seed: u64, n: u64, len: u64) -> Vec<Rating> {
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        (0..len)
            .map(|t| {
                let a = next() % n;
                let mut b = next() % n;
                if a == b {
                    b = (b + 1) % n;
                }
                let v = match next() % 3 {
                    0 => RatingValue::Negative,
                    1 => RatingValue::Neutral,
                    _ => RatingValue::Positive,
                };
                Rating::new(NodeId(a), NodeId(b), v, SimTime(t))
            })
            .collect()
    }

    fn record_all(h: &mut InteractionHistory, ratings: &[Rating]) {
        for &r in ratings {
            h.record(r);
        }
    }

    /// The frequent reverse index and the per-row frequent-rater walk both
    /// equal the brute-force `{(j → i) : cell(i, j).total ≥ t_n}` over the
    /// forward rows (nothing at all for a snapshot built without a `T_N`).
    fn assert_frequent_index_exact(sharded: &ShardedSnapshot) {
        let n = sharded.n();
        let mut brute: Vec<Vec<u32>> = vec![Vec::new(); n];
        for i in 0..n as u32 {
            let (cols, cells) = sharded.row(i);
            let mut raters = Vec::new();
            for (&j, c) in cols.iter().zip(cells) {
                if sharded.frequent_t_n().is_some_and(|t_n| c.total >= t_n) {
                    brute[j as usize].push(i);
                    raters.push(j);
                }
            }
            assert_eq!(sharded.frequent_raters_of(i).collect::<Vec<_>>(), raters, "raters of {i}");
        }
        for j in 0..n as u32 {
            assert_eq!(sharded.frequent_ratees_of(j), &brute[j as usize][..], "ratees of {j}");
        }
    }

    /// Every probe of the snapshot equals the corresponding call on the
    /// history it was built from over the base list `base`, and the frequent
    /// reverse index matches the forward rows.
    fn assert_matches_history(snap: &ShardedSnapshot, h: &InteractionHistory, base: &[NodeId]) {
        let mut interned: Vec<NodeId> = base.to_vec();
        interned.extend(h.iter_pairs().flat_map(|(rater, ratee, _)| [rater, ratee]));
        interned.sort_unstable();
        interned.dedup();
        assert_eq!(snap.nodes(), &interned[..], "interned set");
        assert_eq!(snap.n(), interned.len());
        assert_eq!(snap.nnz(), h.iter_pairs().count(), "nnz");
        for &ratee in snap.nodes() {
            let i = snap.index(ratee).unwrap();
            assert_eq!(snap.node_id(i), ratee);
            assert_eq!(snap.totals_of(i), h.totals(ratee), "totals of {ratee}");
            assert_eq!(snap.signed(i), h.signed_reputation(ratee));
            let (cols, cells) = snap.row(i);
            assert_eq!(cols.len(), h.raters_of(ratee).len(), "row len of {ratee}");
            let mut prev = None;
            for (&c, &cell) in cols.iter().zip(cells) {
                assert!(Some(c) > prev, "row of {ratee} not strictly ascending");
                prev = Some(c);
                let rater = snap.node_id(c);
                assert_eq!(cell, h.pair(rater, ratee), "cell {rater}->{ratee}");
                assert_eq!(snap.pair(c, i), cell, "pair probe {rater}->{ratee}");
            }
            // an absent cell probes as zero counters
            if let Some(j) = (0..snap.n() as u32).find(|j| cols.binary_search(j).is_err()) {
                assert_eq!(snap.pair(j, i), PairCounters::default(), "absent {j}->{i}");
            }
            if let Some(t_n) = snap.frequent_t_n() {
                let frequent =
                    h.raters_of(ratee).iter().map(|&r| h.pair(r, ratee)).filter(|c| c.total >= t_n);
                let agg = frequent.fold((0, 0), |(n, s), c| (n + c.total, s + c.signed()));
                assert_eq!(snap.frequent_agg(t_n, i), Some(agg), "frequent agg of {ratee}");
                assert_eq!(snap.frequent_agg(t_n + 1, i), None, "no aggregate for another T_N");
            }
        }
        assert_frequent_index_exact(snap);
    }

    #[test]
    fn build_matches_history_across_shard_counts() {
        let mut h = InteractionHistory::new();
        record_all(&mut h, &pseudo_ratings(7, 30, 600));
        let nodes: Vec<NodeId> = (0..30).map(NodeId).collect();
        for target in [1, 3, 7, 16, 64] {
            let sharded = ShardedSnapshot::build(&h, &nodes, target);
            assert!(sharded.n_shards() <= target.max(1));
            assert_matches_history(&sharded, &h, &nodes);
            // without a T_N there is no frequent index at all
            assert!((0..30).all(|j| sharded.frequent_ratees_of(j).is_empty()));
            let frequent = ShardedSnapshot::build_with_frequent(&h, &nodes, target, 2);
            assert!((0..30).any(|j| !frequent.frequent_ratees_of(j).is_empty()));
            assert_matches_history(&frequent, &h, &nodes);
        }

        // an unsorted base list with duplicates, partly outside the history
        let base: Vec<NodeId> = [29, 3, 3, 40, 0, 17, 29, 35, 3].map(NodeId).to_vec();
        // a history assembled from slices: ratees split off one history and
        // merged into another, raters and ratees reaching past the base
        let mut assembled = InteractionHistory::new();
        record_all(&mut assembled, &pseudo_ratings(31, 50, 400));
        let mut donor = InteractionHistory::new();
        record_all(&mut donor, &pseudo_ratings(37, 60, 500));
        for ratee in [5, 44, 58] {
            assembled.merge(&donor.split_off_ratee(NodeId(ratee)));
        }
        let _gone = assembled.split_off_ratee(NodeId(12));
        assembled.merge(&donor);
        for (h, base) in [(&h, &base[..]), (&assembled, &nodes[..])] {
            for target in [1, 3, 7, 16, 64] {
                let sharded = ShardedSnapshot::build(h, base, target);
                assert!(sharded.n_shards() <= target.max(1));
                assert_matches_history(&sharded, h, base);
                let frequent = ShardedSnapshot::build_with_frequent(h, base, target, 2);
                assert_matches_history(&frequent, h, base);
            }
        }
    }

    #[test]
    fn interning_covers_raters_outside_the_view() {
        // rater 99 is not in the caller's node list but rates node 1
        let mut h = InteractionHistory::new();
        h.record(Rating::positive(NodeId(99), NodeId(1), SimTime(0)));
        h.record(Rating::negative(NodeId(2), NodeId(1), SimTime(1)));
        let sharded = ShardedSnapshot::build(&h, &[NodeId(1), NodeId(2)], 2);
        assert_eq!(sharded.n(), 3);
        let (i1, i2) = (sharded.index(NodeId(1)).unwrap(), sharded.index(NodeId(2)).unwrap());
        assert_eq!(sharded.row(i1).0.len(), 2);
        let i99 = sharded.index(NodeId(99)).unwrap();
        assert_eq!(sharded.pair(i99, i1).positive, 1);
        // the reverse direction was never rated
        assert_eq!(sharded.pair(i1, i2), PairCounters::default());
        assert_matches_history(&sharded, &h, &[NodeId(1), NodeId(2)]);
    }

    /// Every way an edge enters the frequent reverse index, with
    /// the expected lists spelled out (ids are dense indices here until the
    /// re-interning step) and the brute-force check after each step.
    #[test]
    fn frequent_reverse_index_tracks_every_crossing() {
        const T_N: u64 = 3;
        let nodes: Vec<NodeId> = (0..6).map(NodeId).collect();
        let mut h = InteractionHistory::new();
        let mut sharded = ShardedSnapshot::build_with_frequent(&h, &nodes, 3, T_N);
        let mut buf = EpochBuffer::new();
        let mut t = 0u64;
        let mut close = |sharded: &mut ShardedSnapshot,
                         h: &mut InteractionHistory,
                         edges: &[(u64, u64, u64)]| {
            for &(rater, ratee, times) in edges {
                for _ in 0..times {
                    let r = Rating::positive(NodeId(rater), NodeId(ratee), SimTime(t));
                    t += 1;
                    buf.record(r);
                    h.record(r);
                }
            }
            sharded.apply_epoch(&mut buf, 2);
            assert_frequent_index_exact(sharded);
        };
        // a brand-new cell already at T_N enters; one below it does not
        close(&mut sharded, &mut h, &[(1, 4, 3), (1, 2, 2), (5, 4, 1)]);
        assert_eq!(sharded.frequent_ratees_of(1), &[4]);
        assert!(sharded.frequent_ratees_of(5).is_empty());
        // an existing cell crosses by merge, in a row before the one held
        close(&mut sharded, &mut h, &[(1, 2, 1)]);
        assert_eq!(sharded.frequent_ratees_of(1), &[2, 4]);
        // a cell that only crosses two epochs after it appeared
        close(&mut sharded, &mut h, &[(5, 4, 1)]);
        assert!(sharded.frequent_ratees_of(5).is_empty());
        close(&mut sharded, &mut h, &[(5, 4, 1)]);
        assert_eq!(sharded.frequent_ratees_of(5), &[4]);
        // an already-frequent cell growing is not inserted twice
        close(&mut sharded, &mut h, &[(1, 4, 5), (1, 2, 1)]);
        assert_eq!(sharded.frequent_ratees_of(1), &[2, 4]);
        assert_eq!(sharded.frequent_raters_of(4).collect::<Vec<_>>(), [1, 5]);

        // re-interning: a fresh id 7 lands between the held ids 0..6 and
        // 10..16, so entries of and about the upper block shift by one
        let upper: Vec<NodeId> = (10..16).map(NodeId).collect();
        for _ in 0..T_N {
            h.record(Rating::positive(NodeId(14), NodeId(11), SimTime(t)));
        }
        let mut wide = ShardedSnapshot::build_with_frequent(&h, &upper, 3, T_N);
        let index = |snap: &ShardedSnapshot, id| snap.index(NodeId(id)).expect("id");
        assert_eq!(wide.frequent_ratees_of(index(&wide, 14)), &[index(&wide, 11)]);
        let (i5, i10) = (index(&wide, 5) as usize, index(&wide, 10) as usize);
        for _ in 0..T_N {
            buf.record(Rating::positive(NodeId(12), NodeId(7), SimTime(t)));
            buf.record(Rating::positive(NodeId(7), NodeId(12), SimTime(t)));
        }
        let remap = wide.apply_epoch(&mut buf, 2).expect("fresh id must remap");
        assert_eq!(remap[i5] as usize, i5, "the lower block stays");
        assert_eq!(remap[i10] as usize, i10 + 1, "the upper block shifts by one");
        assert_eq!(wide.frequent_ratees_of(index(&wide, 1)), &[index(&wide, 2), index(&wide, 4)]);
        assert_eq!(wide.frequent_ratees_of(index(&wide, 14)), &[index(&wide, 11)]);
        assert_eq!(wide.frequent_ratees_of(index(&wide, 7)), &[index(&wide, 12)]);
        assert_eq!(wide.frequent_ratees_of(index(&wide, 12)), &[index(&wide, 7)]);
        assert_frequent_index_exact(&wide);
    }

    #[test]
    fn close_keys_round_trip_at_the_boundary_indices() {
        let top = (MAX_NODES - 1) as u32;
        let values = [RatingValue::Negative, RatingValue::Neutral, RatingValue::Positive];
        for (row, col) in [(0, 0), (0, top), (top, 0), (top, top), (1, top - 1)] {
            for value in values {
                assert_eq!(unpack_key(pack_key(row, col, value)), (row, col, value));
            }
        }
        // key order is (row, col) order, a pair's values adjacent
        let pairs = [(0, top), (1, 0), (1, 1), (top, top - 1), (top, top)];
        let keys: Vec<u64> =
            pairs.iter().flat_map(|&(r, c)| values.map(|v| pack_key(r, c, v))).collect();
        assert!(keys.is_sorted_by(|a, b| a < b));
    }

    #[test]
    fn empty_history_and_empty_delta() {
        let h = InteractionHistory::new();
        let nodes: Vec<NodeId> = (0..5).map(NodeId).collect();
        let mut sharded = ShardedSnapshot::build(&h, &nodes, 2);
        assert_eq!(sharded.n(), 5);
        assert_eq!(sharded.nnz(), 0);
        let i1 = sharded.index(NodeId(1)).unwrap();
        assert!(sharded.row(i1).0.is_empty());
        assert_eq!(sharded.signed(i1), 0);
        assert!(sharded.apply_epoch(&mut EpochBuffer::new(), 2).is_none());
        assert_matches_history(&sharded, &h, &nodes);
    }
}

//! What the workloads share: sizes, one rep's result, scratch directories.

use crate::sut::{Res, Trace};
use crate::trace::Tracer;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Metric name → value.
pub type Metrics = BTreeMap<&'static str, f64>;

/// The benchmark's own output directory, relative to the repository root
/// (`run.sh` changes to it): scratch space, trace files, result sets.
/// Ignored by git; nothing is read or written outside it.
pub const OUT_DIR: &str = "benchmark/out";

/// `record` calls (or folds) one span wraps: spans wrap chunks of work,
/// never single ratings.
pub const SPAN_CHUNK: usize = 4096;

/// Nodes of the Basic-vs-pruned oracle check. `BasicDetector::detect` is
/// O(m·n²): 1.6 s here, 263 s at 20 000 — do not raise it.
pub const ORACLE_NODES: u64 = 2_000;

/// Nodes of the small cluster on which a traced in-process workload
/// replays the network layers.
pub const SIDECAR_NODES: u64 = 2_000;

/// Input sizes and repetition floors of a run.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Nodes of the in-process workloads (20 ratings a node).
    pub nodes: u64,
    /// Nodes of `wire-mixed`.
    pub wire_nodes: u64,
    /// Ack-probe frames per `wire-mixed` rep (64 ratings each, window 1).
    pub ack_frames: usize,
    /// Measured reps a run makes at least, whatever `--seconds` says.
    pub min_reps: usize,
    /// One unmeasured rep first, for the in-process workloads.
    pub warm_up: bool,
    /// Times the set-up is repeated; `setup_s` is their median.
    pub setup_samples: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        nodes: 100_000,
        wire_nodes: 20_000,
        ack_frames: 1_000,
        min_reps: 3,
        warm_up: true,
        setup_samples: 9,
    };

    /// `--smoke`: every workload at 2 000 nodes, one rep, same gates.
    pub const SMOKE: Sizes = Sizes {
        nodes: 2_000,
        wire_nodes: 2_000,
        ack_frames: 100,
        min_reps: 1,
        warm_up: false,
        setup_samples: 1,
    };
}

/// What one repetition of a workload measured.
#[derive(Default)]
pub struct Rep {
    /// Ratings made durable inside the timed ingest window.
    pub ratings: u64,
    /// First `record`/`send`/fold to the return of the last close and the
    /// final sync.
    pub ingest_s: f64,
    pub recover_s: Option<f64>,
    /// Operations attempted (ratings offered, frames, closes, RPCs,
    /// queries), those that failed or were refused, and those that
    /// succeeded but missed their latency limit.
    pub attempted: u64,
    pub failed: u64,
    pub late: u64,
    /// Figures this rep measured directly, by metric name.
    pub values: Metrics,
    /// Sample sets this rep collected, by name (`close_ms`, stage times,
    /// ack and query latencies).
    pub samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Rep {
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    pub fn samples_of(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }
}

/// A workload: generated input plus the way one rep drives the system.
pub trait Workload {
    /// One measured repetition on a fresh system. `first` is set on the
    /// first measured rep of a run, where once-a-run work happens.
    fn rep(&mut self, tracer: &mut Tracer, id: u64, first: bool) -> Res<Rep>;

    /// Per-layer metrics of the layers this workload calls itself, from a
    /// traced rep and its spans.
    fn layer_metrics(&self, traced: &Rep, tracer: &Tracer) -> Metrics;

    /// The generated input, for the standalone replays of layers the
    /// workload reaches only indirectly or not at all.
    fn input(&self) -> &Arc<Trace>;

    /// Whether a run starts with an unmeasured rep (in-process workloads:
    /// the first rep grows the heap the later ones reuse).
    fn warms_up(&self) -> bool;
}

/// Scratch space under the benchmark's own `out/`, removed when dropped —
/// on success, on a failed gate, and on a panic that unwinds.
pub struct Scratch {
    root: PathBuf,
    next: Cell<u64>,
}

impl Scratch {
    pub fn new(out: &Path) -> Res<Scratch> {
        let root = out.join(format!("scratch-{}", std::process::id()));
        std::fs::create_dir_all(&root).map_err(|e| format!("create {}: {e}", root.display()))?;
        Ok(Scratch { root, next: Cell::new(0) })
    }

    /// A new empty directory.
    pub fn fresh(&self, tag: &str) -> Res<PathBuf> {
        let n = self.next.replace(self.next.get() + 1);
        let dir = self.root.join(format!("{tag}-{n}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(dir)
    }

    pub fn remove(&self, dir: &Path) {
        std::fs::remove_dir_all(dir).ok();
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.root).ok();
    }
}

/// Bytes of every regular file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Exactly `parts` contiguous, near-equal, non-empty ranges covering
/// `0..len` (fewer when `len < parts`).
pub fn split(len: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let parts = parts.clamp(1, len.max(1));
    (0..parts).map(|i| i * len / parts..(i + 1) * len / parts).filter(|r| !r.is_empty()).collect()
}

/// The gate every workload ends on.
pub fn expect_pairs(what: &str, got: &[(u64, u64)], want: &[(u64, u64)]) -> Res<()> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: {} suspect pairs, expected the {} planted", got.len(), want.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_covers_the_range_without_gaps() {
        assert_eq!(split(10, 3), vec![0..3, 3..6, 6..10]);
        assert_eq!(split(9, 4), vec![0..2, 2..4, 4..6, 6..9]);
        assert_eq!(split(3, 5), vec![0..1, 1..2, 2..3]);
        assert!(split(0, 5).is_empty());
        let parts = split(2_080_123, 200);
        assert_eq!(parts.len(), 200);
        assert_eq!(parts.last().map(|r| r.end), Some(2_080_123));
    }

    #[test]
    fn scratch_directories_are_removed_on_drop() {
        let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test-scratch");
        let kept;
        {
            let scratch = Scratch::new(&out).expect("scratch root");
            let a = scratch.fresh("a").expect("dir");
            let b = scratch.fresh("a").expect("dir");
            assert_ne!(a, b);
            std::fs::write(a.join("f"), [0u8; 10]).expect("write");
            assert_eq!(dir_bytes(&scratch.root), 10);
            scratch.remove(&b);
            assert!(!b.exists());
            kept = a;
        }
        assert!(!kept.exists());
        std::fs::remove_dir_all(&out).ok();
    }
}

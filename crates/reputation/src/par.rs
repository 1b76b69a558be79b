//! Deterministic fork-join helpers for the epoch close's `advance` stage:
//! the per-shard delta merge and the high-flag recompute.
//!
//! Every helper preserves input order in its output: work is split into
//! **contiguous** chunks, each chunk runs on its own scoped thread, and
//! per-chunk results are reassembled in chunk order. There are no
//! unordered reductions anywhere, so for a fixed input the output is
//! byte-identical for every thread count — `threads == 1` runs inline and
//! doubles as the oracle the parallel paths are property-tested against.

/// Resolve a `close_threads` knob: `0` means "auto" — the
/// `RAYON_NUM_THREADS` environment override when set, else the machine's
/// available parallelism. Any positive value is used as-is.
#[must_use]
pub fn resolve_threads(knob: usize) -> usize {
    if knob == 0 {
        rayon::current_num_threads()
    } else {
        knob
    }
}

/// Apply `f` to every item, splitting the slice into at most `threads`
/// contiguous chunks that run concurrently. Items are mutated disjointly,
/// so the outcome is independent of the split.
pub fn for_each_mut<T, F>(threads: usize, items: &mut [T], f: F)
where
    T: Send,
    F: Fn(&mut T) + Sync,
{
    let len = items.len();
    if threads <= 1 || len <= 1 {
        for item in items {
            f(item);
        }
        return;
    }
    let chunk = len.div_ceil(threads.min(len));
    rayon::scope(|s| {
        for part in items.chunks_mut(chunk) {
            let f = &f;
            s.spawn(move || part.iter_mut().for_each(f));
        }
    });
}

/// Map every item through `f`, returning results in input order. Chunks
/// are contiguous and results are concatenated in chunk order, so the
/// output vector is identical to the sequential map for any `threads`.
pub fn map_mut<T, R, F>(threads: usize, items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(&mut T) -> R + Sync,
{
    let len = items.len();
    if threads <= 1 || len <= 1 {
        return items.iter_mut().map(f).collect();
    }
    let chunk = len.div_ceil(threads.min(len));
    let per_chunk: Vec<Vec<R>> = rayon::scope(|s| {
        let handles: Vec<_> = items
            .chunks_mut(chunk)
            .map(|part| {
                let f = &f;
                s.spawn(move || part.iter_mut().map(f).collect::<Vec<R>>())
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("parallel close worker panicked")).collect()
    });
    per_chunk.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_positive_passthrough() {
        assert_eq!(resolve_threads(3), 3);
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn for_each_mut_matches_serial_any_threads() {
        for threads in [1, 2, 3, 8, 100] {
            let mut v: Vec<u64> = (0..37).collect();
            for_each_mut(threads, &mut v, |x| *x = *x * 3 + 1);
            let want: Vec<u64> = (0..37).map(|x| x * 3 + 1).collect();
            assert_eq!(v, want, "threads={threads}");
        }
    }

    #[test]
    fn map_mut_preserves_order_any_threads() {
        for threads in [1, 2, 4, 7, 64] {
            let mut v: Vec<usize> = (0..53).collect();
            let got = map_mut(threads, &mut v, |x| *x * 2);
            let want: Vec<usize> = (0..53).map(|x| x * 2).collect();
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn map_mut_empty_and_single() {
        let mut empty: Vec<u32> = Vec::new();
        assert!(map_mut(4, &mut empty, |x| *x).is_empty());
        let mut one = vec![9u32];
        assert_eq!(map_mut(4, &mut one, |x| *x + 1), vec![10]);
    }
}

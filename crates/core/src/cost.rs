//! Operation-cost accounting (Figure 13).
//!
//! The paper defines operation cost as "the number of computer cycles for
//! thwarting collusion". Hardware cycle counts are not portable, so — per the
//! substitution note in `DESIGN.md` — we count abstract operations instead:
//! matrix-element inspections, full row scans, band evaluations, comparisons
//! and inter-manager messages. The *shape* of Figure 13 (Unoptimized ≫
//! EigenTrust > Optimized; EigenTrust flat in the number of colluders)
//! depends only on these counts.
//!
//! [`CostMeter`] uses relaxed atomics so a shared `&CostMeter` meters
//! without `&mut` and stays `Sync`; `Relaxed` suffices because the
//! counters are statistics, not synchronization. Only the sums matter, so a
//! row walk adds its row's element inspections once per row
//! ([`CostMeter::element_checks`]) rather than once per cell.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Thread-safe operation counters.
#[derive(Debug, Default)]
pub struct CostMeter {
    element_checks: AtomicU64,
    row_scans: AtomicU64,
    scanned_elements: AtomicU64,
    band_checks: AtomicU64,
    messages: AtomicU64,
    reputation_ops: AtomicU64,
}

impl CostMeter {
    /// Fresh meter with all counters at zero.
    pub fn new() -> Self {
        CostMeter::default()
    }

    /// One matrix-element inspection (reading `N(j,i)` / `R_j` for a pair).
    #[inline]
    pub fn element_check(&self) {
        self.element_checks.fetch_add(1, Relaxed);
    }

    /// `n` matrix-element inspections at once — a row walk meters its whole
    /// row with one add instead of one per cell.
    #[inline]
    pub fn element_checks(&self, n: u64) {
        self.element_checks.fetch_add(n, Relaxed);
    }

    /// One full row scan of `elements` entries (the basic detector computing
    /// `N⁺(−j,i)` and `N(−j,i)`).
    #[inline]
    pub fn row_scan(&self, elements: u64) {
        self.row_scans.fetch_add(1, Relaxed);
        self.scanned_elements.fetch_add(elements, Relaxed);
    }

    /// One Formula (2) band evaluation (the optimized detector).
    #[inline]
    pub fn band_check(&self) {
        self.band_checks.fetch_add(1, Relaxed);
    }

    /// One inter-manager message (decentralized detection).
    #[inline]
    pub fn message(&self) {
        self.messages.fetch_add(1, Relaxed);
    }

    /// `n` reputation-calculation operations (EigenTrust multiply-adds).
    #[inline]
    pub fn reputation_ops(&self, n: u64) {
        self.reputation_ops.fetch_add(n, Relaxed);
    }

    /// Snapshot the counters.
    pub fn snapshot(&self) -> CostSnapshot {
        CostSnapshot {
            element_checks: self.element_checks.load(Relaxed),
            row_scans: self.row_scans.load(Relaxed),
            scanned_elements: self.scanned_elements.load(Relaxed),
            band_checks: self.band_checks.load(Relaxed),
            messages: self.messages.load(Relaxed),
            reputation_ops: self.reputation_ops.load(Relaxed),
        }
    }
}

/// An immutable view of a [`CostMeter`] at one point in time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CostSnapshot {
    /// Matrix-element inspections.
    pub element_checks: u64,
    /// Full row scans performed.
    pub row_scans: u64,
    /// Total elements touched by row scans.
    pub scanned_elements: u64,
    /// Formula (2) band evaluations.
    pub band_checks: u64,
    /// Inter-manager messages.
    pub messages: u64,
    /// Reputation-calculation operations.
    pub reputation_ops: u64,
}

impl CostSnapshot {
    /// The single scalar plotted in Figure 13: every counted operation,
    /// summed. Messages are weighted by `message_weight` since a network
    /// round-trip costs far more than an in-memory comparison (default used
    /// by the benches is 1 so shapes stay comparable to the paper's
    /// cycle counts).
    pub fn total(&self, message_weight: u64) -> u64 {
        self.element_checks
            + self.scanned_elements
            + self.band_checks
            + self.messages * message_weight
            + self.reputation_ops
    }

    /// Difference `self − earlier`, for per-phase accounting.
    pub fn since(&self, earlier: &CostSnapshot) -> CostSnapshot {
        CostSnapshot {
            element_checks: self.element_checks - earlier.element_checks,
            row_scans: self.row_scans - earlier.row_scans,
            scanned_elements: self.scanned_elements - earlier.scanned_elements,
            band_checks: self.band_checks - earlier.band_checks,
            messages: self.messages - earlier.messages,
            reputation_ops: self.reputation_ops - earlier.reputation_ops,
        }
    }

    /// Element-wise sum, for aggregating runs.
    pub fn plus(&self, other: &CostSnapshot) -> CostSnapshot {
        CostSnapshot {
            element_checks: self.element_checks + other.element_checks,
            row_scans: self.row_scans + other.row_scans,
            scanned_elements: self.scanned_elements + other.scanned_elements,
            band_checks: self.band_checks + other.band_checks,
            messages: self.messages + other.messages,
            reputation_ops: self.reputation_ops + other.reputation_ops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = CostMeter::new();
        m.element_check();
        m.element_checks(2);
        m.row_scan(10);
        m.band_check();
        m.message();
        m.reputation_ops(5);
        let s = m.snapshot();
        assert_eq!(s.element_checks, 3);
        assert_eq!(s.row_scans, 1);
        assert_eq!(s.scanned_elements, 10);
        assert_eq!(s.band_checks, 1);
        assert_eq!(s.messages, 1);
        assert_eq!(s.reputation_ops, 5);
    }

    #[test]
    fn total_weights_messages() {
        let s = CostSnapshot {
            element_checks: 1,
            row_scans: 0,
            scanned_elements: 2,
            band_checks: 3,
            messages: 4,
            reputation_ops: 5,
        };
        assert_eq!(s.total(1), 1 + 2 + 3 + 4 + 5);
        assert_eq!(s.total(10), 1 + 2 + 3 + 40 + 5);
    }

    #[test]
    fn since_subtracts_elementwise() {
        let m = CostMeter::new();
        m.element_check();
        let first = m.snapshot();
        m.element_check();
        m.row_scan(7);
        let second = m.snapshot();
        let delta = second.since(&first);
        assert_eq!(delta.element_checks, 1);
        assert_eq!(delta.scanned_elements, 7);
    }

    #[test]
    fn plus_adds_elementwise() {
        let a = CostSnapshot { element_checks: 1, messages: 2, ..Default::default() };
        let b = CostSnapshot { element_checks: 3, band_checks: 4, ..Default::default() };
        let c = a.plus(&b);
        assert_eq!(c.element_checks, 4);
        assert_eq!(c.messages, 2);
        assert_eq!(c.band_checks, 4);
    }

    #[test]
    fn meter_is_sharable_across_threads() {
        let m = CostMeter::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        m.element_check();
                    }
                });
            }
        });
        assert_eq!(m.snapshot().element_checks, 4000);
    }
}

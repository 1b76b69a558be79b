//! Node identifiers and simulation time.
//!
//! Every participant in a reputation system — buyer, seller, peer, reputation
//! manager — is addressed by a [`NodeId`]. Time is abstract ([`SimTime`]):
//! the trace analysis interprets one tick as a day, the P2P simulator as a
//! query cycle. The paper's period `T` ("the time period for updating global
//! reputations", Table I) is a half-open interval of ticks.

use std::fmt;

/// Identifier of a node (peer, buyer, seller or manager).
///
/// The paper indexes nodes `n_1 … n_n`; we keep the same convention and use
/// small consecutive integers in simulations so that figures such as
/// "pretrusted node IDs 1–3, colluder IDs 4–11" read identically.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u64);

impl NodeId {
    /// The raw integer id.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u64> for NodeId {
    fn from(v: u64) -> Self {
        NodeId(v)
    }
}

/// Abstract simulation timestamp (monotonically non-decreasing tick).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// The raw tick value.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// The tick `delta` ticks later.
    #[inline]
    pub fn plus(self, delta: u64) -> SimTime {
        SimTime(self.0 + delta)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Half-open time window `[start, end)` used to select the ratings of one
/// reputation-update period `T`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimeWindow {
    /// First tick included.
    pub start: SimTime,
    /// First tick excluded.
    pub end: SimTime,
}

impl TimeWindow {
    /// Construct a window; `start` must not exceed `end`.
    pub fn new(start: SimTime, end: SimTime) -> Self {
        assert!(start <= end, "window start {start} after end {end}");
        TimeWindow { start, end }
    }

    /// The window `[0, end)`.
    pub fn until(end: SimTime) -> Self {
        TimeWindow::new(SimTime::ZERO, end)
    }

    /// Whether `t` falls inside the window.
    #[inline]
    pub fn contains(&self, t: SimTime) -> bool {
        self.start <= t && t < self.end
    }

    /// Number of ticks covered.
    #[inline]
    pub fn len(&self) -> u64 {
        self.end.0 - self.start.0
    }

    /// Whether the window covers no ticks.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_display_matches_paper_convention() {
        assert_eq!(NodeId(7).to_string(), "n7");
        assert_eq!(format!("{:?}", NodeId(7)), "n7");
    }

    #[test]
    fn node_id_ordering_is_numeric() {
        assert!(NodeId(2) < NodeId(10));
        assert_eq!(NodeId::from(3u64), NodeId(3));
        assert_eq!(NodeId(3).raw(), 3);
    }

    #[test]
    fn sim_time_plus_advances() {
        assert_eq!(SimTime(5).plus(3), SimTime(8));
        assert_eq!(SimTime::ZERO.plus(0), SimTime(0));
    }

    #[test]
    fn window_contains_is_half_open() {
        let w = TimeWindow::new(SimTime(2), SimTime(5));
        assert!(!w.contains(SimTime(1)));
        assert!(w.contains(SimTime(2)));
        assert!(w.contains(SimTime(4)));
        assert!(!w.contains(SimTime(5)));
        assert_eq!(w.len(), 3);
        assert!(!w.is_empty());
    }

    #[test]
    fn window_until_starts_at_zero() {
        let w = TimeWindow::until(SimTime(4));
        assert!(w.contains(SimTime(0)));
        assert!(!w.contains(SimTime(4)));
    }

    #[test]
    fn empty_window_contains_nothing() {
        let w = TimeWindow::new(SimTime(3), SimTime(3));
        assert!(w.is_empty());
        assert!(!w.contains(SimTime(3)));
    }

    #[test]
    #[should_panic(expected = "window start")]
    fn inverted_window_panics() {
        let _ = TimeWindow::new(SimTime(5), SimTime(2));
    }
}

//! The circular Chord identifier space.
//!
//! Identifiers live in `Z_{2^m}` for a configurable bit width `m ∈ [1, 64]`.
//! All interval tests are clockwise: `in_interval_oo(a, b)` is the open arc
//! `(a, b)` walking clockwise from `a`, wrapping past zero when `b ≤ a`.

use std::fmt;

/// A point in the `2^m`-sized circular identifier space.
///
/// The bit width is carried alongside the value so mixed-width arithmetic is
/// caught at runtime instead of silently wrapping incorrectly.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Key {
    value: u64,
    bits: u8,
}

impl Key {
    /// Construct a key, reducing `value` modulo `2^bits`. `bits` must be in
    /// `1..=64`.
    pub fn new(value: u64, bits: u8) -> Self {
        assert!((1..=64).contains(&bits), "bit width must be 1..=64, got {bits}");
        Key { value: value & Self::mask(bits), bits }
    }

    #[inline]
    fn mask(bits: u8) -> u64 {
        if bits == 64 {
            u64::MAX
        } else {
            (1u64 << bits) - 1
        }
    }

    /// The raw value.
    #[inline]
    pub fn raw(self) -> u64 {
        self.value
    }

    /// The bit width of the space this key lives in.
    #[inline]
    pub fn bits(self) -> u8 {
        self.bits
    }

    /// `self + 2^i (mod 2^m)` — the start of the `i`-th finger interval.
    pub fn finger_start(self, i: u8) -> Key {
        assert!(i < self.bits, "finger index {i} out of range for {}-bit space", self.bits);
        Key::new(self.value.wrapping_add(1u64 << i), self.bits)
    }

    /// Clockwise distance from `self` to `other`.
    pub fn distance_to(self, other: Key) -> u64 {
        self.assert_same_space(other);
        other.value.wrapping_sub(self.value) & Self::mask(self.bits)
    }

    /// Whether `self` lies in the *open* clockwise arc `(a, b)`.
    pub fn in_interval_oo(self, a: Key, b: Key) -> bool {
        self.assert_same_space(a);
        self.assert_same_space(b);
        if a == b {
            // full circle minus the single point a
            return self != a;
        }
        a.distance_to(self) > 0 && a.distance_to(self) < a.distance_to(b)
    }

    /// Whether `self` lies in the half-open clockwise arc `(a, b]`.
    pub fn in_interval_oc(self, a: Key, b: Key) -> bool {
        self.assert_same_space(a);
        self.assert_same_space(b);
        if a == b {
            // (a, a] wraps the whole circle, every key qualifies
            return true;
        }
        let d = a.distance_to(self);
        d > 0 && d <= a.distance_to(b)
    }

    #[inline]
    fn assert_same_space(self, other: Key) {
        assert_eq!(
            self.bits, other.bits,
            "keys from different spaces: {} vs {} bits",
            self.bits, other.bits
        );
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k{}/{}", self.value, self.bits)
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(v: u64) -> Key {
        Key::new(v, 4)
    }

    #[test]
    fn new_reduces_modulo_space() {
        assert_eq!(k(16).raw(), 0);
        assert_eq!(k(21).raw(), 5);
        assert_eq!(Key::new(u64::MAX, 64).raw(), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "bit width")]
    fn zero_bits_rejected() {
        let _ = Key::new(0, 0);
    }

    #[test]
    fn distance_wraps_clockwise() {
        assert_eq!(k(14).distance_to(k(2)), 4);
        assert_eq!(k(2).distance_to(k(14)), 12);
        assert_eq!(k(5).distance_to(k(5)), 0);
    }

    #[test]
    fn open_interval_excludes_endpoints() {
        assert!(k(5).in_interval_oo(k(3), k(7)));
        assert!(!k(3).in_interval_oo(k(3), k(7)));
        assert!(!k(7).in_interval_oo(k(3), k(7)));
    }

    #[test]
    fn open_interval_wraps_past_zero() {
        assert!(k(1).in_interval_oo(k(14), k(3)));
        assert!(k(15).in_interval_oo(k(14), k(3)));
        assert!(!k(14).in_interval_oo(k(14), k(3)));
        assert!(!k(3).in_interval_oo(k(14), k(3)));
        assert!(!k(8).in_interval_oo(k(14), k(3)));
    }

    #[test]
    fn degenerate_open_interval_is_circle_minus_point() {
        assert!(k(1).in_interval_oo(k(5), k(5)));
        assert!(!k(5).in_interval_oo(k(5), k(5)));
    }

    #[test]
    fn half_open_interval_includes_right_endpoint() {
        assert!(k(7).in_interval_oc(k(3), k(7)));
        assert!(!k(3).in_interval_oc(k(3), k(7)));
        assert!(k(0).in_interval_oc(k(14), k(0)));
    }

    #[test]
    fn degenerate_half_open_interval_is_full_circle() {
        assert!(k(9).in_interval_oc(k(5), k(5)));
        assert!(k(5).in_interval_oc(k(5), k(5)));
    }

    #[test]
    fn finger_start_powers_of_two() {
        assert_eq!(k(10).finger_start(0).raw(), 11);
        assert_eq!(k(10).finger_start(1).raw(), 12);
        assert_eq!(k(10).finger_start(2).raw(), 14);
        assert_eq!(k(10).finger_start(3).raw(), 2); // wraps
    }

    #[test]
    #[should_panic(expected = "finger index")]
    fn finger_start_out_of_range_panics() {
        let _ = k(0).finger_start(4);
    }

    #[test]
    #[should_panic(expected = "different spaces")]
    fn mixed_space_arithmetic_panics() {
        let _ = Key::new(0, 4).distance_to(Key::new(0, 8));
    }

    #[test]
    fn full_width_space_wraps_correctly() {
        let a = Key::new(u64::MAX, 64);
        let b = Key::new(5, 64);
        assert_eq!(a.distance_to(b), 6);
        assert!(Key::new(2, 64).in_interval_oo(a, b));
    }
}

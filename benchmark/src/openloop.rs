//! Open-loop request schedule: request `k` is due at `start + k · period`
//! whatever happened to the requests before it. Latency is timed from the
//! due time, so a stall is charged to every request it delayed, and the
//! generator's own lateness is reported beside it.

use std::time::{Duration, Instant};

/// How close to the due time the generator stops sleeping and spins.
/// `thread::sleep` overshoots by tens of microseconds; spinning the last
/// stretch keeps the send time within a few microseconds of due.
const SPIN: Duration = Duration::from_micros(150);

/// Fixed-rate schedule.
pub struct Schedule {
    start: Instant,
    period: Duration,
    issued: u64,
}

impl Schedule {
    pub fn new(start: Instant, per_second: u32) -> Self {
        Schedule { start, period: Duration::from_secs(1) / per_second.max(1), issued: 0 }
    }

    /// Due time of the next request; advances the schedule by one slot and
    /// never skips one, however late the caller is.
    pub fn next_due(&mut self) -> Instant {
        let due = self.start + self.period * self.issued as u32;
        self.issued += 1;
        due
    }
}

/// Block until `due` (sleep, then spin). Returns at once if it has passed.
pub fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// How long after `due` the request was actually sent (zero if on time).
pub fn lateness(due: Instant, sent: Instant) -> Duration {
    sent.saturating_duration_since(due)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_are_fixed_by_the_rate_not_by_the_caller() {
        let start = Instant::now();
        let mut s = Schedule::new(start, 1_000);
        assert_eq!(s.next_due(), start);
        assert_eq!(s.next_due(), start + Duration::from_millis(1));
        // a caller that stalls does not push later slots back
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(s.next_due(), start + Duration::from_millis(2));
        assert_eq!(s.next_due(), start + Duration::from_millis(3));
    }

    #[test]
    fn lateness_is_send_minus_due_floored_at_zero() {
        let due = Instant::now();
        assert_eq!(lateness(due, due + Duration::from_micros(40)), Duration::from_micros(40));
        assert_eq!(lateness(due + Duration::from_millis(1), due), Duration::ZERO);
    }

    #[test]
    fn wait_until_returns_at_or_after_due_and_at_once_when_late() {
        let due = Instant::now() + Duration::from_millis(2);
        wait_until(due);
        assert!(Instant::now() >= due);
        let past = Instant::now() - Duration::from_millis(1);
        let before = Instant::now();
        wait_until(past);
        assert!(before.elapsed() < Duration::from_millis(1));
    }
}

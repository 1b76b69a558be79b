//! Fault plans and retry/backoff machinery for decentralized detection.
//!
//! A [`FaultPlan`] bundles everything the robustness experiments inject into
//! a detection run: the message-level faults (drop probability, delay
//! distribution — see [`collusion_dht::fault::MessageFaults`]), the
//! tolerance parameters (bounded retries with exponential backoff on
//! cross-manager confirmations), and a per-period manager churn schedule.
//!
//! Determinism contract: all fault decisions come from a private SplitMix64
//! stream keyed by the plan seed, so the same plan always yields the same
//! confirmed/unconfirmed partition and the same message counts. The
//! [`FaultPlan::none`] plan draws **zero** random values and delivers every
//! exchange on its first attempt (two messages), so a fault-free run's
//! pairs, meter, messages and hops are those of a reliable network —
//! pinned by `system.rs`'s `detect_robust_none_plan_matches_detect_exactly`.

// One seeded implementation for the whole workspace: the DHT crate owns the
// SplitMix64 stream, the message-fault spec, and the injector; this module
// re-exports them so core-level code (and the TCP layer's proxies and retry
// jitter) name them through one path instead of growing a parallel copy.
pub use collusion_dht::fault::{FaultRng, FaultyNet, MessageFaults, NetStats};

/// Domain salt of the churn victim-selection stream (see
/// [`ChurnSchedule::victim_rng`]).
const CHURN_SALT: u64 = 0x6368_7572_6e21_7631;

/// Per-detection-period manager churn: how many managers crash abruptly and
/// how many fresh ones join between consecutive detection rounds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChurnSchedule {
    /// Managers crashed (abruptly, data lost unless replicated) per period.
    pub crashes_per_period: usize,
    /// Fresh managers joined per period.
    pub joins_per_period: usize,
    /// Seed for victim selection (mixed with the period number).
    pub seed: u64,
}

impl ChurnSchedule {
    /// No churn at all.
    pub fn none() -> Self {
        ChurnSchedule { crashes_per_period: 0, joins_per_period: 0, seed: 0 }
    }

    /// Whether this schedule changes nothing.
    pub fn is_none(&self) -> bool {
        self.crashes_per_period == 0 && self.joins_per_period == 0
    }

    /// The victim-selection stream for one churn period. Both the
    /// in-process [`crate::system::DecentralizedSystem::apply_churn`] and
    /// the TCP cluster's kill/rejoin schedule draw victims from this exact
    /// stream, so a given `(seed, period)` crashes the same managers in
    /// both worlds.
    pub fn victim_rng(&self, period: u64) -> FaultRng {
        FaultRng::for_stream(self.seed, period, CHURN_SALT)
    }
}

/// The full fault-injection and tolerance configuration of a run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// Message-level faults applied to cross-manager confirmations.
    pub message: MessageFaults,
    /// Retransmissions allowed after the first attempt of an exchange.
    pub max_retries: u32,
    /// Backoff before the first retry, in abstract ticks; doubles per retry.
    pub backoff_base: u64,
    /// Manager churn applied between detection periods.
    pub churn: ChurnSchedule,
}

impl FaultPlan {
    /// The fault-free plan: no drops, no delays, no churn, and — by
    /// contract — zero random draws while active.
    pub fn none() -> Self {
        FaultPlan {
            message: MessageFaults::none(),
            max_retries: 0,
            backoff_base: 0,
            churn: ChurnSchedule::none(),
        }
    }

    /// Message-drop plan at probability `p` with the default tolerance
    /// settings (3 retries, backoff base 4 ticks).
    pub fn with_drop(p: f64, seed: u64) -> Self {
        FaultPlan {
            message: MessageFaults::with_drop(p, seed),
            max_retries: 3,
            backoff_base: 4,
            churn: ChurnSchedule::none(),
        }
    }

    /// Override the retry budget.
    pub fn retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Add a uniform per-message delay distribution (inclusive tick bounds).
    pub fn with_delay(mut self, min: u64, max: u64) -> Self {
        self.message = self.message.with_delay(min, max);
        self
    }

    /// Add a churn schedule.
    pub fn with_churn(mut self, crashes: usize, joins: usize, seed: u64) -> Self {
        self.churn = ChurnSchedule { crashes_per_period: crashes, joins_per_period: joins, seed };
        self
    }

    /// Whether the plan injects no faults (churn included).
    pub fn is_none(&self) -> bool {
        self.message.is_none() && self.churn.is_none()
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// Accounting for one faulty detection run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Cross-manager exchanges attempted (one per suspect pair that needed
    /// a remote confirmation).
    pub exchanges: u64,
    /// Exchanges that exhausted the retry budget without an answer.
    pub failed_exchanges: u64,
    /// Retransmissions performed across all exchanges.
    pub retries: u64,
    /// Messages actually offered to the network (including dropped ones).
    pub messages_sent: u64,
    /// Messages the network dropped.
    pub messages_dropped: u64,
    /// Total exponential-backoff wait, in abstract ticks.
    pub backoff_ticks: u64,
    /// Total in-flight delay experienced by delivered messages, in ticks.
    pub delay_ticks: u64,
    /// Exchanges abandoned because their total deadline ran out (counted
    /// inside `failed_exchanges` too). Only the TCP layer's
    /// [`crate::net::client::RpcClient`] has a deadline, so an in-process
    /// [`FaultSession`] always leaves this 0.
    pub deadline_exceeded: u64,
}

impl FaultStats {
    /// Fraction of exchanges that completed (1.0 when none were needed).
    pub fn completeness(&self) -> f64 {
        if self.exchanges == 0 {
            1.0
        } else {
            (self.exchanges - self.failed_exchanges) as f64 / self.exchanges as f64
        }
    }
}

/// Outcome of one request/response exchange under faults.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExchangeOutcome {
    /// Whether the confirmation round-trip completed within the budget.
    pub delivered: bool,
    /// Attempts made (1 = no retry needed).
    pub attempts: u32,
    /// Messages offered to the network across all attempts.
    pub messages: u64,
}

/// Stateful executor of a plan's message faults and retry policy for one
/// detection run.
#[derive(Clone, Debug)]
pub struct FaultSession {
    net: FaultyNet,
    max_retries: u32,
    backoff_base: u64,
    stats: FaultStats,
}

impl FaultSession {
    /// Session executing `plan`.
    pub fn new(plan: &FaultPlan) -> Self {
        FaultSession {
            net: FaultyNet::new(plan.message),
            max_retries: plan.max_retries,
            backoff_base: plan.backoff_base,
            stats: FaultStats::default(),
        }
    }

    /// One cross-manager confirmation: a request and a response, each of
    /// which may be dropped; on loss the whole round-trip is retried (with
    /// exponential backoff) up to the retry budget.
    ///
    /// With a fault-free plan this is exactly one attempt, two messages,
    /// and zero random draws.
    pub fn exchange(&mut self) -> ExchangeOutcome {
        self.stats.exchanges += 1;
        let mut attempts = 0u32;
        let mut messages = 0u64;
        let delivered = loop {
            attempts += 1;
            messages += 1; // request
            let request_ok = self.net.send();
            let response_ok = if request_ok {
                self.stats.delay_ticks += self.net.sample_delay();
                messages += 1; // response
                let ok = self.net.send();
                if ok {
                    self.stats.delay_ticks += self.net.sample_delay();
                }
                ok
            } else {
                false
            };
            if request_ok && response_ok {
                break true;
            }
            if attempts > self.max_retries {
                break false;
            }
            self.stats.retries += 1;
            // exponential backoff, capped to keep the shift in range
            let wait = self.backoff_base << (attempts - 1).min(32);
            self.stats.backoff_ticks += wait;
        };
        if !delivered {
            self.stats.failed_exchanges += 1;
        }
        self.stats.messages_sent += messages;
        ExchangeOutcome { delivered, attempts, messages }
    }

    /// Accounting so far (network drop counters folded in).
    pub fn stats(&self) -> FaultStats {
        let mut s = self.stats;
        s.messages_dropped = self.net.stats().dropped;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_exchange_is_one_attempt_two_messages() {
        let mut session = FaultSession::new(&FaultPlan::none());
        for _ in 0..100 {
            let out = session.exchange();
            assert!(out.delivered);
            assert_eq!(out.attempts, 1);
            assert_eq!(out.messages, 2);
        }
        let stats = session.stats();
        assert_eq!(stats.exchanges, 100);
        assert_eq!(stats.failed_exchanges, 0);
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.messages_sent, 200);
        assert_eq!(stats.messages_dropped, 0);
        assert_eq!(stats.completeness(), 1.0);
    }

    #[test]
    fn same_seed_same_exchange_outcomes() {
        let plan = FaultPlan::with_drop(0.3, 42);
        let mut a = FaultSession::new(&plan);
        let mut b = FaultSession::new(&plan);
        for _ in 0..200 {
            assert_eq!(a.exchange(), b.exchange());
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn retries_rescue_most_exchanges_at_ten_percent_drop() {
        // per attempt P(fail) = 1 - 0.9² = 0.19; after 4 attempts ≈ 0.13%
        let mut session = FaultSession::new(&FaultPlan::with_drop(0.1, 7));
        for _ in 0..1000 {
            session.exchange();
        }
        let stats = session.stats();
        assert!(stats.retries > 0, "10% drop must trigger retries");
        assert!(
            stats.completeness() > 0.99,
            "completeness {} too low for 10% drop with 3 retries",
            stats.completeness()
        );
    }

    #[test]
    fn heavy_drop_fails_some_exchanges_but_reports_them() {
        let mut session = FaultSession::new(&FaultPlan::with_drop(0.5, 3).retries(1));
        for _ in 0..500 {
            session.exchange();
        }
        let stats = session.stats();
        assert!(stats.failed_exchanges > 0);
        assert_eq!(stats.exchanges, 500, "every exchange must be accounted, failed or not");
        assert!(stats.completeness() < 1.0);
        assert!(stats.backoff_ticks > 0);
    }

    #[test]
    fn zero_retries_means_single_attempt() {
        let mut session = FaultSession::new(&FaultPlan::with_drop(0.4, 9).retries(0));
        for _ in 0..100 {
            let out = session.exchange();
            assert_eq!(out.attempts, 1);
        }
    }

    #[test]
    fn none_plans_draw_zero_rng_values() {
        // Bit-identity across seeds: if a none() plan made even one draw,
        // sessions seeded differently would eventually diverge. 10k
        // exchanges across wildly different seeds must stay identical —
        // and identical to the canonical dht-layer injector, since the
        // re-exported types ARE the dht types (one implementation).
        let reference = {
            let mut s = FaultSession::new(&FaultPlan::none());
            (0..10_000).map(|_| s.exchange()).collect::<Vec<_>>()
        };
        for seed in [1u64, 0xDEAD_BEEF, u64::MAX] {
            let mut plan = FaultPlan::none();
            plan.message.seed = seed;
            let mut s = FaultSession::new(&plan);
            for (i, &want) in reference.iter().enumerate() {
                assert_eq!(s.exchange(), want, "seed {seed} diverged at exchange {i}");
            }
            assert_eq!(s.stats().messages_dropped, 0);
        }
        // the canonical injector agrees that no draw happens: a function
        // over the dht type accepts the core re-export (same type)
        fn probe(net: &mut collusion_dht::fault::FaultyNet) -> bool {
            net.send()
        }
        let mut net: FaultyNet = FaultyNet::new(MessageFaults::none());
        assert!(probe(&mut net));
    }

    #[test]
    fn victim_rng_matches_the_consolidated_stream() {
        let schedule = ChurnSchedule { crashes_per_period: 1, joins_per_period: 0, seed: 99 };
        let mut a = schedule.victim_rng(3);
        let mut b = FaultRng::for_stream(99, 3, 0x6368_7572_6e21_7631);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn plan_builders_compose() {
        let plan = FaultPlan::with_drop(0.2, 5).retries(7).with_churn(1, 2, 99);
        assert_eq!(plan.max_retries, 7);
        assert_eq!(plan.churn.crashes_per_period, 1);
        assert_eq!(plan.churn.joins_per_period, 2);
        assert!(!plan.is_none());
        assert!(FaultPlan::none().is_none());
        assert!(FaultPlan::default().is_none());
    }
}

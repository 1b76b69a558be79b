//! One manager driven through random interleavings of every way a rating
//! or a control request reaches it, against an oracle that keeps what the
//! manager used to keep: an [`InteractionHistory`] mirror of the primary
//! slice, a one-shard [`ShardedSnapshot`] built from it for every publication and
//! every `Freeze`, and the publication schedule (`PUBLISH_EVERY` ratings
//! waiting in the intake, every `CloseEpoch`, every rejoin).
//! After every step the manager's published view, its `Query` answers, its
//! `Status` counters and — after a `Freeze` — every row of its frozen
//! snapshot must equal the oracle's.

use super::*;
use crate::durability::scratch_dir;
use collusion_reputation::id::SimTime;
use collusion_reputation::rating::RatingValue;
use proptest::prelude::*;

const MANAGER: NodeId = NodeId(1000);

/// Registered (responsible) nodes. Ratees range over `1..=RATED_IDS`: the
/// ids past `REGISTERED_IDS` are owned through the ring without being
/// registered. Raters range over `1..=RATER_IDS`: the ids past `RATED_IDS`
/// only ever rate. `Query` is asked about `1..=QUERIED_IDS`, so about rated,
/// rater-only, responsible-but-unrated and unknown ids.
const REGISTERED_IDS: u64 = 12;
const RATED_IDS: u64 = 16;
const RATER_IDS: u64 = 18;
const QUERIED_IDS: u64 = 20;

#[derive(Clone, Debug)]
enum Op {
    /// Frames of one anonymous `InsertStream` on the pooled connection.
    Stream(Vec<Vec<Rating>>),
    CloseEpoch,
    Freeze,
    KillRejoin,
}

/// Ratings over a small id space so pairs repeat: nodes 1 and 2 boost each
/// other while the community rates them down (so the manager's closes flag
/// a pair), background of every sign, and the occasional self-rating.
fn rating() -> impl Strategy<Value = Rating> {
    (0u32..100, 1..=RATER_IDS, 1..=RATED_IDS, 0u32..10).prop_map(|(plant, a, b, sign)| {
        let (rater, ratee, value) = match (plant, sign) {
            (0..=14, _) => (1, 2, RatingValue::Positive),
            (15..=29, _) => (2, 1, RatingValue::Positive),
            (_, 0) => (a, b, RatingValue::Positive),
            _ if b <= 2 && a > 2 => (a, b, RatingValue::Negative),
            (_, 1..=5) => (a, b, RatingValue::Positive),
            (_, 6..=7) => (a, b, RatingValue::Neutral),
            _ => (a, b, RatingValue::Negative),
        };
        Rating::new(NodeId(rater), NodeId(ratee), value, SimTime(0))
    })
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => prop::collection::vec(prop::collection::vec(rating(), 0..500), 1..4)
            .prop_map(Op::Stream),
        2 => Just(Op::CloseEpoch),
        2 => Just(Op::Freeze),
        1 => Just(Op::KillRejoin),
    ]
}

/// The implementation the manager replaced.
struct Oracle {
    responsible: Vec<NodeId>,
    /// Every rating the manager accepted.
    history: InteractionHistory,
    /// `State::history` as it was: `history` without the stream ratings
    /// still waiting in the intake.
    absorbed: InteractionHistory,
    /// Stream ratings folded into the intake, not absorbed yet.
    intake: u64,
    /// `(nodes, signed)` of the last publication.
    published: (Vec<NodeId>, Vec<i64>),
}

impl Oracle {
    fn stream_frame(&mut self, frame: &[Rating]) {
        for &r in frame {
            if self.history.record(r) {
                self.intake += 1;
            }
        }
        if self.intake >= PUBLISH_EVERY {
            self.absorb();
            self.publish();
        }
    }

    /// What `absorb_intake` did: the intake's ratings reach the mirror. The
    /// mirror only ever lags `history` by exactly the intake, so absorbing
    /// is catching up with it.
    fn absorb(&mut self) {
        self.absorbed = self.history.clone();
        self.intake = 0;
    }

    /// What `publish_view` did: a full snapshot of the mirror.
    fn publish(&mut self) {
        let snap = ShardedSnapshot::build(&self.absorbed, &self.responsible, 1);
        let signed = (0..snap.n() as u32).map(|i| snap.signed(i)).collect();
        self.published = (snap.nodes().to_vec(), signed);
    }

    fn reputation(&self, id: NodeId) -> Option<i64> {
        self.published.0.binary_search(&id).ok().map(|i| self.published.1[i])
    }
}

fn config(dir: &std::path::Path, pair_watermark: Option<usize>) -> ManagerConfig {
    ManagerConfig {
        id: MANAGER,
        dir: dir.join("m"),
        nodes: (1..=REGISTERED_IDS).map(NodeId).collect(),
        managers: vec![MANAGER],
        replication: 1,
        thresholds: Thresholds::new(1.0, 20, 0.8, 0.2),
        method: Method::Optimized,
        policy: DetectionPolicy::STRICT,
        shards: 4,
        durability: DurabilityConfig { pair_watermark, ..DurabilityConfig::default() },
        rpc: RpcConfig::lan(),
        backpressure: Backpressure::default(),
    }
}

fn call(client: &mut RpcClient, node: &ManagerNode, req: &Request) -> Response {
    client.call(node.addr(), req).expect("rpc")
}

/// Everything observable from outside equals the oracle's last publication.
fn assert_matches(client: &mut RpcClient, node: &ManagerNode, oracle: &Oracle, step: &str) {
    let view = node.view_reader().get().clone();
    let (nodes, signed) = &oracle.published;
    assert_eq!(&*view.nodes, nodes, "published node table after {step}");
    assert_eq!(&view.signed, signed, "published signed totals after {step}");
    for id in (1..=QUERIED_IDS).map(NodeId) {
        let Response::Reputation { known, signed, .. } = call(client, node, &Request::Query(id))
        else {
            panic!("Query must answer Reputation")
        };
        let expect = oracle.reputation(id);
        assert_eq!((known, signed), (expect.is_some(), expect.unwrap_or(0)), "{id} after {step}");
    }
    let Response::Status(info) = call(client, node, &Request::Status) else {
        panic!("Status must answer Status")
    };
    assert_eq!(info.recorded, oracle.absorbed.recorded(), "Status.recorded after {step}");
    assert_eq!(info.intake_pending, oracle.intake, "Status.intake_pending after {step}");
}

/// Every node id, totals entry and row of the frozen primary slice equals
/// a snapshot built from the full history.
fn assert_frozen_matches(node: &ManagerNode, oracle: &Oracle) {
    let frozen = node.shared.state.lock().expect("state lock").frozen.clone().expect("frozen");
    let expect = ShardedSnapshot::build(&oracle.history, &oracle.responsible, 1);
    assert_eq!(frozen.snap.nodes(), expect.nodes(), "frozen node table");
    for i in 0..expect.n() as u32 {
        assert_eq!(frozen.snap.totals_of(i), expect.totals_of(i), "frozen totals of {i}");
        assert_eq!(frozen.snap.row(i), expect.row(i), "frozen row {i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn a_manager_matches_the_mirror_it_replaced(
        ops in prop::collection::vec(op(), 4..14),
        pair_watermark in prop::option::of(4usize..80),
    ) {
        let dir = scratch_dir("net-oracle");
        let cfg = config(&dir, pair_watermark);
        let mut node = ManagerNode::spawn(cfg.clone()).expect("spawn manager");
        // patient and never retrying: `CloseEpoch` and `Replicate` are not
        // idempotent, and on a busy disk one close's fsyncs can outlast
        // `lan()`'s 400 ms attempt, so a retry would close a second epoch
        let mut client = RpcClient::new(RpcConfig {
            attempt_timeout_ms: 30_000,
            total_deadline_ms: 30_000,
            max_retries: 0,
            ..RpcConfig::lan()
        });
        let mut oracle = Oracle {
            responsible: cfg.nodes.clone(),
            history: InteractionHistory::new(),
            absorbed: InteractionHistory::new(),
            intake: 0,
            published: (Vec::new(), Vec::new()),
        };
        assert_matches(&mut client, &node, &oracle, "spawn");

        for (k, op) in ops.iter().enumerate() {
            let step = format!("step {k} {}", match op {
                Op::Stream(_) => "Stream",
                Op::CloseEpoch => "CloseEpoch",
                Op::Freeze => "Freeze",
                Op::KillRejoin => "KillRejoin",
            });
            match op {
                Op::Stream(frames) => {
                    let mut stream = client.open_insert_stream(node.addr(), 4).expect("open");
                    for frame in frames {
                        stream.send(frame).expect("stream frame");
                        oracle.stream_frame(frame);
                    }
                    let stats = client.close_insert_stream(stream).expect("close stream");
                    let offered: usize = frames.iter().map(Vec::len).sum();
                    prop_assert_eq!(stats.ratings_acked, offered as u64, "{}", step);
                }
                Op::CloseEpoch => {
                    let resp = call(&mut client, &node, &Request::CloseEpoch);
                    prop_assert!(matches!(resp, Response::Ack { .. }));
                    oracle.absorb();
                    oracle.publish();
                }
                Op::Freeze => {
                    let resp = call(&mut client, &node, &Request::Freeze { round: k as u64 + 1 });
                    prop_assert!(matches!(resp, Response::Frozen { .. }));
                    oracle.absorb();
                    assert_frozen_matches(&node, &oracle);
                }
                Op::KillRejoin => {
                    client.forget(node.addr());
                    node.kill().expect("clean kill");
                    node = ManagerNode::spawn(cfg.clone()).expect("rejoin");
                    // the recovered engine holds everything, absorbed or not
                    oracle.absorb();
                    oracle.publish();
                }
            }
            assert_matches(&mut client, &node, &oracle, &step);
        }

        node.kill().expect("clean kill");
        std::fs::remove_dir_all(&dir).ok();
    }
}

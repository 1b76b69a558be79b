//! Peer behaviour models (§V "Node model").

use crate::config::SimConfig;
use collusion_reputation::id::NodeId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The three node types of the paper's node model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeKind {
    /// Always provides authentic files; its ratings may carry extra weight.
    Pretrusted,
    /// Provides authentic files with the default probability (0.8).
    Normal,
    /// Provides authentic files with probability `B`; boosts its partner.
    Colluder,
}

/// One peer's static attributes.
#[derive(Clone, Debug)]
pub struct Peer {
    /// Node id (1-based).
    pub id: NodeId,
    /// Behaviour class.
    pub kind: NodeKind,
    /// Interest categories the peer belongs to (1–5 of them).
    pub interests: Vec<u8>,
    /// Probability the peer issues a query in a query cycle.
    pub activity: f64,
    /// Probability a served file is authentic.
    pub good_prob: f64,
    /// Collusion partner (colluders are paired; compromised pretrusted
    /// nodes also get a colluder partner).
    pub partner: Option<NodeId>,
}

/// Build the peer population from a config, deterministically in the seed.
pub fn build_peers(config: &SimConfig) -> Vec<Peer> {
    config.validate();
    // distinct RNG stream from the engine's (salted seed)
    const PEER_STREAM_SALT: u64 = 0x7065_6572_735f_7631; // "peers_v1"
    let mut rng = SmallRng::seed_from_u64(config.seed ^ PEER_STREAM_SALT);
    let mut peers = Vec::with_capacity(config.n_nodes as usize);
    let pairs = config.colluding_pairs();
    let partner_of = |id: NodeId| -> Option<NodeId> {
        pairs.iter().find_map(|&(a, b)| {
            if a == id {
                Some(b)
            } else if b == id {
                Some(a)
            } else {
                None
            }
        })
    };
    for raw in 1..=config.n_nodes {
        let id = NodeId(raw);
        let in_group = config.colluding_groups.iter().any(|g| g.contains(&id));
        let kind = if config.pretrusted.contains(&id) {
            NodeKind::Pretrusted
        } else if config.colluders.contains(&id) || in_group {
            NodeKind::Colluder
        } else {
            NodeKind::Normal
        };
        let good_prob = match kind {
            NodeKind::Pretrusted => 1.0,
            NodeKind::Normal => config.normal_good_prob,
            NodeKind::Colluder => config.colluder_good_prob,
        };
        let n_interests =
            rng.random_range(config.interests_per_node.0..=config.interests_per_node.1);
        // sample n distinct interests from 0..categories
        let mut all: Vec<u8> = (0..config.interest_categories).collect();
        let mut interests = Vec::with_capacity(n_interests as usize);
        for _ in 0..n_interests {
            let idx = rng.random_range(0..all.len());
            interests.push(all.swap_remove(idx));
        }
        interests.sort_unstable();
        let activity = rng.random_range(config.activity.0..=config.activity.1);
        peers.push(Peer { id, kind, interests, activity, good_prob, partner: partner_of(id) });
    }
    peers
}

#[cfg(test)]
mod tests {
    use super::*;

    fn peers() -> Vec<Peer> {
        build_peers(&SimConfig::paper_baseline(42))
    }

    #[test]
    fn population_size_and_roles() {
        let p = peers();
        assert_eq!(p.len(), 200);
        assert_eq!(p.iter().filter(|x| x.kind == NodeKind::Pretrusted).count(), 3);
        assert_eq!(p.iter().filter(|x| x.kind == NodeKind::Colluder).count(), 8);
        assert_eq!(p.iter().filter(|x| x.kind == NodeKind::Normal).count(), 189);
    }

    #[test]
    fn good_probabilities_by_kind() {
        for peer in peers() {
            match peer.kind {
                NodeKind::Pretrusted => assert_eq!(peer.good_prob, 1.0),
                NodeKind::Normal => assert_eq!(peer.good_prob, 0.8),
                NodeKind::Colluder => assert_eq!(peer.good_prob, 0.6),
            }
        }
    }

    #[test]
    fn interests_distinct_sorted_in_range() {
        for peer in peers() {
            assert!((1..=5).contains(&peer.interests.len()));
            assert!(peer.interests.windows(2).all(|w| w[0] < w[1]), "not strictly sorted");
            assert!(peer.interests.iter().all(|&i| i < 20));
        }
    }

    #[test]
    fn activity_within_configured_range() {
        for peer in peers() {
            assert!((0.3..=0.8).contains(&peer.activity), "activity {}", peer.activity);
        }
    }

    #[test]
    fn colluders_partnered_consecutively() {
        let p = peers();
        let by_id = |id: u64| p.iter().find(|x| x.id == NodeId(id)).unwrap();
        assert_eq!(by_id(4).partner, Some(NodeId(5)));
        assert_eq!(by_id(5).partner, Some(NodeId(4)));
        assert_eq!(by_id(10).partner, Some(NodeId(11)));
        assert_eq!(by_id(1).partner, None);
        assert_eq!(by_id(50).partner, None);
    }

    #[test]
    fn compromised_pretrusted_gets_partner() {
        let mut cfg = SimConfig::paper_baseline(42);
        cfg.compromised = vec![(NodeId(1), NodeId(4)), (NodeId(2), NodeId(6))];
        let p = build_peers(&cfg);
        let by_id = |id: u64| p.iter().find(|x| x.id == NodeId(id)).unwrap();
        assert_eq!(by_id(1).partner, Some(NodeId(4)));
        assert_eq!(by_id(2).partner, Some(NodeId(6)));
        // n4 keeps its first partner in the list order (pair 4-5 listed first)
        assert!(by_id(4).partner.is_some());
        assert_eq!(by_id(3).partner, None);
    }

    #[test]
    fn deterministic_in_seed() {
        let a = build_peers(&SimConfig::paper_baseline(7));
        let b = build_peers(&SimConfig::paper_baseline(7));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.interests, y.interests);
            assert_eq!(x.activity, y.activity);
        }
        let c = build_peers(&SimConfig::paper_baseline(8));
        assert!(
            a.iter().zip(&c).any(|(x, y)| x.interests != y.interests || x.activity != y.activity),
            "different seeds should differ"
        );
    }
}

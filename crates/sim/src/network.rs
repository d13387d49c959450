//! A simple message-latency/loss model for the simulated pool network.

use crate::engine::SimTime;
use rand::Rng;

/// Network model: per-message latency = `base_latency_ms` + uniform jitter
/// in `[0, jitter_ms]`; each message is independently dropped with
/// probability `drop_prob`.
#[derive(Debug, Clone)]
pub struct NetworkModel {
    /// Fixed one-way latency floor, ms.
    pub base_latency_ms: u64,
    /// Maximum additional uniform jitter, ms.
    pub jitter_ms: u64,
    /// Probability a message is silently lost.
    pub drop_prob: f64,
}

impl Default for NetworkModel {
    fn default() -> Self {
        NetworkModel {
            base_latency_ms: 2,
            jitter_ms: 3,
            drop_prob: 0.0,
        }
    }
}

impl NetworkModel {
    /// An ideal network: zero latency, no loss.
    pub fn ideal() -> Self {
        NetworkModel {
            base_latency_ms: 0,
            jitter_ms: 0,
            drop_prob: 0.0,
        }
    }

    /// Sample the fate of one message: `Some(latency)` to deliver after
    /// `latency` ms, `None` if dropped.
    pub fn sample(&self, rng: &mut impl Rng) -> Option<SimTime> {
        if self.drop_prob > 0.0 && rng.gen_bool(self.drop_prob.clamp(0.0, 1.0)) {
            return None;
        }
        let jitter = if self.jitter_ms > 0 {
            rng.gen_range(0..=self.jitter_ms)
        } else {
            0
        };
        Some(self.base_latency_ms + jitter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn ideal_network_is_instant_and_lossless() {
        let net = NetworkModel::ideal();
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(net.sample(&mut rng), Some(0));
        }
    }

    #[test]
    fn latency_within_bounds() {
        let net = NetworkModel {
            base_latency_ms: 10,
            jitter_ms: 5,
            drop_prob: 0.0,
        };
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..1000 {
            let l = net.sample(&mut rng).unwrap();
            assert!((10..=15).contains(&l), "{l}");
        }
    }

    #[test]
    fn drop_probability_roughly_respected() {
        let net = NetworkModel {
            base_latency_ms: 0,
            jitter_ms: 0,
            drop_prob: 0.25,
        };
        let mut rng = SmallRng::seed_from_u64(3);
        let dropped = (0..10_000)
            .filter(|_| net.sample(&mut rng).is_none())
            .count();
        assert!((2000..3000).contains(&dropped), "{dropped}");
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let net = NetworkModel::default();
        let a: Vec<_> = {
            let mut rng = SmallRng::seed_from_u64(9);
            (0..50).map(|_| net.sample(&mut rng)).collect()
        };
        let b: Vec<_> = {
            let mut rng = SmallRng::seed_from_u64(9);
            (0..50).map(|_| net.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}

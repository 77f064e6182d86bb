//! Counter-based RNG stream derivation.
//!
//! The LOCAL model gives every node "an arbitrarily long private random
//! bit string" (paper, Section 2), and the Lemma 3.1 transformation
//! requires the decomposition's randomness to be **independent of the
//! algorithm's randomness** (Proposition 4.3). Both requirements are
//! met by deriving, rather than sharing, RNG state: a [`StreamRng`] is a
//! key built by mixing a master seed with a path of labels
//! (`domain`, `stream`, `node id`, ...) through SplitMix64, and two
//! distinct paths yield uncorrelated generators. Derivation is pure —
//! no mutable RNG state ever crosses a task boundary — so parallel
//! tasks consume exactly the bits they would consume sequentially.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// SplitMix64 finalizer (Steele–Lea–Flood): a bijective 64-bit mixer
/// whose increments decorrelate consecutive keys. This is the single
/// mixing primitive of the workspace's seeding scheme — node seeds in
/// `lds-localnet` and every [`StreamRng`] derivation go through it.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Reserved top-level domain labels, one per independent randomness
/// consumer. Deriving with distinct domains is what keeps decomposition
/// randomness independent of algorithm randomness (Proposition 4.3)
/// under one master seed.
pub mod streams {
    /// Network-decomposition randomness (the chromatic scheduler).
    pub const DECOMPOSITION: u64 = 0xdec0;
    /// Fault-injection schedules (the `lds-chaos` fail-point registry).
    /// A distinct domain so armed chaos plans can never perturb the
    /// randomness any algorithm consumes.
    pub const CHAOS: u64 = 0xc4a0;
}

/// A derivation key for an independent RNG stream.
///
/// Keys form a tree: [`StreamRng::root`] makes the root from a master
/// seed, [`StreamRng::substream`] descends one labeled edge, and
/// [`StreamRng::rng`] instantiates the generator at the current path.
/// The same `(seed, labels...)` path always yields the same generator;
/// sibling paths are uncorrelated.
///
/// # Example
///
/// ```
/// use lds_runtime::{streams, StreamRng};
///
/// let a = StreamRng::derive(42, streams::DECOMPOSITION);
/// let b = StreamRng::derive(42, streams::CHAOS);
/// assert_ne!(a.state(), b.state());
/// assert_eq!(a.state(), StreamRng::derive(42, streams::DECOMPOSITION).state());
/// let _rng = a.substream(3).rng();
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct StreamRng {
    key: u64,
}

impl StreamRng {
    /// The root key of a master seed.
    pub fn root(seed: u64) -> Self {
        StreamRng {
            key: splitmix64(seed ^ 0x1d5_0c0d_e5ee_d000),
        }
    }

    /// Shorthand for `root(seed).substream(label)` — the common
    /// "seed + domain" derivation.
    pub fn derive(seed: u64, label: u64) -> Self {
        StreamRng::root(seed).substream(label)
    }

    /// Descends one labeled edge: a counter-based mix of the current key
    /// with `label`. Distinct labels give uncorrelated child keys.
    pub fn substream(self, label: u64) -> Self {
        StreamRng {
            key: splitmix64(self.key ^ label.wrapping_mul(0x2545_f491_4f6c_dd1d)),
        }
    }

    /// The derived 64-bit key (usable as a seed for any generator).
    pub fn state(self) -> u64 {
        self.key
    }

    /// Instantiates the stream's generator.
    pub fn rng(self) -> StdRng {
        StdRng::seed_from_u64(self.key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn paths_are_deterministic_and_distinct() {
        let a = StreamRng::root(7).substream(1).substream(2);
        let b = StreamRng::root(7).substream(1).substream(2);
        assert_eq!(a, b);
        assert_ne!(a, StreamRng::root(7).substream(2).substream(1));
        assert_ne!(a, StreamRng::root(8).substream(1).substream(2));
    }

    #[test]
    fn domains_separate() {
        let d = StreamRng::derive(123, streams::DECOMPOSITION);
        let c = StreamRng::derive(123, streams::CHAOS);
        assert_ne!(d.state(), c.state());
    }

    #[test]
    fn streams_look_independent() {
        // crude correlation check: bits of sibling streams disagree
        // about half the time
        let mut agree = 0u32;
        for label in 0..64u64 {
            let x = StreamRng::derive(9, label).rng().gen::<u64>();
            let y = StreamRng::derive(9, label + 1).rng().gen::<u64>();
            agree += (x ^ y).count_zeros();
        }
        let frac = agree as f64 / (64.0 * 64.0);
        assert!((frac - 0.5).abs() < 0.05, "agreement {frac}");
    }
}

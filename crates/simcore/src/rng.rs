//! Named, independently seeded random-number streams.
//!
//! Experiments in this workspace must be reproducible from a single seed,
//! and adding a new random consumer (e.g. one more AI task with jittered
//! start time) must not perturb the draws seen by existing consumers. Both
//! properties are achieved by deriving an independent [`StdRng`] per
//! `(master_seed, stream_name)` pair via the FNV-1a hash of the name mixed
//! with the master seed through splitmix64.

use crate::rand::{splitmix64, SeedableRng, StdRng};

/// Derives independent RNG streams from one master seed.
///
/// # Example
///
/// ```
/// use simcore::rand::{Rng, StdRng};
/// use simcore::rng::RngFactory;
///
/// let f = RngFactory::new(42);
/// let mut a: StdRng = f.stream("ai-jitter");
/// let mut b = f.stream("user-motion");
/// // Streams with different names are decorrelated…
/// let (x, y): (f64, f64) = (a.gen(), b.gen());
/// assert_ne!(x, y);
/// // …and the same name always yields the same stream.
/// let mut a2 = f.stream("ai-jitter");
/// assert_eq!(a.gen::<u64>(), { a2.gen::<f64>(); a2.gen::<u64>() });
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RngFactory {
    master_seed: u64,
}

impl RngFactory {
    /// Creates a factory rooted at `master_seed`.
    pub fn new(master_seed: u64) -> Self {
        RngFactory { master_seed }
    }

    /// The master seed this factory was built from.
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// Returns the deterministic seed for a named stream.
    pub fn seed_for(&self, name: &str) -> u64 {
        splitmix64(self.master_seed ^ fnv1a(name.as_bytes()))
    }

    /// Creates the RNG for a named stream.
    pub fn stream(&self, name: &str) -> StdRng {
        StdRng::seed_from_u64(self.seed_for(name))
    }

    /// Creates the RNG for a named, indexed stream (e.g. one per task).
    pub fn indexed_stream(&self, name: &str, index: u64) -> StdRng {
        StdRng::seed_from_u64(splitmix64(self.seed_for(name) ^ splitmix64(index)))
    }

    /// Derives a child factory, useful for per-run seed sweeps.
    pub fn child(&self, run: u64) -> RngFactory {
        RngFactory::new(splitmix64(
            self.master_seed
                .wrapping_add(run.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        ))
    }
}

/// Mixes two integers into a well-distributed 64-bit value (splitmix64
/// over the xor of the operands' individual mixes). Used for cheap
/// deterministic per-event jitter where carrying an RNG would be awkward.
pub fn mix(a: u64, b: u64) -> u64 {
    splitmix64(splitmix64(a) ^ splitmix64(b.wrapping_add(0x9E37_79B9_7F4A_7C15)))
}

/// FNV-1a hash of a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rand::Rng;

    #[test]
    fn same_name_same_stream() {
        let f = RngFactory::new(7);
        let mut a = f.stream("a");
        let mut b = f.stream("a");
        let xs: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn different_names_differ() {
        let f = RngFactory::new(7);
        assert_ne!(f.seed_for("a"), f.seed_for("b"));
        let x: u64 = f.stream("a").gen();
        let y: u64 = f.stream("b").gen();
        assert_ne!(x, y);
    }

    #[test]
    fn different_master_seeds_differ() {
        assert_ne!(
            RngFactory::new(1).seed_for("a"),
            RngFactory::new(2).seed_for("a")
        );
    }

    #[test]
    fn indexed_streams_differ() {
        let f = RngFactory::new(7);
        let a: u64 = f.indexed_stream("t", 0).gen();
        let b: u64 = f.indexed_stream("t", 1).gen();
        assert_ne!(a, b);
    }

    #[test]
    fn child_factories_are_decorrelated() {
        let f = RngFactory::new(7);
        assert_ne!(f.child(0).seed_for("a"), f.child(1).seed_for("a"));
        // Deterministic: the same run index yields the same child.
        assert_eq!(f.child(3).master_seed(), f.child(3).master_seed());
    }

    #[test]
    fn mix_is_deterministic_and_spread() {
        assert_eq!(mix(1, 2), mix(1, 2));
        assert_ne!(mix(1, 2), mix(2, 1));
        assert_ne!(mix(0, 0), mix(0, 1));
    }

    #[test]
    fn splitmix_is_a_permutation_sample() {
        // Spot-check injectivity on a small sample.
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(splitmix64(i)));
        }
    }
}

//! The LOCAL model's output shape and Las Vegas failure semantics.
//!
//! A LOCAL algorithm with time complexity `t` lets every node gather
//! all information within radius `t` — topology, inputs, random bits —
//! and perform arbitrary local computation (paper, Section 2). Upon
//! termination each node `v` outputs its value and a failure bit `F_v`;
//! algorithms are required to keep `Σ_v E[F_v] = O(1/n)` ("a well accepted
//! notion of Las Vegas algorithms for local computation"). Every pass
//! here runs as the scan of [`crate::slocal`] over the chromatic
//! schedule of [`crate::scheduler`] (Lemma 3.1), and [`LocalRun`] is the
//! LOCAL run that scan amounts to.

/// The result of running a LOCAL algorithm on a network.
#[derive(Clone, Debug)]
pub struct LocalRun<T> {
    /// Per-node outputs `Y_v` indexed by node id.
    pub outputs: Vec<T>,
    /// Per-node failure bits `F_v`.
    pub failures: Vec<bool>,
    /// The radius every node gathered (= the algorithm's round count).
    pub rounds: usize,
}

impl<T> LocalRun<T> {
    /// Returns `true` if no node failed.
    pub fn succeeded(&self) -> bool {
        self.failures.iter().all(|&f| !f)
    }
}

//! Library half of the end-to-end loopback benchmark: the workloads,
//! their request streams and the summary statistics, kept apart from
//! the driver so the stream generator can be tested on its own.

pub mod stats;
pub mod workload;

//! Heap allocations of local-JVV's rejection pass: a step keeps its
//! buffers in the scan state, so over a whole pass the only allocations
//! that grow with the node count are the oracle's answers.
//!
//! This suite is its own test binary because it installs a counting
//! `#[global_allocator]`. The counter is per thread, so whatever the test
//! harness allocates on other threads does not reach it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lds::core::jvv::LocalJvv;
use lds::core::regime;
use lds::gibbs::models::hardcore;
use lds::gibbs::models::two_spin::TwoSpinParams;
use lds::gibbs::{GibbsModel, PartialConfig, Value};
use lds::graph::{generators, NodeId};
use lds::localnet::slocal::SlocalRun;
use lds::localnet::{scheduler, Instance, Network};
use lds::oracle::{DecayRate, Oracle, Target, TwoSpinSawOracle};
use lds::runtime::CancelToken;

/// Counts every allocation and reallocation on the calling thread; the
/// default `alloc_zeroed` and `realloc` go through `alloc`.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: both methods forward their arguments unchanged to `System`, so
// this allocator keeps `GlobalAlloc`'s contract exactly as `System` does;
// the count touches only a `const`-initialised thread-local `Cell`, which
// never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

/// Counts `Mul` queries to the wrapped oracle. Each answer of the SAW
/// oracle is exactly one `Vec`.
struct CountingOracle<O> {
    inner: O,
    queries: Cell<usize>,
}

impl<O: Oracle> Oracle for CountingOracle<O> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn radius(&self, model: &GibbsModel, target: Target) -> usize {
        self.inner.radius(model, target)
    }

    fn query(
        &self,
        model: &GibbsModel,
        pinning: &PartialConfig,
        v: NodeId,
        target: Target,
    ) -> Vec<f64> {
        if let Target::Mul(_) = target {
            self.queries.set(self.queries.get() + 1);
        }
        self.inner.query(model, pinning, v, target)
    }
}

/// One reject pass on cycle(128) and on cycle(1024) at ε = 0.01, with the
/// engine's SAW oracle, from pass-1/2 inputs as a real run gives them:
/// σ₀ all vacant and `Y` from that run. Beyond the oracle's answers the
/// pass allocates a bounded number of times: its scan state, the
/// kernel's inputs and the growth of buffers and effects.
#[test]
fn a_reject_pass_allocates_little_beyond_the_oracle_answers() {
    const LIMIT: usize = 64;
    for n in [128usize, 1024] {
        let g = generators::cycle(n);
        let eps = 0.01;
        let rate = regime::hardcore(&g, 1.0).expect("in regime").rate;
        let oracle = CountingOracle {
            inner: TwoSpinSawOracle::new(
                TwoSpinParams::hardcore(1.0),
                DecayRate::new(rate.clamp(1e-6, 0.95), 2.0),
            ),
            queries: Cell::new(0),
        };
        let jvv = LocalJvv::new(&oracle, eps);
        let net = Network::new(Instance::unconditioned(hardcore::model(&g, 1.0)), 1);
        let order =
            scheduler::chromatic_schedule(&net, jvv.locality(net.instance().model()), 0).order;
        // a full run first: it yields Y and warms the oracle's per-thread
        // scratch for this graph
        let (run, _) = jvv.run(&net, &order, &CancelToken::never()).unwrap();
        let ground = SlocalRun {
            outputs: vec![Value(0); n],
            failures: vec![false; n],
        };
        let sampled = SlocalRun {
            outputs: run.run.outputs,
            failures: vec![false; n],
        };

        let (queries, allocs) = (oracle.queries.get(), allocations());
        let outcome = jvv.rejection_pass_scan(&net, &order, ground, sampled);
        let allocs = allocations() - allocs;
        let queries = oracle.queries.get() - queries;
        drop(outcome);

        assert!(queries > 0, "cycle({n}): the pass made no oracle query");
        let extra = allocs.saturating_sub(queries);
        assert!(
            extra <= LIMIT,
            "cycle({n}): {allocs} allocations for {queries} oracle answers, \
             {extra} beyond them (limit {LIMIT})"
        );
    }
}

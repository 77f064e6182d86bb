//! Chaos suite: deterministic fault injection across the serving
//! stack. The one invariant every scenario asserts, under any injected
//! schedule: a request returns either the bit-identical correct report
//! or a typed error — never a hang, never an escaped panic, never a
//! wrong answer.
//!
//! Schedules are seeded ([`lds::chaos::seed_from_env`] reads
//! `LDS_CHAOS_SEED`), so a CI failure replays locally with the same
//! seed. These run in the CI `LDS_THREADS` determinism matrix:
//! server-side engines are built without an explicit width, so every
//! assertion holds at widths 1, 4, and 8.

use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use lds::chaos::{self, Fault, Plan, Trigger};
use lds::engine::{Engine, ModelSpec, RunReport, Task, Topology};
use lds::gibbs::Value;
use lds::graph::{generators, NodeId};
use lds::net::{Client, ClientError, EngineSpec, NetServer, Op, Reply, RetryPolicy, WireError};
use lds::serve::{EngineRegistry, RegistryConfig, Server};

/// The chaos registry is process-global; scenarios that arm a plan
/// must not overlap. Every test takes this guard first.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn hardcore_spec(n: usize) -> EngineSpec {
    EngineSpec::new(
        ModelSpec::Hardcore { lambda: 1.0 },
        Topology::Graph(generators::cycle(n)),
    )
}

fn assert_same_answer(a: &RunReport, b: &RunReport, context: &str) {
    assert!(a.semantic_eq(b), "{context}:\n{a:?}\nvs\n{b:?}");
}

/// The tentpole proof that retrying `Op::Run` is exactly-once: the
/// connection is reset *after* the engine has executed but *before*
/// the reply frame is written. The retry reconnects, re-submits, and
/// must join the idempotency cache — one engine execution total, and
/// the report the retry receives is the one the first execution
/// produced.
#[test]
fn reset_between_execution_and_reply_retries_into_the_cached_report() {
    let _serial = serial();
    let seed = chaos::seed_from_env(0x5EED);
    let server = NetServer::with_defaults("127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let fp = client.register(&hardcore_spec(12)).unwrap();

    let guard = chaos::arm(Plan::new(seed).with("net.conn_reset", Trigger::Nth(0), Fault::Reset));
    let report = client
        .run_retrying(fp, Task::SampleExact, 7, &RetryPolicy::default())
        .expect("the retry must recover the reply the reset destroyed");
    assert!(
        chaos::firings("net.conn_reset") >= 1,
        "the schedule must actually have fired"
    );
    drop(guard);

    let stats = client.stats(fp).unwrap();
    assert_eq!(
        stats.engine_executions, 1,
        "retry after a post-execution reset must join the cache, not re-run"
    );
    assert!(stats.cache_hits >= 1, "the retry was a cache hit");
    server.shutdown();

    let direct = hardcore_spec(12).build().unwrap();
    let expect = direct.run_with_seed(Task::SampleExact, 7).unwrap();
    assert_same_answer(
        &report,
        &expect,
        "retried report diverged from ground truth",
    );
}

/// A zero budget is already expired when the request arrives:
/// admission rejects it typed, and the engine never runs.
#[test]
fn zero_budget_is_rejected_at_admission_and_never_executes() {
    let _serial = serial();
    let server = NetServer::with_defaults("127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let fp = client.register(&hardcore_spec(10)).unwrap();
    match client.run_with_deadline(fp, Task::SampleExact, 3, Duration::ZERO) {
        Err(ClientError::Server(WireError::Expired)) => {}
        other => panic!("expected Expired at admission, got {other:?}"),
    }
    let stats = client.stats(fp).unwrap();
    assert_eq!(
        stats.engine_executions, 0,
        "an expired request must not run"
    );
    // the connection and tenant both survive the rejection
    client.run(fp, Task::SampleExact, 3).unwrap();
    server.shutdown();
}

/// Budget sweep across the whole range — from "expires in the queue"
/// to "completes comfortably": every outcome is a full correct report
/// or a typed `Expired`, never a partial answer and never a hang. A
/// run that makes its deadline is bit-identical to an unbounded run
/// (the cancellation checks consume no randomness).
#[test]
fn deadline_outcomes_are_report_xor_typed_expired_never_partial() {
    let _serial = serial();
    let server = NetServer::with_defaults("127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let fp = client.register(&hardcore_spec(48)).unwrap();

    let budgets = [
        Duration::from_micros(1),
        Duration::from_micros(50),
        Duration::from_millis(1),
        Duration::from_millis(20),
        Duration::from_secs(30),
    ];
    let mut outcomes = Vec::new();
    for (i, budget) in budgets.iter().enumerate() {
        let seed = 100 + i as u64; // distinct seeds: no cross-budget cache hits
        match client.run_with_deadline(fp, Task::SampleExact, seed, *budget) {
            Ok(report) => outcomes.push((seed, report)),
            Err(ClientError::Server(WireError::Expired)) => {}
            other => panic!("budget {budget:?}: expected report or Expired, got {other:?}"),
        }
    }
    // the 30 s budget always completes — at least one report to check
    assert!(
        !outcomes.is_empty(),
        "the most generous budget must have completed"
    );
    server.shutdown();

    let direct = hardcore_spec(48).build().unwrap();
    for (seed, report) in &outcomes {
        let expect = direct.run_with_seed(Task::SampleExact, *seed).unwrap();
        assert_same_answer(
            report,
            &expect,
            &format!("deadline-bounded run for seed {seed} diverged from unbounded"),
        );
    }
}

/// A worker session panicking while it holds a request is contained:
/// that request is answered typed (`Cancelled`), the supervisor
/// respawns the session, and the same connection keeps being served.
/// The retry policy treats `Cancelled` as transient, so `run_retrying`
/// rides through the crash.
#[test]
fn worker_panic_is_contained_respawned_and_survivable() {
    let _serial = serial();
    let seed = chaos::seed_from_env(0x5EED);
    let restarts_before = lds::obs::global()
        .snapshot()
        .counter("serve_worker_restarts")
        .unwrap_or(0);
    let server = NetServer::with_defaults("127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let fp = client.register(&hardcore_spec(12)).unwrap();

    let guard =
        chaos::arm(Plan::new(seed).with("serve.worker_panic", Trigger::Nth(0), Fault::Panic));
    let report = client
        .run_retrying(fp, Task::SampleExact, 11, &RetryPolicy::default())
        .expect("retry must ride through the worker crash");
    assert!(chaos::firings("serve.worker_panic") >= 1);
    drop(guard);

    let restarts_after = lds::obs::global()
        .snapshot()
        .counter("serve_worker_restarts")
        .unwrap_or(0);
    assert!(
        restarts_after > restarts_before,
        "the supervisor must record the respawn"
    );
    // the respawned worker serves fresh work on the same connection
    client.run(fp, Task::SampleExact, 12).unwrap();
    server.shutdown();

    let direct = hardcore_spec(12).build().unwrap();
    let expect = direct.run_with_seed(Task::SampleExact, 11).unwrap();
    assert_same_answer(&report, &expect, "post-crash report diverged");
}

/// A torn reply frame (header promises more bytes than arrive, then
/// the connection severs) is a transport error, and the retry path
/// recovers the cached report without a second execution.
#[test]
fn torn_reply_frame_is_survivable_and_still_exactly_once() {
    let _serial = serial();
    let seed = chaos::seed_from_env(0x5EED);
    let server = NetServer::with_defaults("127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let fp = client.register(&hardcore_spec(12)).unwrap();

    let guard = chaos::arm(Plan::new(seed).with(
        "net.write_torn",
        Trigger::Nth(0),
        Fault::TornWrite { keep: 5 },
    ));
    let report = client
        .run_retrying(fp, Task::SampleExact, 21, &RetryPolicy::default())
        .expect("retry must recover from the torn frame");
    assert!(chaos::firings("net.write_torn") >= 1);
    drop(guard);

    let stats = client.stats(fp).unwrap();
    assert_eq!(stats.engine_executions, 1, "torn reply must not re-execute");
    server.shutdown();

    let direct = hardcore_spec(12).build().unwrap();
    let expect = direct.run_with_seed(Task::SampleExact, 21).unwrap();
    assert_same_answer(&report, &expect, "post-tear report diverged");
}

/// An injected engine fault at a chosen call index surfaces as a typed
/// wire error on exactly that call; every other call is unaffected.
/// Terminal for retry: the client must NOT burn attempts on it.
#[test]
fn injected_engine_fault_is_typed_terminal_and_precisely_placed() {
    let _serial = serial();
    let seed = chaos::seed_from_env(0x5EED);
    let server = NetServer::with_defaults("127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let fp = client.register(&hardcore_spec(10)).unwrap();

    let guard = chaos::arm(Plan::new(seed).with(
        "engine.oracle_error",
        Trigger::Nth(2),
        Fault::Error("chaos oracle".into()),
    ));
    let mut failed_at = Vec::new();
    for i in 0..5u64 {
        match client.run_retrying(fp, Task::SampleExact, 200 + i, &RetryPolicy::default()) {
            Ok(_) => {}
            Err(ClientError::Server(WireError::Engine(msg))) => {
                assert!(msg.contains("chaos oracle"), "fault message lost: {msg}");
                failed_at.push(i);
            }
            other => panic!("call {i}: expected report or typed Engine error, got {other:?}"),
        }
    }
    assert_eq!(
        failed_at,
        vec![2],
        "Nth(2) must fail exactly the third execution"
    );
    assert_eq!(chaos::firings("engine.oracle_error"), 1);
    drop(guard);
    server.shutdown();
}

/// A tenant runs one session per thread of its engine's pool: with a
/// delay stretching every engine run to 250 ms, a SampleExact and an
/// Infer submitted together to a default `Server` run side by side over
/// a two-thread engine and one after the other over a one-thread
/// engine.
#[test]
fn a_tenants_concurrency_follows_its_pool_width() {
    let _serial = serial();
    let seed = chaos::seed_from_env(0x5EED);
    let infer = Task::Infer {
        vertex: NodeId(0),
        value: Value(1),
    };
    // time from submitting both requests to holding both answers
    let both_answered = |threads: usize| {
        let engine = Engine::builder()
            .model(ModelSpec::Hardcore { lambda: 1.0 })
            .graph(generators::cycle(8))
            .threads(threads)
            .build()
            .unwrap();
        let server = Server::with_defaults(Arc::new(engine));
        let start = Instant::now();
        let tickets = [
            server.try_submit(Task::SampleExact, 1).unwrap(),
            server.try_submit(infer, 1).unwrap(),
        ];
        for ticket in tickets {
            ticket.wait().expect("a delayed run still answers");
        }
        start.elapsed()
    };
    let guard = chaos::arm(Plan::new(seed).with(
        "engine.oracle_error",
        Trigger::Always,
        Fault::Delay(Duration::from_millis(250)),
    ));
    let (two, one) = (both_answered(2), both_answered(1));
    drop(guard);
    assert!(
        two < Duration::from_millis(400),
        "two sessions must run the two requests side by side, took {two:?}"
    );
    assert!(
        one >= Duration::from_millis(500),
        "one session must run the two requests one after the other, took {one:?}"
    );
}

/// Evicting a tenant must not stall the others. The registry usually
/// holds an evicted tenant's last handle, and dropping that handle joins
/// the tenant's sessions, which first serve every request it accepted.
/// The drop happens after the registry lock is released, so another
/// tenant's lookup and run finish while the evicted one waits out its
/// stall.
#[test]
fn evicting_a_stalled_tenant_does_not_stall_the_others() {
    let _serial = serial();
    let seed = chaos::seed_from_env(0x5EED);
    const STALL: Duration = Duration::from_secs(2);
    let engine = |n: usize| {
        Engine::builder()
            .model(ModelSpec::Hardcore { lambda: 1.0 })
            .graph(generators::cycle(n))
            .threads(1)
            .build()
            .unwrap()
    };
    let wait_until = |done: &dyn Fn() -> bool| {
        let start = Instant::now();
        while !done() {
            assert!(start.elapsed() < Duration::from_secs(10), "timed out");
            thread::sleep(Duration::from_millis(1));
        }
    };
    let registry = Arc::new(EngineRegistry::new(RegistryConfig {
        capacity: 2,
        ..RegistryConfig::default()
    }));
    let fp_cold = registry.register(engine(6));
    let fp_warm = registry.register(engine(8));
    let cold = registry.get(fp_cold).unwrap();
    registry.get(fp_warm).unwrap(); // the cold tenant is now the LRU one

    // the cold tenant's one session sleeps holding a request, and a
    // second request waits in its queue
    let guard =
        chaos::arm(Plan::new(seed).with("serve.queue_stall", Trigger::Nth(0), Fault::Delay(STALL)));
    let stalled_from = Instant::now();
    let stalled = cold.try_submit(Task::SampleExact, 1).unwrap();
    wait_until(&|| chaos::firings("serve.queue_stall") == 1);
    drop(guard);
    let queued = cold.try_submit(Task::SampleExact, 2).unwrap();
    let cold_handle = Arc::downgrade(&cold);
    drop(cold); // the registry now holds the tenant's last handle

    // a third tenant evicts the cold one, whose drop waits out the stall
    let registering = thread::spawn({
        let registry = Arc::clone(&registry);
        move || registry.register(engine(10))
    });
    wait_until(&|| cold_handle.strong_count() == 0);
    let warm = registry.get(fp_warm).expect("the warm tenant stays live");
    warm.run(Task::SampleExact, 3)
        .expect("the warm tenant serves");
    assert!(
        Instant::now() < stalled_from + STALL,
        "the warm tenant waited for the evicted tenant's drain"
    );
    // the evicted tenant still answers every request it accepted
    stalled.wait().expect("the stalled request is served");
    queued.wait().expect("the queued request is served");
    registering.join().unwrap();
    assert_eq!(registry.stats().evictions, 1);
}

/// Probabilistic schedules replay identically for the same seed — the
/// property that makes a chaos-found failure reproducible — and a
/// different seed draws a different schedule.
#[test]
fn probabilistic_schedules_replay_bit_identically_per_seed() {
    let _serial = serial();
    let pattern = |seed: u64| -> Vec<bool> {
        let _guard =
            chaos::arm(Plan::new(seed).with("chaos.test_site", Trigger::Prob(0.5), Fault::Reset));
        (0..64)
            .map(|_| chaos::point("chaos.test_site").is_some())
            .collect()
    };
    let a = pattern(42);
    let b = pattern(42);
    let c = pattern(43);
    assert_eq!(a, b, "same seed must replay the same firing pattern");
    assert_ne!(a, c, "different seeds must draw different schedules");
    assert!(
        a.iter().any(|&f| f) && !a.iter().all(|&f| f),
        "p=0.5 fires some, not all"
    );
}

/// Graceful shutdown with pipelined requests in flight: a stalled
/// reader holds the frames in the socket while the server shuts down —
/// every buffered request id must be answered with a typed
/// `ShuttingDown`, not silently dropped.
#[test]
fn shutdown_answers_pipelined_requests_with_typed_shutting_down() {
    let _serial = serial();
    let seed = chaos::seed_from_env(0x5EED);
    let server = NetServer::with_defaults("127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    // stall the session reader so the pipelined frames stay buffered
    // in the socket until shutdown fires
    let guard = chaos::arm(Plan::new(seed).with(
        "net.read_stall",
        Trigger::Always,
        Fault::Delay(Duration::from_millis(250)),
    ));
    let mut client = Client::connect(addr).unwrap();
    let total = 8;
    let mut sent = Vec::new();
    for _ in 0..total {
        sent.push(client.send(Op::Ping).unwrap());
    }
    // frames are in the server's receive buffer; the reader is inside
    // its first stall. Shut down before it wakes.
    thread::sleep(Duration::from_millis(50));
    let shutdown = thread::spawn(move || server.shutdown());

    let mut answered = Vec::new();
    for _ in 0..total {
        let resp = client.recv().expect("every buffered request is answered");
        assert!(
            matches!(resp.reply, Reply::Error(WireError::ShuttingDown)),
            "id {} got {:?}",
            resp.id,
            resp.reply
        );
        answered.push(resp.id);
    }
    assert_eq!(answered, sent, "answered in order, none dropped");
    shutdown.join().unwrap();
    drop(guard);
}

/// The randomized soak: a probabilistic schedule over every layer's
/// sites at once. Whatever fires, each retry-wrapped request must end
/// in the bit-identical correct report or a typed error. CI runs this
/// with a pinned seed in the matrix plus a randomized-seed soak job.
#[test]
fn soak_any_schedule_yields_correct_report_or_typed_error() {
    let _serial = serial();
    let seed = chaos::seed_from_env(0xC0FFEE);
    let server = NetServer::with_defaults("127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let fp = client.register(&hardcore_spec(12)).unwrap();

    let guard = chaos::arm(
        Plan::new(seed)
            .with(
                "net.write_delay",
                Trigger::Prob(0.2),
                Fault::Delay(Duration::from_millis(1)),
            )
            .with("net.conn_reset", Trigger::Prob(0.25), Fault::Reset)
            .with(
                "net.write_torn",
                Trigger::Prob(0.1),
                Fault::TornWrite { keep: 3 },
            )
            .with(
                "serve.queue_stall",
                Trigger::Prob(0.2),
                Fault::Delay(Duration::from_millis(2)),
            )
            .with(
                "engine.oracle_error",
                Trigger::Prob(0.1),
                Fault::Error("soak".into()),
            ),
    );
    let policy = RetryPolicy {
        seed,
        ..RetryPolicy::default()
    };
    let mut completed = Vec::new();
    for seed in 0..16u64 {
        match client.run_retrying(fp, Task::SampleExact, seed, &policy) {
            Ok(report) => completed.push((seed, report)),
            // terminal server-side errors and exhausted transient
            // retries are both typed, acceptable endings
            Err(ClientError::Server(_)) => {}
            Err(ClientError::Io(_) | ClientError::Frame(_)) => {
                // the connection may be mid-reset; next iteration re-dials
                let _ = client.reconnect();
            }
            Err(other) => panic!("seed {seed}: untyped ending {other:?}"),
        }
    }
    drop(guard);
    server.shutdown();

    let direct = hardcore_spec(12).build().unwrap();
    for (seed, report) in &completed {
        let expect = direct.run_with_seed(Task::SampleExact, *seed).unwrap();
        assert_same_answer(
            report,
            &expect,
            &format!(
                "soak seed {seed} (chaos seed {}): wrong answer under faults",
                seed
            ),
        );
    }
}

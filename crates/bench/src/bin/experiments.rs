//! The experiment harness: regenerates every quantitative claim of the
//! paper as one table per experiment, each captioned with the claim it
//! checks.
//!
//! Usage: `cargo run -p lds-bench --bin experiments --release [-- <ids>]`
//! where `<ids>` is a subset of `e1 e2 e3 e4 e5 e6a e6b e6c e6d e6e e7 e8
//! s1 s2` (default: all).

use lds_bench::{d, f, workloads, Table};
use lds_core::complexity;
use lds_core::jvv::{self, LocalJvv};
use lds_core::sampler::{self, SequentialSampler};
use lds_core::sampling_to_inference;
use lds_engine::{Engine, ModelSpec, Task};
use lds_gibbs::models::two_spin::TwoSpinParams;
use lds_gibbs::models::{coloring, hardcore, matching::MatchingInstance};
use lds_gibbs::{distribution, metrics, Config, PartialConfig};
use lds_graph::{ordering, NodeId};
use lds_localnet::decomposition::{linial_saks, DecompositionParams};
use lds_localnet::slocal::run_scan_sequential;
use lds_localnet::{scheduler, Instance, Network};
use lds_oracle::{BoostedOracle, DecayRate, EnumerationOracle, Oracle, Target, TwoSpinSawOracle};
use lds_runtime::{CancelToken, ThreadPool};
use lds_ssm::{correlation, estimator, phase, rate};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn saw(lambda: f64, alpha: f64) -> TwoSpinSawOracle {
    TwoSpinSawOracle::new(TwoSpinParams::hardcore(lambda), DecayRate::new(alpha, 2.0))
}

/// E1 — Theorem 3.2: approximate inference ⟹ approximate sampling.
fn e1() {
    let mut t = Table::new(
        "E1  Inference => Sampling (Theorem 3.2)",
        "Hardcore λ=1 on cycles. Sampler error must be ≤ δ; rounds are the \
         simulated LOCAL cost O(t(n, δ/n)·log² n) of Lemma 3.1. TV is the \
         joint empirical-vs-exact distance (5000 runs; n ≤ 8 only).",
        &[
            "graph",
            "n",
            "delta",
            "t(n,d/n)",
            "rounds",
            "colors",
            "TV(joint)",
        ],
    );
    for &n in &[8usize, 16, 32] {
        for &delta in &[0.2f64, 0.05] {
            let g = workloads::cycle(n);
            let model = hardcore::model(&g, 1.0);
            let oracle = saw(1.0, 0.5);
            let tt = oracle.radius(&model, Target::Tv(delta / n as f64));
            let net = Network::new(Instance::unconditioned(model.clone()), 17);
            let sampler = SequentialSampler::new(&oracle, delta);
            let never = CancelToken::never();
            let schedule = scheduler::chromatic_schedule(&net, sampler.locality(&model), 0);
            let run = sampler::sample_local(&net, &oracle, delta, &schedule, &never)
                .expect("never cancelled")
                .run;
            let colors = schedule.colors;
            let tv = if n <= 8 {
                let trials = 5000usize;
                let mut samples = Vec::with_capacity(trials);
                for seed in 0..trials as u64 {
                    let rnet = Network::new(Instance::unconditioned(model.clone()), seed);
                    let r = run_scan_sequential(&rnet, &sampler, &ordering::identity(&g), &never)
                        .expect("never cancelled");
                    samples.push(Config::from_values(r.outputs));
                }
                let emp = metrics::empirical_distribution(&samples);
                let exact =
                    distribution::joint_distribution(&model, &PartialConfig::empty(n)).unwrap();
                f(metrics::tv_distance_joint(&emp, &exact))
            } else {
                "-".into()
            };
            t.row(vec![
                "cycle".into(),
                d(n),
                f(delta),
                d(tt),
                d(run.rounds),
                d(colors),
                tv,
            ]);
        }
    }
    t.print();
}

/// E2 — Theorem 3.4: approximate sampling ⟹ approximate inference.
fn e2() {
    let mut t = Table::new(
        "E2  Sampling => Inference (Theorem 3.4)",
        "Marginals reconstructed from repeated LOCAL sampler executions \
         (Monte Carlo in place of the paper's exact enumeration of random \
         bits). Error bound: δ + ε₀ + sampling noise.",
        &[
            "graph",
            "n",
            "delta",
            "reps",
            "fail rate e0",
            "max node TV err",
            "bound",
        ],
    );
    for &(n, delta, reps) in &[(6usize, 0.05f64, 4000usize), (8, 0.1, 3000)] {
        let g = workloads::cycle(n);
        let model = hardcore::model(&g, 1.0);
        let net = Network::new(Instance::unconditioned(model.clone()), 23);
        let oracle = saw(1.0, 0.5);
        let res = sampling_to_inference::marginals_by_sampling(
            &net,
            &oracle,
            delta,
            reps,
            5,
            &ThreadPool::sequential(),
        );
        let tau = PartialConfig::empty(n);
        let mut worst = 0.0f64;
        for v in g.nodes() {
            let exact = distribution::marginal(&model, &tau, v).unwrap();
            worst = worst.max(metrics::tv_distance(&exact, &res.marginals[v.index()]));
        }
        let noise = (1.0 / reps as f64).sqrt() * 2.0;
        t.row(vec![
            "cycle".into(),
            d(n),
            f(delta),
            d(reps),
            f(res.failure_rate),
            f(worst),
            f(delta + res.failure_rate + noise),
        ]);
    }
    t.print();
}

/// E3 — Lemma 4.1: additive → multiplicative boosting.
fn e3() {
    let mut t = Table::new(
        "E3  Boosting lemma (Lemma 4.1)",
        "Hardcore on C12 and 4x4 torus. The boosted oracle must achieve \
         multiplicative error ≤ ε given a base oracle with additive error \
         ε/(5qn). err = max_c |ln μ̂(c) − ln μ(c)| at the probe vertex.",
        &["graph", "lambda", "eps", "inner t", "measured err", "ok"],
    );
    let cases: Vec<(&str, lds_graph::Graph, f64)> = vec![
        ("cycle12", workloads::cycle(12), 1.0),
        ("torus4x4", workloads::torus(4), 0.8),
    ];
    for (name, g, lambda) in cases {
        let n = g.node_count();
        let model = hardcore::model(&g, lambda);
        let tau = PartialConfig::empty(n);
        let exact = distribution::marginal(&model, &tau, NodeId(0)).unwrap();
        let boosted = BoostedOracle::new(saw(lambda, 0.5));
        for &eps in &[0.5f64, 0.2, 0.1] {
            let est = boosted.query(&model, &tau, NodeId(0), Target::Mul(eps));
            let err = metrics::multiplicative_err(&exact, &est);
            t.row(vec![
                name.into(),
                f(lambda),
                f(eps),
                d(boosted.inner_radius(&model, eps)),
                f(err),
                d(err <= eps),
            ]);
        }
    }
    t.print();
}

/// E4 — Theorem 4.2: the distributed JVV exact sampler.
fn e4() {
    let mut t = Table::new(
        "E4  Distributed JVV exact sampling (Theorem 4.2)",
        "Hardcore λ=1 on cycles, 4000 runs each. Conditioned on success the \
         output must follow μ exactly (TV ≈ Monte Carlo noise); success \
         rate ≥ e^{−5n²ε}. ε = 1/n³ (the paper's instantiation).",
        &[
            "n",
            "eps",
            "runs",
            "success rate",
            "bound",
            "TV(accepted)",
            "clamped",
        ],
    );
    for &n in &[5usize, 6, 7, 8] {
        let g = workloads::cycle(n);
        let model = hardcore::model(&g, 1.0);
        let eps = LocalJvv::<BoostedOracle<TwoSpinSawOracle>>::paper_epsilon(n);
        let oracle = BoostedOracle::new(saw(1.0, 0.5));
        let jvv = LocalJvv::new(&oracle, eps);
        let runs = 4000usize;
        let mut accepted = Vec::new();
        let mut clamped = 0usize;
        for seed in 0..runs as u64 {
            let net = Network::new(Instance::unconditioned(model.clone()), seed);
            let (out, _) = jvv
                .run(&net, &ordering::identity(&g), &CancelToken::never())
                .expect("never cancelled");
            clamped += out.stats.clamped;
            if out.run.succeeded() {
                accepted.push(Config::from_values(out.run.outputs));
            }
        }
        let success = accepted.len() as f64 / runs as f64;
        let emp = metrics::empirical_distribution(&accepted);
        let exact = distribution::joint_distribution(&model, &PartialConfig::empty(n)).unwrap();
        let tv = metrics::tv_distance_joint(&emp, &exact);
        t.row(vec![
            d(n),
            format!("{eps:.2e}"),
            d(runs),
            f(success),
            f(jvv.success_lower_bound(n)),
            f(tv),
            d(clamped),
        ]);
    }
    t.print();
}

/// E5 — Theorem 5.1: SSM ⟺ approximate inference.
fn e5() {
    let mut t = Table::new(
        "E5  SSM <=> Inference (Theorem 5.1)",
        "Hardcore on C16. Left: the enumeration oracle (SSM ⟹ inference) \
         achieves error ≤ the planned bound c·αᵗ at every radius. Right: the \
         measured SSM gap series fits an exponential with rate ≈ theory.",
        &[
            "lambda",
            "t",
            "bound c*a^t",
            "measured err",
            "fitted alpha",
            "theory alpha",
        ],
    );
    for &lambda in &[0.5f64, 1.0, 1.5] {
        let g = workloads::cycle(16);
        let model = hardcore::model(&g, lambda);
        let tau = PartialConfig::empty(16);
        let exact = distribution::marginal(&model, &tau, NodeId(0)).unwrap();
        let series = estimator::boundary_gap_series(
            &model,
            NodeId(0),
            lds_gibbs::Value(0),
            lds_gibbs::Value(1),
            7,
        );
        let fitted = rate::fit_rate(&series).map(|r| r.alpha).unwrap_or(f64::NAN);
        let theory = complexity::hardcore_decay_rate(lambda, 2);
        let planned = DecayRate::new(0.6, 2.0);
        let oracle = EnumerationOracle::new(planned);
        for &tt in &[2usize, 4, 6] {
            let est = oracle.marginal_with_frontier(&model, &tau, NodeId(0), tt).0;
            let err = metrics::tv_distance(&exact, &est);
            t.row(vec![
                f(lambda),
                d(tt),
                f(planned.error_at(tt)),
                f(err),
                f(fitted),
                f(theory),
            ]);
        }
    }
    t.print();
}

/// E6a — Corollary 5.3: matchings in O(√Δ·log³ n) rounds.
fn e6a() {
    let mut t = Table::new(
        "E6a  Matchings sampler rounds (Corollary 5.3)",
        "Monomer-dimer λ=1 on random Δ-regular graphs (n=24). Rounds are \
         the simulated JVV schedule cost on the line graph. Every locality \
         here exceeds the line graph's diameter, and the schedule caps the \
         locality at the diameter, so the rounds column measures that cap, \
         not the paper's √Δ·log³ n shape: rounds follow the diameter, which \
         shrinks as Δ grows, so rounds/bound falls with Δ.",
        &[
            "Delta",
            "n(line)",
            "rate",
            "locality",
            "rounds",
            "bound",
            "rounds/bound",
        ],
    );
    for &delta in &[3usize, 4, 5, 6] {
        let n = 24usize;
        let g = workloads::regular(n, delta, 7);
        let inst = MatchingInstance::new(&g, 1.0);
        let alpha = complexity::matching_decay_rate(1.0, delta);
        let oracle = saw(1.0, alpha.min(0.95));
        let eps = 0.05f64;
        let model = inst.model().clone();
        let locality = jvv::LocalJvv::new(&oracle, eps).locality(&model);
        let net = Network::new(Instance::unconditioned(model.clone()), 3);
        let rounds = (0..5)
            .map(|s| scheduler::chromatic_schedule(&net, locality, s).rounds)
            .sum::<usize>()
            / 5;
        let bound = complexity::matchings_rounds_bound(delta, model.node_count(), 1.0);
        t.row(vec![
            d(delta),
            d(model.node_count()),
            f(alpha),
            d(locality),
            d(rounds),
            f(bound),
            f(rounds as f64 / bound),
        ]);
    }
    t.print();
    // one full small-instance validation run at the paper's ε = 1/n³
    let g = workloads::regular(8, 3, 1);
    let n_line = g.edge_count();
    let eps = LocalJvv::<TwoSpinSawOracle>::paper_epsilon(n_line);
    let engine = Engine::builder()
        .model(ModelSpec::Matching { lambda: 1.0 })
        .graph(g.clone())
        .epsilon(eps)
        .build()
        .expect("matchings always in regime");
    let out = engine
        .run_with_seed(Task::SampleExact, 9)
        .expect("valid task");
    println!(
        "validation: full JVV matching run on 8-node 3-regular graph: \
         feasible={} rounds={} acceptance={:.3}",
        MatchingInstance::new(&g, 1.0).is_matching(out.matching_edges().expect("decode")),
        out.rounds,
        out.acceptance().expect("exact run")
    );
}

/// E6b — Corollary 5.3: hardcore in O(log³ n) rounds below λ_c.
fn e6b() {
    let mut t = Table::new(
        "E6b  Hardcore sampler rounds below uniqueness (Corollary 5.3)",
        "λ = 0.8·λ_c(4) on tori. Rounds vs the O(log³ n) bound. The \
         locality exceeds every torus's diameter, and the schedule caps the \
         locality at the diameter, so the rounds column measures that cap \
         (the schedule of a whole-graph gather), not the O(log³ n) shape.",
        &[
            "n",
            "rate",
            "locality",
            "rounds",
            "log^3 n",
            "rounds/log^3 n",
        ],
    );
    let lambda = 0.8 * complexity::hardcore_uniqueness_threshold(4);
    let alpha = complexity::hardcore_decay_rate(lambda, 4);
    for &side in &[4usize, 6, 8, 10] {
        let g = workloads::torus(side);
        let n = g.node_count();
        let model = hardcore::model(&g, lambda);
        let oracle = saw(lambda, alpha.min(0.95));
        let eps = 0.05f64;
        let locality = jvv::LocalJvv::new(&oracle, eps).locality(&model);
        let net = Network::new(Instance::unconditioned(model), 3);
        let rounds = (0..5)
            .map(|s| scheduler::chromatic_schedule(&net, locality, s).rounds)
            .sum::<usize>()
            / 5;
        let bound = complexity::log3_rounds_bound(n, 1.0);
        t.row(vec![
            d(n),
            f(alpha),
            d(locality),
            d(rounds),
            f(bound),
            f(rounds as f64 / bound),
        ]);
    }
    t.print();
    // full validation on a cycle at the paper's ε = 1/n³
    let g = workloads::cycle(10);
    let run = Engine::builder()
        .model(ModelSpec::Hardcore { lambda: 1.0 })
        .graph(g.clone())
        .epsilon(LocalJvv::<TwoSpinSawOracle>::paper_epsilon(10))
        .build()
        .expect("in regime")
        .run_with_seed(Task::SampleExact, 4)
        .expect("valid task");
    println!(
        "validation: full JVV hardcore run on C10: feasible={} rounds={}",
        hardcore::is_independent_set(&g, run.config().expect("sampling run")),
        run.rounds
    );
}

/// E6c — Corollary 5.3: colorings of triangle-free graphs, q ≥ 2Δ.
fn e6c() {
    let mut t = Table::new(
        "E6c  Colorings of triangle-free graphs (Corollary 5.3)",
        "q = 2Δ ≥ α*·Δ colorings. Full JVV runs on cycles (enumeration \
         oracle); proper = output is a proper coloring.",
        &["graph", "n", "q", "rate", "rounds", "proper", "success /5"],
    );
    for &n in &[5usize, 6, 8] {
        let g = workloads::cycle(n);
        let eps = LocalJvv::<TwoSpinSawOracle>::paper_epsilon(n);
        let engine = Engine::builder()
            .model(ModelSpec::Coloring { q: 4 })
            .graph(g.clone())
            .epsilon(eps)
            .build()
            .expect("q = 4 > α*·2 on cycles");
        let mut rounds = 0usize;
        let mut proper = true;
        let mut successes = 0usize;
        for run in engine
            .run_batch(Task::SampleExact, &[0, 1, 2, 3, 4])
            .expect("valid task")
        {
            rounds = rounds.max(run.rounds);
            proper &= coloring::is_proper(&g, run.config().expect("sampling run"));
            successes += run.succeeded as usize;
        }
        t.row(vec![
            "cycle".into(),
            d(n),
            d(4),
            f(complexity::coloring_decay_rate(4, 2)),
            d(rounds),
            d(proper),
            d(successes),
        ]);
    }
    t.print();
}

/// E6d — Corollary 5.3: antiferromagnetic Ising in uniqueness.
fn e6d() {
    let mut t = Table::new(
        "E6d  Antiferromagnetic Ising (Corollary 5.3)",
        "Ising on C12 across β; rate column is the Δ=4 reference contraction \
         (cycles always unique); samples stay feasible.",
        &["beta", "rate(Δ=4 ref)", "in regime", "rounds", "feasible"],
    );
    let g = workloads::cycle(12);
    for &beta in &[-0.1f64, -0.3, -0.6] {
        let params = lds_gibbs::models::ising::IsingParams::new(beta, 0.0).to_two_spin();
        let rate4 = complexity::ising_decay_rate(beta, 4);
        let rate2 = complexity::ising_decay_rate(beta, 2);
        let eps = LocalJvv::<TwoSpinSawOracle>::paper_epsilon(12);
        let built = Engine::builder()
            .model(ModelSpec::TwoSpin {
                beta: params.beta,
                gamma: params.gamma,
                lambda: params.lambda,
                rate: rate2.clamp(0.05, 0.9),
            })
            .graph(g.clone())
            .epsilon(eps)
            .build();
        match built.and_then(|e| e.run_with_seed(Task::SampleExact, 3)) {
            Ok(run) => {
                let m = lds_gibbs::models::two_spin::model(&g, params);
                t.row(vec![
                    f(beta),
                    f(rate4),
                    d(true),
                    d(run.rounds),
                    d(m.weight(run.config().expect("sampling run")) > 0.0),
                ]);
            }
            Err(e) => {
                t.row(vec![f(beta), f(rate4), d(false), e.to_string(), "-".into()]);
            }
        }
    }
    t.print();
}

/// E6e — Corollary 5.3: weighted hypergraph matchings.
fn e6e() {
    let mut t = Table::new(
        "E6e  Hypergraph matchings below λ_c(r,Δ) (Corollary 5.3)",
        "Random 3-uniform hypergraphs, λ = 0.5·λ_c(3,Δ). Output must be a \
         set of pairwise disjoint hyperedges.",
        &[
            "n(V)",
            "m(edges)",
            "lambda",
            "rounds",
            "matching",
            "success /5",
        ],
    );
    for &(nv, m) in &[(9usize, 6usize), (12, 8)] {
        let h = lds_graph::Hypergraph::random_uniform(nv, m, 3, &mut StdRng::seed_from_u64(11));
        let delta = h.max_degree().max(3);
        let lambda = 0.5 * complexity::hypergraph_matching_threshold(3, delta);
        let eps = LocalJvv::<TwoSpinSawOracle>::paper_epsilon(m);
        let inst =
            lds_gibbs::models::hypergraph_matching::HypergraphMatchingInstance::new(&h, lambda);
        let mut rounds = 0usize;
        let mut valid = true;
        let mut successes = 0usize;
        match Engine::builder()
            .model(ModelSpec::HypergraphMatching { lambda })
            .hypergraph(h.clone())
            .epsilon(eps)
            .build()
            .and_then(|e| e.run_batch(Task::SampleExact, &[0, 1, 2, 3, 4]))
        {
            Ok(outs) => {
                for out in outs {
                    rounds = rounds.max(out.rounds);
                    valid &= inst.is_matching(out.hyperedges().expect("decode"));
                    successes += out.succeeded as usize;
                }
            }
            Err(_) => valid = false,
        }
        t.row(vec![
            d(nv),
            d(m),
            f(lambda),
            d(rounds),
            d(valid),
            d(successes),
        ]);
    }
    t.print();
}

/// E7 — the computational phase transition (headline figure).
fn e7() {
    let mut t = Table::new(
        "E7  Computational phase transition at λ_c(Δ) (headline figure)",
        "Hardcore on the Δ-regular tree (Δ=4, λ_c=27/16): fitted SSM rate, \
         decay length, limiting boundary gap and the radius needed for \
         inference error 0.01. Below λ_c: finite radius (tractable). Above: \
         persistent gap ⟹ infinite radius (Ω(diam), Feng–Sun–Yin).",
        &[
            "lambda/lc",
            "lambda",
            "fitted alpha",
            "theory alpha",
            "decay len",
            "limit gap",
            "radius(0.01)",
            "regime",
        ],
    );
    let ratios = [0.2, 0.4, 0.6, 0.8, 0.9, 1.0, 1.1, 1.3, 1.7, 2.2, 3.0];
    for p in phase::hardcore_tree_sweep(4, &ratios, 400) {
        let (alpha, dlen) = match &p.fitted {
            Some(fr) => (f(fr.alpha), f(fr.decay_length())),
            None => ("-".into(), "-".into()),
        };
        t.row(vec![
            f(p.lambda_ratio),
            f(p.lambda),
            alpha,
            f(p.theory_rate),
            dlen,
            format!("{:.2e}", p.limiting_gap),
            f(p.required_radius),
            if p.unique {
                "unique".into()
            } else {
                "NON-unique".into()
            },
        ]);
    }
    t.print();
}

/// E8 — the Ω(diam) lower-bound witness.
fn e8() {
    let mut t = Table::new(
        "E8  Long-range correlation lower bound (Feng–Sun–Yin + Section 5)",
        "Any radius-t LOCAL algorithm errs by ≥ gap/2 when the boundary at \
         distance > t carries gap. Below λ_c the required radius is finite \
         and grows toward the threshold; above λ_c no finite radius works \
         (the Ω(diam) conclusion). Tree Δ=4, depth 300, target ε=0.01.",
        &[
            "lambda/lc",
            "limiting gap",
            "error floor",
            "min radius(e=0.01)",
            "regime",
        ],
    );
    let lc = complexity::hardcore_uniqueness_threshold(4);
    for &ratio in &[0.4f64, 0.7, 0.9, 1.2, 2.0, 3.0] {
        let lambda = ratio * lc;
        let gap = correlation::limiting_tree_gap(4, lambda, 300);
        let gaps: Vec<f64> = estimator::tree_gap_series(3, lambda, 300)
            .iter()
            .map(|p| p.gap)
            .collect();
        let min_r = correlation::min_radius_for_error(&gaps, 0.01);
        t.row(vec![
            f(ratio),
            format!("{:.2e}", gap),
            format!("{:.2e}", correlation::error_floor(gap)),
            min_r.map_or("inf (>= diam)".into(), d),
            format!("{:?}", correlation::classify(4, lambda)),
        ]);
    }
    t.print();
}

/// S1 — substrate sanity: network decomposition quality.
fn s1() {
    let mut t = Table::new(
        "S1  Network decomposition quality (Lemma 3.1 substrate)",
        "Linial–Saks on various graphs: colors and weak radius must track \
         O(log n); failures must be rare (5 seeds each).",
        &[
            "graph",
            "n",
            "colors(max)",
            "weak radius(max)",
            "cap 8log+8",
            "failures",
        ],
    );
    let cases: Vec<(&str, lds_graph::Graph)> = vec![
        ("torus5", workloads::torus(5)),
        ("torus8", workloads::torus(8)),
        ("torus12", workloads::torus(12)),
        ("regular4-64", workloads::regular(64, 4, 2)),
        ("regular4-256", workloads::regular(256, 4, 2)),
    ];
    for (name, g) in cases {
        let n = g.node_count();
        let params = DecompositionParams::for_size(n);
        let mut colors = 0usize;
        let mut radius = 0usize;
        let mut failures = 0usize;
        for seed in 0..5u64 {
            let dec = linial_saks(&g, params, &mut StdRng::seed_from_u64(seed));
            colors = colors.max(dec.colors);
            radius = radius.max(dec.max_weak_radius(&g));
            failures += dec.failed.iter().filter(|&&x| x).count();
        }
        t.row(vec![
            name.into(),
            d(n),
            d(colors),
            d(radius),
            d(params.color_cap),
            d(failures),
        ]);
    }
    t.print();
}

/// S2 — substrate sanity: oracle accuracy and throughput.
fn s2() {
    let mut t = Table::new(
        "S2  Oracle accuracy/throughput (SAW vs enumeration)",
        "Hardcore λ=1 on the 4x4 torus, probe node 5. Exact marginal from \
         global enumeration; per-call latency in microseconds.",
        &["oracle", "t", "TV err", "certified gap", "latency (us)"],
    );
    let g = workloads::torus(4);
    let model = hardcore::model(&g, 1.0);
    let tau = PartialConfig::empty(16);
    let exact = distribution::marginal(&model, &tau, NodeId(5)).unwrap();
    let sawo = saw(1.0, 0.5);
    for &tt in &[2usize, 4, 6] {
        let start = Instant::now();
        let b = sawo.marginal_bounds(&g, &tau, NodeId(5), tt);
        let lat = start.elapsed().as_micros();
        let est = [1.0 - b.midpoint(), b.midpoint()];
        t.row(vec![
            "saw".into(),
            d(tt),
            f(metrics::tv_distance(&exact, &est)),
            f(b.gap()),
            d(lat),
        ]);
    }
    let enumo = EnumerationOracle::new(DecayRate::new(0.5, 2.0));
    for &tt in &[1usize, 2] {
        let start = Instant::now();
        let est = enumo.marginal_with_frontier(&model, &tau, NodeId(5), tt).0;
        let lat = start.elapsed().as_micros();
        t.row(vec![
            "enumeration".into(),
            d(tt),
            f(metrics::tv_distance(&exact, &est)),
            "-".into(),
            d(lat),
        ]);
    }
    t.print();

    // JVV acceptance sanity appended to S2
    let g = workloads::cycle(7);
    let model = hardcore::model(&g, 1.0);
    let oracle = BoostedOracle::new(saw(1.0, 0.5));
    let net = Network::new(Instance::unconditioned(model), 3);
    let locality = jvv::LocalJvv::new(&oracle, 0.01).locality(net.instance().model());
    let schedule = scheduler::chromatic_schedule(&net, locality, 0);
    let out = jvv::sample_exact_local(&net, &oracle, 0.01, &schedule, &CancelToken::never())
        .expect("never cancelled");
    let stats = out.jvv.expect("exact sampling reports JVV stats");
    println!(
        "JVV sanity on C7: rounds={} locality={} acceptance={:.3} clamped={}",
        out.run.rounds, stats.locality, stats.acceptance_product, stats.clamped
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = args.is_empty() || args.iter().any(|a| a == "all");
    let want = |id: &str| all || args.iter().any(|a| a == id);
    println!("# lds experiment harness — reproduction of Feng & Yin (PODC 2018)");
    let t0 = Instant::now();
    if want("e1") {
        e1();
    }
    if want("e2") {
        e2();
    }
    if want("e3") {
        e3();
    }
    if want("e4") {
        e4();
    }
    if want("e5") {
        e5();
    }
    if want("e6a") {
        e6a();
    }
    if want("e6b") {
        e6b();
    }
    if want("e6c") {
        e6c();
    }
    if want("e6d") {
        e6d();
    }
    if want("e6e") {
        e6e();
    }
    if want("e7") {
        e7();
    }
    if want("e8") {
        e8();
    }
    if want("s1") {
        s1();
    }
    if want("s2") {
        s2();
    }
    println!("\ntotal wall time: {:.1?}", t0.elapsed());
}

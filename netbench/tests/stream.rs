//! The request-stream generator: deterministic per `(workload, seed)`,
//! and its realized task and hot/fresh shares match the weights that
//! `BENCHMARK.json` declares for each workload.

use std::collections::{BTreeMap, HashSet};

use lds_netbench::workload::{Class, Request, Workload, CLIENTS, WORKLOADS};

const BENCHMARK_JSON: &str =
    include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));

fn stream(w: &Workload, seed: u64, client: usize, len: u64) -> Vec<Request> {
    (0..len).map(|i| w.request(seed, client, i)).collect()
}

/// The `why` string of a workload in `BENCHMARK.json`.
fn declared_why(name: &str) -> &'static str {
    let at = BENCHMARK_JSON
        .find(&format!("\"name\": \"{name}\""))
        .unwrap_or_else(|| panic!("{name} is not in BENCHMARK.json"));
    let rest = &BENCHMARK_JSON[at..];
    let why = &rest[rest.find("\"why\": \"").expect("a why after the name") + 8..];
    &why[..why.find('"').expect("a closing quote")]
}

/// The `key=N%` weights a `why` string declares.
fn declared_weights(why: &str) -> BTreeMap<String, u32> {
    why.split(|c: char| c.is_whitespace() || c == ',' || c == ';' || c == ':')
        .filter_map(|token| {
            let (key, pct) = token.split_once('=')?;
            Some((key.to_owned(), pct.strip_suffix('%')?.parse().ok()?))
        })
        .collect()
}

#[test]
fn same_seed_same_stream_other_seed_other_stream() {
    for w in &WORKLOADS {
        for client in 0..CLIENTS {
            let a = stream(w, 7, client, 2000);
            assert_eq!(a, stream(w, 7, client, 2000), "{}: replay differs", w.name);
            let b = stream(w, 8, client, 2000);
            let same = a.iter().zip(&b).filter(|(x, y)| x == y).count();
            assert!(
                same < 20,
                "{}: seeds 7 and 8 share {same} of 2000 requests",
                w.name
            );
        }
        let (c0, c1) = (stream(w, 7, 0, 2000), stream(w, 7, 1, 2000));
        assert_ne!(c0, c1, "{}: the two clients send the same stream", w.name);
    }
}

#[test]
fn hot_keys_come_from_the_warmed_set_and_fresh_seeds_never_repeat() {
    for w in &WORKLOADS {
        let hot: HashSet<u64> = (0..w.hot_keys).map(|k| w.hot_seed(3, k)).collect();
        let mut fresh = HashSet::new();
        for client in 0..CLIENTS {
            for r in stream(w, 3, client, 20_000) {
                if r.hot {
                    assert!(
                        hot.contains(&r.seed),
                        "{}: hot seed outside the set",
                        w.name
                    );
                    assert_eq!(r.class, Class::SampleExact);
                } else {
                    assert!(
                        !hot.contains(&r.seed),
                        "{}: fresh seed in the hot set",
                        w.name
                    );
                    assert!(fresh.insert(r.seed), "{}: fresh seed repeated", w.name);
                }
            }
        }
    }
}

#[test]
fn realized_shares_match_the_declared_weights() {
    const PER_CLIENT: u64 = 25_000;
    // `net-hot-replay` runs by hand only (see DESIGN.md), so
    // `BENCHMARK.json` does not declare it
    let declared = |w: &&Workload| BENCHMARK_JSON.contains(&format!("\"name\": \"{}\"", w.name));
    assert_eq!(WORKLOADS.iter().filter(declared).count(), 2);
    for w in WORKLOADS.iter().filter(declared) {
        let declared = declared_weights(declared_why(w.name));
        // what the code runs is what the benchmark declares
        let hot = declared.get("hot").copied().unwrap_or(0);
        assert_eq!(hot, w.hot_percent, "{}: hot share", w.name);
        assert_eq!(
            declared.get("fresh").copied(),
            Some(100 - hot),
            "{}: fresh share",
            w.name
        );
        for &(class, weight) in w.mix {
            assert_eq!(
                declared.get(class.name()).copied(),
                Some(weight),
                "{}: weight of {}",
                w.name,
                class.name()
            );
        }
        let declared_classes = Class::ALL
            .iter()
            .filter(|c| declared.contains_key(c.name()))
            .count();
        assert_eq!(
            declared_classes,
            w.mix.len(),
            "{}: undeclared classes",
            w.name
        );

        // and the generator realizes those weights: among fresh
        // requests for the task mix, over all requests for the hot share
        let requests: Vec<Request> = (0..CLIENTS)
            .flat_map(|c| stream(w, 11, c, PER_CLIENT))
            .collect();
        let total = requests.len() as f64;
        let hot_share = requests.iter().filter(|r| r.hot).count() as f64 / total;
        assert!(
            (hot_share - f64::from(w.hot_percent) / 100.0).abs() < 0.01,
            "{}: hot share {hot_share}",
            w.name
        );
        let fresh: Vec<&Request> = requests.iter().filter(|r| !r.hot).collect();
        for &(class, weight) in w.mix {
            let share =
                fresh.iter().filter(|r| r.class == class).count() as f64 / fresh.len() as f64;
            assert!(
                (share - f64::from(weight) / 100.0).abs() < 0.015,
                "{}: {} share {share}, declared {weight}%",
                w.name,
                class.name()
            );
        }
    }
}

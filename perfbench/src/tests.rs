//! Tests of the benchmark itself: input determinism, what-if freshness and
//! a smoke-size run of every workload.

use crate::report::Provenance;
use crate::{instrument, serve, train, Args, END_TO_END, PER_LAYER, WORKLOADS};
use routenet::entities::PlanConfig;
use routenet::plan_cache::sample_fingerprint;
use routenet::{ExtendedRouteNet, PathPredictor};
use std::collections::HashSet;

fn smoke_args(workload: &str, trace: bool) -> Args {
    Args {
        workload: workload.into(),
        seed: 7,
        seconds: 0.3,
        trace,
        smoke: true,
    }
}

#[test]
fn cli_parses_the_four_flags_and_rejects_the_rest() {
    let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let a = Args::parse(&argv(
        "--workload serve_fresh --seed 3 --seconds 10 --trace 1",
    ))
    .unwrap();
    assert_eq!(
        (a.workload.as_str(), a.seed, a.seconds, a.trace),
        ("serve_fresh", 3, 10.0, true)
    );
    assert!(!a.smoke);
    assert!(Args::parse(&argv("--workload nope --seed 3 --seconds 10 --trace 0")).is_err());
    assert!(Args::parse(&argv("--workload serve_fresh --seconds 10 --trace 0")).is_err());
    assert!(Args::parse(&argv(
        "--workload serve_fresh --seed 3 --seconds 0 --trace 0"
    ))
    .is_err());
    assert!(Args::parse(&argv(
        "--workload serve_fresh --seed 3 --seconds 1 --trace 2"
    ))
    .is_err());
    assert!(Args::parse(&argv("--workload serve_fresh --seed 3 --seconds")).is_err());
}

#[test]
fn the_same_seed_gives_the_same_inputs_and_digests() {
    let spec = || train::TrainSpec {
        train_samples: 3,
        heldout_samples: 2,
        ..train::qos_nsfnet_spec()
    };
    let digest = |seed| {
        let inputs = train::generate_inputs(&spec(), seed);
        let json = serde_json::to_string(&inputs.train.samples).unwrap();
        let digest =
            instrument::label_digest(inputs.train.samples.iter().chain(&inputs.heldout.samples));
        (json, digest)
    };
    let (a_json, a) = digest(5);
    let (b_json, b) = digest(5);
    let (_, c) = digest(6);
    assert_eq!(a_json, b_json, "same seed, same training samples");
    assert_eq!(a, b, "same seed, same label digest");
    assert_ne!(a, c, "another seed simulates other labels");

    let base = serve::scenarios(5, 3);
    assert_eq!(
        instrument::label_digest(&base.samples),
        instrument::label_digest(&serve::scenarios(5, 3).samples)
    );
    let v = |seed, k| serde_json::to_string(&serve::fresh_variant(&base.samples, seed, k)).unwrap();
    assert_eq!(
        v(5, 11),
        v(5, 11),
        "variants are a function of (seed, index)"
    );
    assert_ne!(v(5, 11), v(6, 11));
}

#[test]
fn serve_fresh_fingerprints_are_all_distinct() {
    let base = serve::scenarios(9, 4);
    let mut model = ExtendedRouteNet::new(train::model_config(&smoke_args("serve_fresh", false)));
    model.fit_preprocessing(&base, 10);
    let (scales, normalizer) = model.preprocessing();
    let config = PlanConfig::new(model.config(), scales, normalizer);
    let mut seen = HashSet::new();
    for s in &base.samples {
        seen.insert(sample_fingerprint(s, &config));
    }
    let n = 2_000;
    for k in 0..n {
        let variant = serve::fresh_variant(&base.samples, 9, k);
        assert!(
            seen.insert(sample_fingerprint(&variant, &config)),
            "variant {k} repeats a fingerprint"
        );
    }
    assert_eq!(seen.len(), n + base.samples.len());
}

/// One test runs every workload in both modes: tracing is a process-wide
/// switch, so concurrent workload runs would see each other's state.
#[test]
fn a_smoke_run_of_every_workload_finishes_without_failures() {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let args = smoke_args(workload, trace);
            let mut prov = Provenance::host();
            let report = crate::run(&args, &mut prov);
            assert!(report.attempted > 0, "{workload}: nothing attempted");
            assert_eq!(report.failed, 0, "{workload}: failures");
            assert!(report.correct(), "{workload}: {:?}", report.violations);
            let expected = if trace { PER_LAYER } else { END_TO_END };
            let mut names: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
            names.sort_unstable();
            assert_eq!(report.names(), names);
            assert!(prov.to_json().contains("dataset.label_digest"));
        }
    }
}

#[test]
fn benchmark_json_declares_exactly_the_metrics_the_runs_print() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    // `"name": "<metric>", "unit": "<unit>"` pairs, in file order.
    let declared: Vec<(String, String)> = text
        .split("\"name\": \"")
        .skip(1)
        .filter_map(|rest| {
            let name = rest.split('"').next()?;
            let unit = rest.split("\"unit\": \"").nth(1)?.split('"').next()?;
            rest.split('}')
                .next()?
                .contains("\"unit\"")
                .then(|| (name.into(), unit.into()))
        })
        .collect();
    let ours: Vec<(String, String)> = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(declared, ours);
}

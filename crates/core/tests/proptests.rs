//! Property-based invariants of the RouteNet models: structural soundness of
//! plans and predictions on random networks, scenarios and configurations.

use proptest::prelude::*;
use rn_dataset::{generate_sample, Dataset, GeneratorConfig, Normalizer};
use rn_netgraph::generators;
use rn_netsim::SimConfig;
use rn_tensor::Prng;
use routenet::entities::{build_plan, PlanConfig};
use routenet::model::PathPredictor;
use routenet::{ExtendedRouteNet, FeatureScales, ModelConfig, NodeUpdate, OriginalRouteNet};

fn quick_gen() -> GeneratorConfig {
    GeneratorConfig {
        sim: SimConfig {
            duration_s: 30.0,
            warmup_s: 5.0,
            ..SimConfig::default()
        },
        ..GeneratorConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn plans_are_structurally_sound_on_random_networks(
        seed in any::<u64>(),
        n in 3usize..8,
    ) {
        let mut rng = Prng::new(seed);
        let topo = generators::erdos_renyi_connected(n, 0.3, 1e4, &mut rng).unwrap();
        let sample = generate_sample(&topo, &quick_gen(), seed, 0);
        let scales = FeatureScales::unit();
        let normalizer = Normalizer::identity();
        let config = PlanConfig {
            scales: &scales,
            normalizer: &normalizer,
            state_dim: 6,
            min_packets: 1,
            target: routenet::entities::TargetKind::Delay,
        };
        let plan = build_plan(&sample, &config);
        prop_assert_eq!(plan.n_paths, n * (n - 1));
        // Every active position's entity id is in range for its kind.
        for step in plan.steps.iter() {
            for (row, &id) in step.ids.iter().enumerate() {
                if step.mask.get(row, 0) > 0.0 {
                    match step.kind {
                        routenet::EntityKind::Link => prop_assert!(id < plan.num_links),
                        routenet::EntityKind::Node => prop_assert!(id < plan.num_nodes),
                        routenet::EntityKind::Queue => prop_assert!(id < plan.num_queues),
                    }
                }
            }
        }
        // Node incidences reference valid rows/nodes.
        for (&p, &nd) in plan.node_incidence_paths.iter().zip(&plan.node_incidence_nodes) {
            prop_assert!(p < plan.n_paths);
            prop_assert!(nd < plan.num_nodes);
        }
    }

    #[test]
    fn predictions_are_finite_positive_for_any_config(
        seed in any::<u64>(),
        state_dim in 2usize..12,
        mp_iterations in 1usize..4,
        positional in any::<bool>(),
    ) {
        let mut rng = Prng::new(seed);
        let topo = generators::erdos_renyi_connected(5, 0.3, 1e4, &mut rng).unwrap();
        let sample = generate_sample(&topo, &quick_gen(), seed, 1);
        let ds = Dataset { topology: topo, samples: vec![sample] };

        let config = ModelConfig {
            state_dim,
            mp_iterations,
            readout_hidden: 2 * state_dim,
            node_update: if positional {
                NodeUpdate::PositionalMessages
            } else {
                NodeUpdate::FinalPathStateSum
            },
            seed,
        };
        let mut model = ExtendedRouteNet::new(config);
        model.fit_preprocessing(&ds, 1);
        let plan = model.plan(&ds.samples[0]);
        for p in model.predict(&plan) {
            prop_assert!(p.is_finite() && p > 0.0, "prediction {p}");
        }
    }

    #[test]
    fn original_model_is_node_feature_invariant(
        seed in any::<u64>(),
        new_cap in 1usize..64,
    ) {
        let mut rng = Prng::new(seed);
        let topo = generators::erdos_renyi_connected(5, 0.3, 1e4, &mut rng).unwrap();
        let sample = generate_sample(&topo, &quick_gen(), seed, 2);
        let ds = Dataset { topology: topo, samples: vec![sample.clone()] };
        let mut model = OriginalRouteNet::new(ModelConfig {
            state_dim: 6,
            mp_iterations: 2,
            readout_hidden: 8,
            seed,
            ..ModelConfig::default()
        });
        model.fit_preprocessing(&ds, 1);
        let base = model.predict(&model.plan(&sample));
        let mut mutated = sample;
        mutated.queue_capacities = vec![new_cap; mutated.queue_capacities.len()];
        let after = model.predict(&model.plan(&mutated));
        prop_assert_eq!(base, after, "original RouteNet must ignore queue capacities");
    }

    #[test]
    fn untrained_models_are_weight_seed_sensitive(seed in 0u64..100) {
        // Different weight seeds must give different functions (sanity check
        // that seeding actually reaches the initializers).
        let mut rng = Prng::new(seed);
        let topo = generators::erdos_renyi_connected(4, 0.4, 1e4, &mut rng).unwrap();
        let sample = generate_sample(&topo, &quick_gen(), seed, 3);
        let ds = Dataset { topology: topo, samples: vec![sample] };
        let mk = |weight_seed: u64| {
            let mut m = ExtendedRouteNet::new(ModelConfig {
                state_dim: 6,
                mp_iterations: 1,
                readout_hidden: 8,
                seed: weight_seed,
                ..ModelConfig::default()
            });
            m.fit_preprocessing(&ds, 1);
            m.predict(&m.plan(&ds.samples[0]))
        };
        let a = mk(seed);
        let b = mk(seed + 1);
        prop_assert_ne!(a, b);
    }

    #[test]
    fn megabatch_forward_matches_per_sample_prediction(
        seed in any::<u64>(),
        batch in 2usize..5,
    ) {
        // The fused forward over a block-diagonal plan must agree with
        // per-sample prediction.
        let mut rng = Prng::new(seed);
        let topo = generators::erdos_renyi_connected(5, 0.4, 1e4, &mut rng).unwrap();
        let samples: Vec<_> = (0..batch as u64)
            .map(|i| generate_sample(&topo, &quick_gen(), seed.wrapping_add(i), i))
            .collect();
        let ds = Dataset { topology: topo, samples };
        let mut model = ExtendedRouteNet::new(ModelConfig {
            state_dim: 6,
            mp_iterations: 2,
            readout_hidden: 8,
            seed: 1,
            ..ModelConfig::default()
        });
        model.fit_preprocessing(&ds, 1);
        let plans: Vec<_> = ds.samples.iter().map(|s| model.plan(s)).collect();
        let batched = model.predict_batch(&plans);
        for (b, plan) in plans.iter().enumerate() {
            let single = model.predict(plan);
            prop_assert_eq!(batched[b].len(), single.len());
            for (x, y) in batched[b].iter().zip(&single) {
                let denom = y.abs().max(1e-12);
                prop_assert!(((x - y).abs() / denom) < 1e-5,
                    "sample {}: batched {} vs single {}", b, x, y);
            }
        }
    }
}

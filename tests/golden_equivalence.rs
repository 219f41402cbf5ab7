//! Golden-equivalence regression tests.
//!
//! A fixed-seed `ExtendedRouteNet` evaluated on a fixed-seed `toy5` sample
//! must keep producing the predictions recorded in
//! `tests/fixtures/golden_toy5.json` to within 1e-5 relative error. This
//! pins the numerics of the fused hot path (tiled kernels, fast
//! transcendentals, fused GRU tape ops, block-diagonal megabatching): any
//! future perf work that silently changes model output fails here.
//!
//! Regenerate the fixture (only after an *intentional* numerics change) with:
//!
//! ```sh
//! RN_REGEN_GOLDEN=1 cargo test --test golden_equivalence
//! ```

use rn_autograd::Graph;
use rn_dataset::{generate, GeneratorConfig};
use rn_netgraph::topologies;
use rn_netsim::SimConfig;
use rn_nn::Layer;
use rn_tensor::Matrix;
use routenet::entities::{build_megabatch, MegabatchPlan};
use routenet::model::PathPredictor;
use routenet::{
    train, ExtendedRouteNet, ModelConfig, OriginalRouteNet, QosRouteNet, SamplePlan, TrainConfig,
};
use std::path::PathBuf;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_toy5.json")
}

/// The frozen scenario: seeds, sizes and dataset generation must not change,
/// or the fixture loses its meaning.
fn golden_setup() -> (ExtendedRouteNet, SamplePlan) {
    let gen_config = GeneratorConfig {
        sim: SimConfig {
            duration_s: 60.0,
            warmup_s: 10.0,
            ..SimConfig::default()
        },
        ..GeneratorConfig::default()
    };
    let ds = generate(&topologies::toy5(), &gen_config, 20_190_101, 1);
    let mut model = ExtendedRouteNet::new(ModelConfig {
        state_dim: 16,
        mp_iterations: 4,
        readout_hidden: 16,
        seed: 7,
        ..ModelConfig::default()
    });
    model.fit_preprocessing(&ds, 5);
    let plan = model.plan(&ds.samples[0]);
    (model, plan)
}

fn max_rel_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "prediction count changed");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs() / y.abs().max(1e-12))
        .fold(0.0, f64::max)
}

#[test]
fn predictions_match_recorded_fixture() {
    let (model, plan) = golden_setup();
    let predictions = model.predict(&plan);

    let path = fixture_path();
    if std::env::var("RN_REGEN_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        let json = serde_json::to_string(&predictions).unwrap();
        std::fs::write(&path, json).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }

    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); run with RN_REGEN_GOLDEN=1",
            path.display()
        )
    });
    let recorded: Vec<f64> = serde_json::from_str(&text).unwrap();
    let worst = max_rel_diff(&predictions, &recorded);
    assert!(
        worst < 1e-5,
        "fused predictions drifted from the golden fixture: max rel diff {worst:e}"
    );
}

#[test]
fn fused_forward_matches_unfused_and_seed_reference() {
    let (model, plan) = golden_setup();
    let fused = model.predict(&plan);

    // Unfused op-by-op forward with the production (fast) kernels.
    let mut g = Graph::new();
    let (_, normalizer) = model.preprocessing();
    let bound = Layer::bind(&model, &mut g);
    let pred = model.forward_unfused(&mut g, &bound, &plan);
    let unfused: Vec<f64> = g
        .value(pred)
        .as_slice()
        .iter()
        .map(|&v| normalizer.denormalize(v as f64))
        .collect();
    let worst = max_rel_diff(&fused, &unfused);
    assert!(worst < 1e-5, "fused vs unfused forward diverged: {worst:e}");

    // Seed-faithful reference mode: naive kernels + libm transcendentals.
    let mut g_ref = Graph::new();
    g_ref.set_reference_mode(true);
    let bound_ref = Layer::bind(&model, &mut g_ref);
    let pred_ref = model.forward_unfused(&mut g_ref, &bound_ref, &plan);
    let reference: Vec<f64> = g_ref
        .value(pred_ref)
        .as_slice()
        .iter()
        .map(|&v| normalizer.denormalize(v as f64))
        .collect();
    let worst_ref = max_rel_diff(&fused, &reference);
    assert!(
        worst_ref < 1e-5,
        "fused vs seed-reference forward diverged: {worst_ref:e}"
    );
}

#[test]
fn megabatched_forward_matches_per_sample_forward() {
    let gen_config = GeneratorConfig {
        sim: SimConfig {
            duration_s: 60.0,
            warmup_s: 10.0,
            ..SimConfig::default()
        },
        ..GeneratorConfig::default()
    };
    let ds = generate(&topologies::toy5(), &gen_config, 20_190_102, 4);
    let mut model = ExtendedRouteNet::new(ModelConfig {
        state_dim: 16,
        mp_iterations: 4,
        readout_hidden: 16,
        seed: 7,
        ..ModelConfig::default()
    });
    model.fit_preprocessing(&ds, 5);
    let plans: Vec<SamplePlan> = ds.samples.iter().map(|s| model.plan(s)).collect();
    let batched = model.predict_batch(&plans);
    for (b, plan) in plans.iter().enumerate() {
        let single = model.predict(plan);
        let worst = max_rel_diff(&batched[b], &single);
        assert!(
            worst < 1e-5,
            "sample {b}: megabatch diverged from per-sample: {worst:e}"
        );
    }
}

#[test]
fn prediction_is_deterministic_within_build() {
    let (model, plan) = golden_setup();
    let a = model.predict(&plan);
    let b = model.predict(&plan);
    assert_eq!(a, b, "same plan, same build must give bitwise-equal output");
}

/// Fixed-seed NSFNET scenario batch — the topology family the paper (and
/// the training bench) uses.
fn nsfnet_setup(batch: usize) -> (ExtendedRouteNet, Vec<SamplePlan>) {
    let gen_config = GeneratorConfig {
        sim: SimConfig {
            duration_s: 30.0,
            warmup_s: 5.0,
            ..SimConfig::default()
        },
        ..GeneratorConfig::default()
    };
    let ds = generate(
        &topologies::nsfnet_default(),
        &gen_config,
        20_260_729,
        batch,
    );
    let mut model = ExtendedRouteNet::new(ModelConfig {
        state_dim: 16,
        mp_iterations: 3,
        readout_hidden: 16,
        seed: 11,
        ..ModelConfig::default()
    });
    model.fit_preprocessing(&ds, 5);
    let plans = ds.samples.iter().map(|s| model.plan(s)).collect();
    (model, plans)
}

/// One fused forward + backward over the megabatch on `g` (reset first);
/// returns the loss bits and every parameter gradient.
fn megabatch_step(
    g: &mut Graph,
    model: &ExtendedRouteNet,
    mb: &MegabatchPlan,
) -> (u32, Vec<Matrix>) {
    g.reset();
    let bound = model.bind(g);
    let pred = model.forward(g, &bound, &mb.plan);
    let reliable = g.gather_rows(pred, &mb.plan.reliable_idx);
    let target = g.constant(mb.plan.reliable_targets_norm());
    let loss = g.mse(reliable, target);
    g.backward(loss);
    (g.value(loss).get(0, 0).to_bits(), model.grads(g, &bound))
}

#[test]
fn megabatch_backward_is_reuse_stable_on_a_pooled_tape() {
    // A reused tape (pooled buffers and fused-op scratch recycled) must
    // reproduce the fresh tape's megabatch gradients bit for bit.
    let (model, plans) = nsfnet_setup(4);
    let parts: Vec<&SamplePlan> = plans.iter().collect();
    let mb = build_megabatch(&parts);
    let (loss_fresh, grads_fresh) = megabatch_step(&mut Graph::new(), &model, &mb);
    assert!(f32::from_bits(loss_fresh).is_finite());

    let mut g = Graph::new();
    for round in 0..3 {
        let (loss, grads) = megabatch_step(&mut g, &model, &mb);
        assert_eq!(loss_fresh, loss, "round {round} loss diverged");
        for (i, (a, b)) in grads_fresh.iter().zip(&grads).enumerate() {
            assert!(a.approx_eq(b, 0.0), "round {round} grad {i} diverged");
        }
    }
}

#[test]
fn inplace_inference_is_bitwise_identical_to_copying_forward() {
    let (model, plans) = nsfnet_setup(4);
    let parts: Vec<&SamplePlan> = plans.iter().collect();
    let mb = build_megabatch(&parts);
    let (_, normalizer) = model.preprocessing();

    // Copying (training-mode) forward: states are copied each step.
    let copying: Vec<f64> = {
        let mut g = Graph::new();
        let bound = model.bind(&mut g);
        let pred = model.forward(&mut g, &bound, &mb.plan);
        g.value(pred)
            .as_slice()
            .iter()
            .map(|&v| normalizer.denormalize(v as f64))
            .collect()
    };

    // In-place (inference-mode) forward: states and accumulators are
    // advanced in the input buffers — megabatched and per-sample.
    let batched = model.predict_batch(&plans);
    let flat: Vec<f64> = batched.iter().flatten().copied().collect();
    assert_eq!(copying, flat, "in-place megabatch inference changed bits");

    // Per-sample in-place inference: a reused (pooled) tape must reproduce
    // a fresh tape bit for bit, and stay within float round-off of the
    // megabatched answer.
    let mut tape = Graph::new();
    for (b, plan) in plans.iter().enumerate() {
        let single = model.predict_with(&mut tape, plan);
        assert_eq!(single, model.predict(plan), "sample {b}: tape-reuse drift");
        for (x, y) in batched[b].iter().zip(&single) {
            let rel = (x - y).abs() / y.abs().max(1e-12);
            assert!(rel < 1e-5, "sample {b}: batched {x} vs single {y}");
        }
    }
}

/// Check `predictions` against the fixture `name` under `tests/fixtures/`
/// at the 1e-5 relative tolerance, or rewrite it under `RN_REGEN_GOLDEN`.
fn check_fixture(name: &str, predictions: &[f64]) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    if std::env::var("RN_REGEN_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, serde_json::to_string(&predictions.to_vec()).unwrap()).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); run with RN_REGEN_GOLDEN=1",
            path.display()
        )
    });
    let recorded: Vec<f64> = serde_json::from_str(&text).unwrap();
    let worst = max_rel_diff(predictions, &recorded);
    assert!(
        worst < 1e-5,
        "predictions drifted from {name}: max rel diff {worst:e}"
    );
}

/// The golden model configuration, shared by every variant's fixture.
fn golden_config() -> ModelConfig {
    ModelConfig {
        state_dim: 16,
        mp_iterations: 4,
        readout_hidden: 16,
        seed: 7,
        ..ModelConfig::default()
    }
}

#[test]
fn original_predictions_match_recorded_fixture() {
    // The links-only model on the frozen `golden_setup` scenario.
    let gen_config = GeneratorConfig {
        sim: SimConfig {
            duration_s: 60.0,
            warmup_s: 10.0,
            ..SimConfig::default()
        },
        ..GeneratorConfig::default()
    };
    let ds = generate(&topologies::toy5(), &gen_config, 20_190_101, 1);
    let mut model = OriginalRouteNet::new(golden_config());
    model.fit_preprocessing(&ds, 5);
    let plan = model.plan(&ds.samples[0]);
    check_fixture("golden_original_toy5.json", &model.predict(&plan));
}

#[test]
fn qos_predictions_match_recorded_fixture() {
    // The queue-entity model on a frozen two-class toy5 scenario.
    let gen_config = GeneratorConfig {
        sim: SimConfig {
            duration_s: 30.0,
            warmup_s: 5.0,
            ..SimConfig::default()
        },
        qos: Some(rn_dataset::QosGenConfig::two_class_mix()),
        ..GeneratorConfig::default()
    };
    let ds = generate(&topologies::toy5(), &gen_config, 20_190_103, 1);
    let mut model = QosRouteNet::new(golden_config());
    model.fit_preprocessing(&ds, 5);
    let plan = model.plan(&ds.samples[0]);
    assert!(plan.num_queues > 0, "the scenario must schedule classes");
    check_fixture("golden_qos_toy5.json", &model.predict(&plan));
}

#[test]
fn training_matches_recorded_fixture() {
    // A 3-epoch toy5 run with validation on the golden model: two
    // megabatches of two plus one of one per epoch, validation chunks of
    // two and one. The fixture is one flat series: the per-epoch train
    // losses, the per-epoch validation losses, then the trained model's
    // predictions on the first validation sample.
    let gen_config = GeneratorConfig {
        sim: SimConfig {
            duration_s: 60.0,
            warmup_s: 10.0,
            ..SimConfig::default()
        },
        ..GeneratorConfig::default()
    };
    let train_ds = generate(&topologies::toy5(), &gen_config, 20_190_104, 6);
    let val_ds = generate(&topologies::toy5(), &gen_config, 20_190_105, 3);
    let mut model = ExtendedRouteNet::new(golden_config());
    let config = TrainConfig {
        epochs: 3,
        batch_size: 4,
        megabatch_size: 2,
        ..TrainConfig::default()
    };
    let history = train(&mut model, &train_ds, Some(&val_ds), &config);
    assert_eq!(history.train_loss.len(), 3);
    assert_eq!(history.val_loss.len(), 3);
    let plan = model.plan(&val_ds.samples[0]);
    let mut series = history.train_loss.clone();
    series.extend(&history.val_loss);
    series.extend(model.predict(&plan));
    check_fixture("golden_train_toy5.json", &series);
}

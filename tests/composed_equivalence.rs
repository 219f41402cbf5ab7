//! Golden bit-identity tests for megabatch composition.
//!
//! The contract under test: composition is invisible to the numerics.
//! Recomposing a batch slice reproduces the first composition bit for bit,
//! multi-epoch training through the streamed batch schedule reproduces
//! itself, and a step whose loss gather borrows shared index views copies
//! no index words yet matches a copying step bitwise.

use rn_autograd::Graph;
use rn_dataset::{generate, Dataset, GeneratorConfig};
use rn_netgraph::topologies;
use rn_netsim::SimConfig;
use rn_nn::Layer;
use rn_tensor::Matrix;
use routenet::entities::MegabatchPlan;
use routenet::model::PathPredictor;
use routenet::{ExtendedRouteNet, ModelConfig, SamplePlan};

fn nsfnet_dataset(batch: usize, seed: u64) -> Dataset {
    let gen_config = GeneratorConfig {
        sim: SimConfig {
            duration_s: 30.0,
            warmup_s: 5.0,
            ..SimConfig::default()
        },
        ..GeneratorConfig::default()
    };
    generate(&topologies::nsfnet_default(), &gen_config, seed, batch)
}

fn fitted_model(ds: &Dataset, weight_seed: u64) -> ExtendedRouteNet {
    let mut model = ExtendedRouteNet::new(ModelConfig {
        state_dim: 16,
        mp_iterations: 3,
        readout_hidden: 16,
        seed: weight_seed,
        ..ModelConfig::default()
    });
    model.fit_preprocessing(ds, 5);
    model
}

/// One fused forward + backward on the megabatch, the loss gather borrowing
/// a shared view of the reliable rows (or copying them); returns the loss
/// bits, every parameter gradient and how many index words the tape copied
/// while recording.
fn counted_step(
    model: &ExtendedRouteNet,
    mb: &MegabatchPlan,
    shared_loss_rows: bool,
) -> (u32, Vec<Matrix>, u64) {
    let mut g = Graph::new();
    let bound = model.bind(&mut g);
    let pred = model.forward(&mut g, &bound, &mb.plan);
    let reliable = if shared_loss_rows {
        g.gather_rows(pred, mb.plan.reliable_idx_shared())
    } else {
        g.gather_rows(pred, &mb.plan.reliable_idx)
    };
    let target = g.constant(mb.plan.reliable_targets_norm());
    let loss = g.mse(reliable, target);
    g.backward(loss);
    (
        g.value(loss).get(0, 0).to_bits(),
        model.grads(&g, &bound),
        g.index_words_copied(),
    )
}

fn prediction_bits(model: &ExtendedRouteNet, mb: &MegabatchPlan) -> Vec<Vec<u64>> {
    let mut g = Graph::new();
    model
        .predict_megabatch_with(&mut g, mb)
        .iter()
        .map(|v| v.iter().map(|x| x.to_bits()).collect())
        .collect()
}

#[test]
fn trainer_epochs_reuse_compositions_bitwise_across_runs() {
    // End-to-end through the batch scheduler: multi-epoch training (every
    // epoch recomposes its batches one batch ahead on the background lane;
    // epoch visit order permutes; each batch's megabatches run on whichever
    // threads pick them up) must reproduce itself bit for bit — neither the
    // composition layer nor the thread schedule may leak into the numerics.
    use routenet::trainer::{train, TrainConfig};
    let ds = nsfnet_dataset(6, 775);
    let run = || {
        let mut model = fitted_model(&ds, 5);
        let config = TrainConfig {
            epochs: 3,
            batch_size: 4,
            megabatch_size: 2,
            ..TrainConfig::default()
        };
        let history = train(&mut model, &ds, Some(&ds), &config);
        (history.final_train_loss(), history.val_loss.clone(), model)
    };
    let (loss_1, val_1, model_1) = run();
    let (loss_2, val_2, model_2) = run();
    assert_eq!(loss_1, loss_2, "epoch losses must match exactly");
    assert_eq!(val_1, val_2, "validation losses must match exactly");
    let plan = model_1.plan(&ds.samples[0]);
    assert_eq!(
        model_1.predict(&plan),
        model_2.predict(&plan),
        "trained weights must be bitwise identical across runs"
    );
}

#[test]
fn streaming_composition_slices_match_whole_batch_compose() {
    // The trainer recomposes every batch slice each epoch — pin that a
    // recomposed slice is bitwise the plan composed the first time.
    let ds = nsfnet_dataset(5, 777);
    let model = fitted_model(&ds, 7);
    let plans: Vec<SamplePlan> = ds.samples.iter().map(|s| model.plan(s)).collect();
    let megabatch_size = 2;
    let whole: Vec<MegabatchPlan> = plans
        .chunks(megabatch_size)
        .map(|slice| {
            let parts: Vec<&SamplePlan> = slice.iter().collect();
            MegabatchPlan::compose(&parts).unwrap()
        })
        .collect();
    // Recompose each slice independently (as a later epoch of the trainer
    // does) and compare bit for bit, forward included.
    for (si, slice) in plans.chunks(megabatch_size).enumerate() {
        let parts: Vec<&SamplePlan> = slice.iter().collect();
        let streamed = MegabatchPlan::compose(&parts).unwrap();
        assert_eq!(
            prediction_bits(&model, &whole[si]),
            prediction_bits(&model, &streamed),
            "slice {si}: streamed composition changed prediction bits"
        );
        assert_eq!(
            streamed.plan.reliable_idx, whole[si].plan.reliable_idx,
            "slice {si}: reliability diverged"
        );
        assert!(streamed
            .plan
            .targets_norm
            .approx_eq(&whole[si].plan.targets_norm, 0.0));
    }
}

#[test]
fn zero_copy_steps_are_bitwise_identical_and_copy_no_index_words() {
    // Steps against a composed megabatch bind Arc-backed views of its
    // index buffers instead of pooled copies. Two contracts: (1) a full
    // training step copies ZERO index words — every gather/scatter list is
    // a refcount bump — and (2) loss bits and every parameter gradient are
    // bitwise identical to a step whose loss gather copies its rows.
    let ds = nsfnet_dataset(4, 20_260_809);
    let model = fitted_model(&ds, 13);
    let plans: Vec<SamplePlan> = ds.samples.iter().map(|s| model.plan(s)).collect();
    let parts: Vec<&SamplePlan> = plans.iter().collect();
    let mb = &MegabatchPlan::compose(&parts).expect("compose");

    let (loss_copied, grads_copied, words_copied) = counted_step(&model, mb, false);
    assert_eq!(
        words_copied,
        mb.plan.reliable_idx.len() as u64,
        "only the copied loss gather may count index traffic"
    );
    let (loss_shared, grads_shared, words_shared) = counted_step(&model, mb, true);
    assert_eq!(words_shared, 0, "a shared-view step copied index words");
    assert_eq!(loss_copied, loss_shared, "loss bits diverged");
    assert_eq!(grads_copied.len(), grads_shared.len());
    for (i, (a, b)) in grads_copied.iter().zip(&grads_shared).enumerate() {
        assert!(a.approx_eq(b, 0.0), "gradient {i} diverged");
    }
}

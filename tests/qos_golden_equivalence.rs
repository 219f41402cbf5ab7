//! Golden bit-identity tests for the queue-entity (QoS) model.
//!
//! The contract under test: FIFO-only scenarios — legacy samples, or QoS
//! samples whose spec degenerates to one class scheduled FIFO — run through
//! the queue-aware compose path produce **bitwise identical** predictions
//! AND gradients to the two-entity [`ExtendedRouteNet`], on any number of
//! concurrent threads and whether the loss gather copies its index list or
//! borrows a shared view. The queue entity must be invisible until a
//! scenario actually schedules classes.

use rn_autograd::Graph;
use rn_dataset::{generate, Dataset, GeneratorConfig, Sample, SampleQos};
use rn_netgraph::topologies;
use rn_netsim::{ClassStats, SchedulingPolicy, SimConfig, TrafficProfile};
use rn_nn::Layer;
use rn_tensor::Matrix;
use routenet::entities::MegabatchPlan;
use routenet::model::PathPredictor;
use routenet::{ExtendedRouteNet, ModelConfig, QosRouteNet, SamplePlan};

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

fn model_config(weight_seed: u64) -> ModelConfig {
    ModelConfig {
        state_dim: 16,
        mp_iterations: 3,
        readout_hidden: 16,
        seed: weight_seed,
        ..ModelConfig::default()
    }
}

/// Attach a single-class FIFO QoS spec: semantically the legacy scenario,
/// but it exercises the QoS branches of plan building and composition.
fn with_fifo_qos(sample: &Sample) -> Sample {
    let mut out = sample.clone();
    out.qos = Some(SampleQos {
        policy: SchedulingPolicy::Fifo,
        class_profiles: vec![TrafficProfile::Poisson],
        path_classes: vec![0; sample.targets.len()],
        class_targets: ClassStats::from_accumulators(
            &vec![Default::default(); sample.targets.len()],
            &vec![0; sample.targets.len()],
            1,
        ),
    });
    out
}

/// One fused forward + backward on the megabatch, the loss gather either
/// borrowing a shared view of the reliable rows or copying them; returns
/// the loss bits and every parameter gradient.
fn megabatch_step<M: PathPredictor>(
    model: &M,
    mb: &MegabatchPlan,
    shared_loss_rows: bool,
) -> (u32, Vec<Matrix>) {
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
    (g.value(loss).get(0, 0).to_bits(), model.grads(&g, &bound))
}

fn prediction_bits<M: PathPredictor>(model: &M, mb: &MegabatchPlan) -> Vec<Vec<u64>> {
    let mut g = Graph::new();
    model
        .predict_megabatch_with(&mut g, mb)
        .iter()
        .map(|v| v.iter().map(|x| x.to_bits()).collect())
        .collect()
}

#[test]
fn qos_model_shares_parameter_bits_with_extended_at_equal_seed() {
    // The RNG-order contract behind every test in this file: the QoS model
    // draws its path/link/node GRUs and readout from the seed stream in the
    // extended model's exact order, the queue GRU only afterwards.
    let ext = ExtendedRouteNet::new(model_config(11));
    let qos = QosRouteNet::new(model_config(11));
    let ep = ext.params();
    let qp = qos.params();
    assert_eq!(
        qp.len(),
        ep.len() + 6,
        "queue GRU adds 3 kernels + 3 biases"
    );
    for (i, (e, q)) in ep.iter().zip(&qp).enumerate() {
        assert!(
            e.approx_eq(q, 0.0),
            "shared parameter {i} differs between extended and QoS models"
        );
    }
}

#[test]
fn fifo_only_batches_are_bitwise_identical_to_legacy_across_workers_and_index_modes() {
    let ds = nsfnet_dataset(4, 20_260_808);
    let mut ext = ExtendedRouteNet::new(model_config(11));
    let mut qos = QosRouteNet::new(model_config(11));
    ext.fit_preprocessing(&ds, 5);
    qos.fit_preprocessing(&ds, 5);

    // Mixed FIFO-only batch: half legacy samples, half degenerate-QoS
    // samples — both must land on the two-entity structure.
    let samples: Vec<Sample> = ds
        .samples
        .iter()
        .enumerate()
        .map(|(i, s)| {
            if i % 2 == 0 {
                with_fifo_qos(s)
            } else {
                s.clone()
            }
        })
        .collect();
    let plans_qos: Vec<SamplePlan> = samples.iter().map(|s| qos.plan(s)).collect();
    let plans_ext: Vec<SamplePlan> = ds.samples.iter().map(|s| ext.plan(s)).collect();
    let parts_qos: Vec<&SamplePlan> = plans_qos.iter().collect();
    let parts_ext: Vec<&SamplePlan> = plans_ext.iter().collect();

    // The degenerate QoS spec is structurally invisible: the composed
    // batches share one compiled structure, with no queue entities in it.
    let composed_qos = MegabatchPlan::compose(&parts_qos).expect("compose QoS parts");
    let composed_ext = MegabatchPlan::compose(&parts_ext).expect("compose legacy parts");
    let (q, e) = (&composed_qos.plan, &composed_ext.plan);
    assert_eq!(q.num_queues, 0);
    assert_eq!(
        (q.n_paths, q.num_links, q.num_nodes, q.num_queues),
        (e.n_paths, e.num_links, e.num_nodes, e.num_queues),
        "single-class FIFO QoS must not move the entity counts"
    );
    assert_eq!(q.pairs, e.pairs);
    assert_eq!(q.node_incidence_paths, e.node_incidence_paths);
    assert_eq!(q.node_incidence_nodes, e.node_incidence_nodes);
    let (x, y) = (&q.csr, &e.csr);
    assert_eq!(
        x.kinds, y.kinds,
        "single-class FIFO QoS must not move the schedule"
    );
    assert_eq!(x.active, y.active);
    assert_eq!(x.offsets, y.offsets);
    assert_eq!(x.ids_flat, y.ids_flat);
    assert_eq!(x.active_offsets, y.active_offsets);
    assert_eq!(x.active_rows_flat, y.active_rows_flat);
    assert_eq!(x.active_ids_flat, y.active_ids_flat);

    // Predictions: bitwise across models and compose paths.
    assert_eq!(
        prediction_bits(&qos, &composed_qos),
        prediction_bits(&ext, &composed_ext),
        "FIFO-only predictions diverged from the two-entity baseline"
    );

    // Gradients: bitwise on 1, 2 and 4 concurrent workers, with the loss
    // rows copied or shared. The queue GRU must stay exactly zero — the
    // loss never touches it.
    let (loss_ref, grads_ref) = megabatch_step(&ext, &composed_ext, false);
    for shared in [false, true] {
        for workers in [1, 2, 4] {
            let results: Vec<_> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        scope.spawn(|| {
                            (
                                megabatch_step(&qos, &composed_qos, shared),
                                megabatch_step(&ext, &composed_ext, shared),
                            )
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("step thread panicked"))
                    .collect()
            });
            for ((loss_q, grads_q), (loss_e, grads_e)) in results {
                assert_eq!(
                    loss_q, loss_e,
                    "loss bits diverged at {workers} workers, shared={shared}"
                );
                assert_eq!(loss_q, loss_ref, "loss bits diverged from the reference");
                assert_eq!(grads_q.len(), grads_e.len() + 6);
                for (i, (e, q)) in grads_e.iter().zip(&grads_q).enumerate() {
                    assert!(
                        e.approx_eq(q, 0.0),
                        "shared gradient {i} diverged at {workers} workers, shared={shared}"
                    );
                }
                for (i, (r, q)) in grads_ref.iter().zip(&grads_q).enumerate() {
                    assert!(
                        r.approx_eq(q, 0.0),
                        "gradient {i} diverged from the reference"
                    );
                }
                for (i, m) in grads_q[grads_e.len()..].iter().enumerate() {
                    assert_eq!(
                        m.max_abs(),
                        0.0,
                        "queue GRU gradient {i} is nonzero on a FIFO-only batch"
                    );
                }
            }
        }
    }
}

#[test]
fn fifo_only_single_sample_predictions_are_bitwise_identical() {
    // The per-sample (unbatched) path — serving's cache-miss
    // fallback — must hold the same guarantee as the megabatch path.
    let ds = nsfnet_dataset(2, 909);
    let mut ext = ExtendedRouteNet::new(model_config(7));
    let mut qos = QosRouteNet::new(model_config(7));
    ext.fit_preprocessing(&ds, 5);
    qos.fit_preprocessing(&ds, 5);
    for sample in &ds.samples {
        let fifo = with_fifo_qos(sample);
        let plan_e = ext.plan(sample);
        let plan_q = qos.plan(&fifo);
        assert_eq!(plan_q.num_queues, 0);
        assert_eq!(qos.predict(&plan_q), ext.predict(&plan_e));
    }
}

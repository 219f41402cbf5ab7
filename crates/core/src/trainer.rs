//! Minibatch training with data-parallel gradients.
//!
//! Each training step packs one minibatch of sample graphs into
//! block-diagonal **megabatches** ([`crate::compose`]): every
//! `megabatch_size` slice, split by step period
//! ([`crate::compose::period_runs`]) so a slice mixing QoS and legacy
//! samples yields one megabatch per period, runs ONE fused forward/backward
//! per megabatch — one parameter `bind()` amortized over the pack, `B`-fold
//! taller (cache-friendlier) matmuls, and an order of magnitude fewer tape
//! nodes.
//! Workers draw reusable tapes from a [`TapePool`], so the steady-state loop
//! is allocation-free.
//!
//! ## Batch schedule
//!
//! Megabatch **membership is fixed once** from the seeded shuffle; later
//! epochs only permute the order batches are visited in. Each batch's
//! megabatches ([`crate::entities::MegabatchPlan`]) are composed on a
//! background lane one labelled batch ahead while the current batch trains,
//! consumed, and dropped. Nothing is kept across batches or epochs, so
//! resident composition memory is bounded by two batches (the current and
//! the prefetched one) however large the training set — what lets giant
//! topologies train. Validation chunks are composed per epoch the same way,
//! one chunk per evaluating thread.
//!
//! A batch's megabatches run forward/backward in parallel (`par_iter`), one
//! pooled tape each, and their gradients are summed in megabatch order, so
//! trained models are bitwise identical at any thread count.
//!
//! The loss of a megabatch is weighted per row so its gradient equals the
//! mean of per-sample mean losses. A step whose gradient norm is not finite
//! is skipped and counted in [`TrainingHistory::skipped_steps`], so one NaN
//! loss never reaches the weights.

use crate::compose::period_runs;
use crate::entities::{MegabatchPlan, SamplePlan};
use crate::model::PathPredictor;
use crate::train_trace::{self, TrainTrace};
use rayon::prelude::*;
use rayon::BackgroundLane;
use rn_autograd::{Graph, TapePool, Var};
use rn_dataset::Dataset;
use rn_nn::loss::Loss;
use rn_nn::{clip_global_norm, Adam, Optimizer};
use rn_tensor::{Matrix, Prng};
use serde::{Deserialize, Serialize};

/// Training hyper-parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Sample graphs per optimizer step.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Global gradient-norm clip.
    pub grad_clip: f32,
    /// Regression loss.
    pub loss: Loss,
    /// Minimum delivered packets for a path label to be trained on.
    pub min_packets: u64,
    /// Shuffling seed.
    pub seed: u64,
    /// Stop early when validation loss fails to improve for this many epochs
    /// (`None` disables; requires a validation set).
    pub patience: Option<usize>,
    /// Halve the learning rate at the start of these (0-based) epochs — a
    /// simple step schedule that stabilizes the late phase of training.
    pub lr_halve_epochs: Vec<usize>,
    /// Print one progress line per epoch to stderr.
    pub verbose: bool,
    /// Samples per megabatch; a batch is split into
    /// `ceil(batch_size / megabatch_size)` megabatches processed in
    /// parallel. Fixed megabatch boundaries keep training seed-deterministic
    /// regardless of thread count. Peak composition memory is two batches'
    /// megabatches (see the module docs).
    pub megabatch_size: usize,
    /// Where the per-epoch stage-breakdown JSONL stream goes when tracing
    /// is on (`RN_TRACE=1`); see [`crate::train_trace`]. The
    /// `RN_TRACE_TRAIN_OUT` env knob overrides it; with neither set the
    /// stream goes to `train_metrics.jsonl`. Ignored (nothing is written)
    /// while tracing is off, so this field is wire-optional for configs
    /// saved before it existed.
    pub trace_out: Option<String>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 20,
            batch_size: 8,
            learning_rate: 1e-3,
            grad_clip: 5.0,
            loss: Loss::Mse,
            min_packets: 10,
            seed: 0,
            patience: None,
            lr_halve_epochs: Vec::new(),
            verbose: false,
            megabatch_size: 4,
            trace_out: None,
        }
    }
}

impl TrainConfig {
    /// Every training-side environment knob, as `(name, what it overrides)`
    /// pairs — the **single source of truth** the README's "Configuration"
    /// table is checked against (`readme_documents_every_env_knob` test).
    /// Add a row here whenever a new `RN_*` training env is introduced and
    /// the README table, the parser and the docs stay in lockstep.
    pub const ENV_DOCS: &'static [(&'static str, &'static str)] = &[
        (
            "RN_TRACE",
            "master observability switch (read by rn_trace, honored workspace-wide): 1/true/on \
             records stage-level span timing in the trainer, the serve request lifecycle and \
             the autograd backward walk; anything else keeps tracing off at one atomic load \
             per potential span. Never changes results — predictions and gradients are \
             bitwise identical either way",
        ),
        (
            crate::train_trace::TRACE_OUT_ENV,
            "path of the trainer's per-epoch stage-breakdown JSONL stream (requires RN_TRACE=1); \
             overrides TrainConfig::trace_out, defaults to train_metrics.jsonl",
        ),
        (
            "RN_TRACE_SERVE_OUT",
            "path the serve quickstart example and rn_loadgen write the final MetricsSnapshot \
             (with per-stage latency breakdown) to as one JSON line (requires RN_TRACE=1); \
             defaults to serve_metrics.jsonl",
        ),
        (
            "RN_QOS_VALIDATION_OUT",
            "path the QoS validation harness (tests/model_vs_simulator.rs, \
             trained_qos_model_tracks_per_class_delays) writes its JSON report to — per-class \
             model/simulator/theory delays plus relative errors; unset skips the write",
        ),
    ];
}

/// Per-epoch loss record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainingHistory {
    /// Mean training loss per epoch (normalized-target space).
    pub train_loss: Vec<f64>,
    /// Mean validation loss per epoch (empty without a validation set).
    pub val_loss: Vec<f64>,
    /// Epoch index training stopped at (== `epochs` unless early-stopped).
    pub stopped_at: usize,
    /// Optimizer steps skipped because the batch's loss or gradient norm
    /// was not finite; such a batch adds nothing to `train_loss` either.
    pub skipped_steps: usize,
}

impl TrainingHistory {
    /// Final training loss.
    pub fn final_train_loss(&self) -> f64 {
        *self.train_loss.last().expect("at least one epoch")
    }

    /// Best validation loss, if validation ran.
    pub fn best_val_loss(&self) -> Option<f64> {
        self.val_loss
            .iter()
            .copied()
            .fold(None, |best, v| match best {
                None => Some(v),
                Some(b) => Some(b.min(v)),
            })
    }
}

/// Forward plus weighted loss over a composed megabatch on `g` (reset
/// first), or `None` when it has no reliable labels. The loss node
/// evaluates to `sum_s mean_loss_s / scale` over the megabatch's labelled
/// samples `s`; the sum of per-sample means is returned alongside it.
fn weighted_loss<M: PathPredictor>(
    model: &M,
    mb: &MegabatchPlan,
    loss: Loss,
    scale: usize,
    g: &mut Graph,
) -> Option<(M::Bound, Var, f64)> {
    if mb.plan.reliable_idx.is_empty() {
        return None;
    }
    g.reset();
    let bound = model.bind(g);
    let pred = model.forward(g, &bound, &mb.plan);
    // The reliable rows through an `Arc`-backed view (no index words
    // copied), and their normalized targets as a pooled constant.
    let reliable = g.gather_rows(pred, mb.plan.reliable_idx_shared());
    let target = g.constant_with(mb.plan.reliable_idx.len(), 1, |m| {
        for (k, &row) in mb.plan.reliable_idx.iter().enumerate() {
            m.set(k, 0, mb.plan.targets_norm.get(row, 0));
        }
    });
    let weights = Matrix::column_vector(
        &mb.sample_mean_weights
            .iter()
            .map(|w| w / scale as f32)
            .collect::<Vec<f32>>(),
    );
    let loss_node = loss.apply_weighted(g, reliable, target, &weights);
    let sum_of_means = g.value(loss_node).get(0, 0) as f64 * scale as f64;
    Some((bound, loss_node, sum_of_means))
}

/// One fused forward/backward over a composed megabatch on a pooled tape.
///
/// Returns `(sum_of_per_sample_mean_losses, samples_with_labels, grads)`;
/// the gradients are of `sum_s mean_loss_s / scale`, so with
/// `scale = reliable samples in the whole batch` the megabatch gradients of
/// one batch simply add up to the batch-mean gradient.
fn megabatch_gradients<M: PathPredictor>(
    model: &M,
    mb: &MegabatchPlan,
    loss: Loss,
    scale: usize,
    g: &mut Graph,
    stages: &rn_trace::StageRecorder,
) -> Option<(f64, usize, Vec<Matrix>)> {
    let fwd = stages.span(train_trace::FORWARD);
    let (bound, loss_node, sum_of_means) = weighted_loss(model, mb, loss, scale, g)?;
    fwd.finish();
    let bwd = stages.span(train_trace::BACKWARD);
    g.backward(loss_node);
    bwd.finish();
    Some((sum_of_means, mb.reliable_samples, model.grads(g, &bound)))
}

/// One optimizer step's gradient over a batch's composed megabatches.
///
/// Each megabatch runs forward/backward on its own pooled tape, in parallel
/// across megabatches; the per-megabatch results are then summed in
/// megabatch order, so the merged bits do not depend on the thread count.
/// Returns `(sum_of_per_sample_mean_losses, samples_with_labels, grads)`,
/// or `None` when no megabatch has labels.
fn batch_gradients<M: PathPredictor>(
    model: &M,
    comps: &[MegabatchPlan],
    loss: Loss,
    labelled: usize,
    tapes: &TapePool,
    stages: &rn_trace::StageRecorder,
) -> Option<(f64, usize, Vec<Matrix>)> {
    let results: Vec<(f64, usize, Vec<Matrix>)> = comps
        .par_iter()
        .filter_map(|c| {
            let mut tape = tapes.acquire();
            let out = megabatch_gradients(model, c, loss, labelled, &mut tape, stages);
            tapes.release(tape);
            out
        })
        .collect();
    results
        .into_iter()
        .reduce(|(loss_acc, count_acc, mut acc), (loss_sum, count, grads)| {
            for (a, g) in acc.iter_mut().zip(&grads) {
                a.add_assign(g);
            }
            (loss_acc + loss_sum, count_acc + count, acc)
        })
}

/// Validation loss of a composed megabatch chunk:
/// `(sum_of_per_sample_means, count)`.
fn megabatch_loss<M: PathPredictor>(
    model: &M,
    mb: &MegabatchPlan,
    loss: Loss,
    g: &mut Graph,
) -> (f64, usize) {
    weighted_loss(model, mb, loss, 1, g).map_or((0.0, 0), |(_, _, sum)| (sum, mb.reliable_samples))
}

/// Train `model` on `train_set`, optionally tracking `val_set`.
///
/// Fits preprocessing (feature scales, target normalizer) on the training set
/// first, then precomputes every sample's message-passing plan once and
/// reuses it across epochs.
pub fn train<M: PathPredictor>(
    model: &mut M,
    train_set: &Dataset,
    val_set: Option<&Dataset>,
    config: &TrainConfig,
) -> TrainingHistory {
    assert!(!train_set.is_empty(), "train: empty training set");
    model.fit_preprocessing(train_set, config.min_packets);
    let immutable: &M = model;
    let plans: Vec<SamplePlan> = train_set
        .samples
        .par_iter()
        .map(|s| immutable.plan(s))
        .collect();
    let val_plans: Vec<SamplePlan> = val_set
        .map(|ds| ds.samples.par_iter().map(|s| immutable.plan(s)).collect())
        .unwrap_or_default();
    train_on_plans_with_val(model, &plans, &val_plans, config)
}

/// Train on prebuilt plans, no validation. Preprocessing (scales and
/// normalizer) must already be set on the model — this is the entry point
/// for non-default targets such as jitter.
pub fn train_on_plans<M: PathPredictor>(
    model: &mut M,
    plans: &[SamplePlan],
    config: &TrainConfig,
) -> TrainingHistory {
    train_on_plans_with_val(model, plans, &[], config)
}

/// Compose the megabatches of `parts` (a batch slice or a validation
/// chunk): one per step period present, in order of first appearance. A
/// slice of one period composes exactly one.
fn compose_slice<'a>(parts: impl IntoIterator<Item = &'a SamplePlan>) -> Vec<MegabatchPlan> {
    period_runs(parts, |p| *p)
        .iter()
        .map(|run| MegabatchPlan::compose(run).expect("train: uniform-width non-empty run"))
        .collect()
}

/// Train on prebuilt plans with an optional prebuilt validation set.
pub fn train_on_plans_with_val<M: PathPredictor>(
    model: &mut M,
    plans: &[SamplePlan],
    val_plans: &[SamplePlan],
    config: &TrainConfig,
) -> TrainingHistory {
    assert!(!plans.is_empty(), "train: empty training set");
    assert!(
        config.epochs > 0 && config.batch_size > 0,
        "train: degenerate config"
    );
    assert!(
        config.megabatch_size > 0,
        "train: megabatch_size must be positive"
    );

    // Stage-level tracing (RN_TRACE=1): every span below is inert — one
    // relaxed atomic load, no clock read — while tracing is off, and
    // recording never perturbs the math (bitwise-identical models either
    // way; see crate::train_trace).
    let trace = TrainTrace::new(config);
    let stages = trace.recorder();
    let mut optimizer = Adam::new(config.learning_rate);
    let mut rng = Prng::new(config.seed);
    let mut history = TrainingHistory {
        train_loss: Vec::new(),
        val_loss: Vec::new(),
        stopped_at: 0,
        skipped_steps: 0,
    };
    let mut best_val = f64::INFINITY;
    let mut bad_epochs = 0usize;
    // Best-validation weight snapshot (patience mode only). Early stopping
    // fires `patience` epochs *after* the best epoch by construction — the
    // trigger is that many non-improving epochs — so without a snapshot the
    // returned model carries the last (worse) epoch's weights. Snapshot at
    // every improvement, restore before returning; when the final epoch is
    // itself the best, the restore rewrites identical values.
    let mut best_weights: Option<Vec<Matrix>> = None;
    // Reusable tapes shared by whichever threads process megabatches;
    // buffers survive across batches and epochs.
    let tape_pool = TapePool::new();
    // Composes the next batch while the current one trains.
    let lane = BackgroundLane::new();

    // Megabatch membership is fixed ONCE from the seeded shuffle; epochs
    // >= 2 only permute the order batches are visited in.
    let mut order: Vec<usize> = (0..plans.len()).collect();
    rng.shuffle(&mut order);
    let batches: Vec<&[usize]> = order.chunks(config.batch_size).collect();
    // Samples with labels per batch — the fixed gradient scale.
    let batch_labelled: Vec<usize> = batches
        .iter()
        .map(|batch| {
            batch
                .iter()
                .filter(|&&i| !plans[i].reliable_idx.is_empty())
                .count()
        })
        .collect();
    let compose_batch = |bi: usize| -> Vec<MegabatchPlan> {
        batches[bi]
            .chunks(config.megabatch_size)
            .flat_map(|slice| compose_slice(slice.iter().map(|&i| &plans[i])))
            .collect()
    };

    for epoch in 0..config.epochs {
        if config.lr_halve_epochs.contains(&epoch) {
            let lr = optimizer.learning_rate() * 0.5;
            optimizer.set_learning_rate(lr);
            if config.verbose {
                eprintln!(
                    "[{}] epoch {:>3}: learning rate halved to {lr:.2e}",
                    model.name(),
                    epoch + 1
                );
            }
        }

        // Visit order: the first epoch follows membership order (the seeded
        // shuffle above); later epochs permute which batch is visited when.
        // Batches without labels are never visited.
        let mut visit: Vec<usize> = (0..batches.len()).collect();
        if epoch > 0 {
            rng.shuffle(&mut visit);
        }
        visit.retain(|&bi| batch_labelled[bi] > 0);
        let mut epoch_loss_sum = 0.0;
        let mut epoch_loss_count = 0usize;
        // The lane always composes the next batch in visit order; the first
        // batch of an epoch is composed inline.
        let mut pending: Option<rayon::Prefetch<'_, Vec<MegabatchPlan>>> = None;
        for (vi, &bi) in visit.iter().enumerate() {
            // Claim this batch's compositions; they are dropped at the end
            // of the iteration. The span covers the lane join or the inline
            // compose.
            let comps = {
                let _compose_span = stages.span(train_trace::COMPOSE_WAIT);
                match pending.take() {
                    Some(task) => task.join(),
                    None => compose_batch(bi),
                }
            };
            if let Some(&next) = visit.get(vi + 1) {
                let compose_batch = &compose_batch;
                // SAFETY: the Prefetch handle is joined (or dropped, which
                // blocks) strictly within this epoch's scope, and is never
                // leaked — the borrowed plans and batches outlive it.
                pending = Some(unsafe { lane.submit(move || compose_batch(next)) });
            }
            // Megabatch gradients are already scaled by 1/labelled; their
            // sum is the batch-mean gradient.
            let labelled = batch_labelled[bi];
            let Some((loss_sum, count, mut grads)) =
                batch_gradients(&*model, &comps, config.loss, labelled, &tape_pool, stages)
            else {
                continue;
            };
            let _opt_span = stages.span(train_trace::OPTIMIZER);
            let norm = clip_global_norm(&mut grads, config.grad_clip);
            if !norm.is_finite() || !loss_sum.is_finite() {
                // A NaN/Inf loss or gradient would poison every weight
                // through Adam's moments: drop the step and its loss.
                history.skipped_steps += 1;
                continue;
            }
            epoch_loss_sum += loss_sum;
            epoch_loss_count += count;
            optimizer.step(&mut model.params_mut(), &grads);
        }
        let train_loss = if epoch_loss_count > 0 {
            epoch_loss_sum / epoch_loss_count as f64
        } else {
            f64::NAN
        };
        history.train_loss.push(train_loss);
        history.stopped_at = epoch + 1;

        let mut val_msg = String::new();
        let mut early_stop = false;
        if !val_plans.is_empty() {
            let _eval_span = stages.span(train_trace::EVAL);
            let snapshot: &M = model;
            // Compose each validation chunk, evaluate it, drop it.
            let (sum, count) = val_plans
                .par_chunks(config.megabatch_size)
                .map(|chunk| {
                    let mut tape = tape_pool.acquire();
                    let out = compose_slice(chunk)
                        .iter()
                        .map(|mb| megabatch_loss(snapshot, mb, config.loss, &mut tape))
                        .reduce(|a, b| (a.0 + b.0, a.1 + b.1))
                        .expect("non-empty validation chunk");
                    tape_pool.release(tape);
                    out
                })
                .reduce(|| (0.0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
            let val = if count > 0 {
                sum / count as f64
            } else {
                f64::NAN
            };
            history.val_loss.push(val);
            val_msg = format!(", val {val:.5}");

            if let Some(patience) = config.patience {
                if val < best_val - 1e-9 {
                    best_val = val;
                    bad_epochs = 0;
                    best_weights = Some(model.params().into_iter().cloned().collect());
                } else {
                    bad_epochs += 1;
                    if bad_epochs > patience {
                        if config.verbose {
                            eprintln!(
                                "[{}] early stop at epoch {} (no val improvement for {} epochs)",
                                model.name(),
                                epoch + 1,
                                patience
                            );
                        }
                        // Deferred so the epoch still emits its trace line.
                        early_stop = true;
                    }
                }
            }
        }
        if config.verbose {
            eprintln!(
                "[{}] epoch {:>3}: train {train_loss:.5}{val_msg}",
                model.name(),
                epoch + 1
            );
        }
        trace.emit_epoch(epoch, train_loss, history.val_loss.last().copied());
        if early_stop {
            break;
        }
    }
    // Patience tracking snapshotted the best-validation weights — hand
    // those back, not wherever the last epoch happened to land
    // (`tests: early_stopping_returns_best_validation_weights`).
    if let Some(best) = best_weights {
        for (param, saved) in model.params_mut().into_iter().zip(&best) {
            *param = saved.clone();
        }
    }
    trace.finish();
    history
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::entities::build_megabatch;
    use crate::model::{ExtendedRouteNet, OriginalRouteNet};
    use rn_dataset::{generate, GeneratorConfig};
    use rn_netgraph::topologies;
    use rn_netsim::SimConfig;
    use rn_nn::Layer;

    fn toy_config() -> GeneratorConfig {
        GeneratorConfig {
            sim: SimConfig {
                duration_s: 120.0,
                warmup_s: 20.0,
                ..SimConfig::default()
            },
            ..GeneratorConfig::default()
        }
    }

    fn toy_dataset(n: usize, seed: u64) -> Dataset {
        generate(&topologies::toy5(), &toy_config(), seed, n)
    }

    fn quick_train_config(epochs: usize) -> TrainConfig {
        TrainConfig {
            epochs,
            batch_size: 4,
            learning_rate: 2e-3,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn training_reduces_loss_extended() {
        let ds = toy_dataset(8, 51);
        let mut model = ExtendedRouteNet::new(ModelConfig {
            state_dim: 8,
            mp_iterations: 2,
            readout_hidden: 8,
            ..ModelConfig::default()
        });
        let history = train(&mut model, &ds, None, &quick_train_config(8));
        let first = history.train_loss[0];
        let last = history.final_train_loss();
        assert!(last < first, "loss did not drop: {first} -> {last}");
        assert_eq!(history.stopped_at, 8);
    }

    #[test]
    fn training_reduces_loss_original() {
        let ds = toy_dataset(8, 52);
        let mut model = OriginalRouteNet::new(ModelConfig {
            state_dim: 8,
            mp_iterations: 2,
            readout_hidden: 8,
            ..ModelConfig::default()
        });
        let history = train(&mut model, &ds, None, &quick_train_config(8));
        assert!(history.final_train_loss() < history.train_loss[0]);
    }

    #[test]
    fn validation_is_tracked_and_early_stopping_fires() {
        let train_ds = toy_dataset(6, 53);
        let val_ds = toy_dataset(3, 54);
        let mut model = ExtendedRouteNet::new(ModelConfig {
            state_dim: 8,
            mp_iterations: 1,
            readout_hidden: 8,
            ..ModelConfig::default()
        });
        let mut config = quick_train_config(50);
        config.patience = Some(2);
        let history = train(&mut model, &train_ds, Some(&val_ds), &config);
        assert_eq!(history.val_loss.len(), history.train_loss.len());
        assert!(history.stopped_at <= 50);
        assert!(history.best_val_loss().is_some());
    }

    #[test]
    fn early_stopping_returns_best_validation_weights() {
        // Early stopping fires `patience` epochs after the best epoch, so
        // the returned model must carry the best epoch's snapshot, not the
        // last epoch's weights. Pin it by retraining to exactly the best
        // epoch: the seeded schedule is a prefix-deterministic function of
        // the config, so a run truncated at the best epoch reproduces the
        // snapshot bit for bit.
        let train_ds = toy_dataset(6, 53);
        let val_ds = toy_dataset(3, 54);
        let make_model = || {
            ExtendedRouteNet::new(ModelConfig {
                state_dim: 8,
                mp_iterations: 1,
                readout_hidden: 8,
                ..ModelConfig::default()
            })
        };
        let run = |epochs: usize, patience: Option<usize>| {
            let mut model = make_model();
            let config = TrainConfig {
                patience,
                // Deliberately hot: validation must regress so the best
                // epoch lands strictly before the stop.
                learning_rate: 3e-2,
                ..quick_train_config(60)
            };
            let config = TrainConfig { epochs, ..config };
            let history = train(&mut model, &train_ds, Some(&val_ds), &config);
            (history, model)
        };
        let (history, stopped) = run(60, Some(1));
        assert!(history.stopped_at < 60, "early stop must fire");
        let best = history.best_val_loss().expect("validated");
        let best_epoch = history
            .val_loss
            .iter()
            .position(|&v| v == best)
            .expect("best epoch recorded");
        assert!(
            best_epoch + 1 < history.stopped_at,
            "stop fires after the best epoch (patience non-improving epochs later)"
        );

        // Truncated run: same schedule prefix, ends exactly at the best
        // epoch — its final weights ARE the snapshot.
        let (trunc_history, best_model) = run(best_epoch + 1, None);
        assert_eq!(
            trunc_history.val_loss.last().copied(),
            Some(best),
            "truncated run reproduces the best validation loss"
        );
        let plan = stopped.plan(&train_ds.samples[0]);
        assert_eq!(
            stopped.predict(&plan),
            best_model.predict(&plan),
            "early-stopped model must return the best-epoch weights"
        );
    }

    #[test]
    fn training_is_seed_deterministic() {
        let ds = toy_dataset(4, 55);
        let make = || {
            let mut model = ExtendedRouteNet::new(ModelConfig {
                state_dim: 8,
                mp_iterations: 1,
                readout_hidden: 8,
                seed: 3,
                ..ModelConfig::default()
            });
            let h = train(&mut model, &ds, None, &quick_train_config(3));
            (h.final_train_loss(), model)
        };
        let (loss_a, model_a) = make();
        let (loss_b, model_b) = make();
        assert_eq!(loss_a, loss_b);
        let plan = model_a.plan(&ds.samples[0]);
        assert_eq!(model_a.predict(&plan), model_b.predict(&plan));
    }

    #[test]
    fn megabatch_loss_and_gradients_are_the_mean_of_per_sample_ones() {
        // The `sample_mean_weights` contract: a batch slice's weighted loss
        // and gradients equal the mean over its labelled samples of each
        // sample's mean loss and gradient, computed on separate tapes.
        // Samples carry different numbers of labelled rows, and one none.
        // The slice is checked as composed by the trainer: uniform (one
        // megabatch), and with a two-class QoS sample beside the legacy ones
        // (one megabatch per step period, summed).
        let ds = toy_dataset(4, 57);
        let mut model = ExtendedRouteNet::new(ModelConfig {
            state_dim: 8,
            mp_iterations: 2,
            readout_hidden: 8,
            seed: 5,
            ..ModelConfig::default()
        });
        model.fit_preprocessing(&ds, 1);
        let mut plans: Vec<SamplePlan> = ds.samples.iter().map(|s| model.plan(s)).collect();
        plans[0].reliable_idx.truncate(3);
        plans[2].reliable_idx.clear();
        let qos_ds = generate(
            &topologies::toy5(),
            &GeneratorConfig {
                qos: Some(rn_dataset::QosGenConfig::two_class_mix()),
                ..toy_config()
            },
            59,
            1,
        );
        let qos_plan = model.plan(&qos_ds.samples[0]);
        assert!(qos_plan.num_queues > 0, "QoS sample must have queues");
        let mut mixed = plans.clone();
        mixed.insert(2, qos_plan);
        for (slice, megabatches) in [(&plans, 1), (&mixed, 2)] {
            mean_of_per_sample_losses_and_gradients(&model, slice, megabatches);
        }
    }

    fn mean_of_per_sample_losses_and_gradients(
        model: &ExtendedRouteNet,
        plans: &[SamplePlan],
        megabatches: usize,
    ) {
        let labelled: Vec<&SamplePlan> = plans
            .iter()
            .filter(|p| !p.reliable_idx.is_empty())
            .collect();
        let n = labelled.len() as f64;
        let mut mean_loss = 0.0;
        let mut mean_grads: Vec<Matrix> = Vec::new();
        for plan in &labelled {
            let mut g = Graph::new();
            let bound = model.bind(&mut g);
            let pred = model.forward(&mut g, &bound, plan);
            let reliable = g.gather_rows(pred, &plan.reliable_idx);
            let target = g.constant(plan.reliable_targets_norm());
            let loss = Loss::Mse.apply(&mut g, reliable, target);
            mean_loss += g.value(loss).get(0, 0) as f64 / n;
            g.backward(loss);
            let grads = model.grads(&g, &bound);
            if mean_grads.is_empty() {
                mean_grads = grads
                    .iter()
                    .map(|m| Matrix::zeros(m.rows(), m.cols()))
                    .collect();
            }
            for (acc, grad) in mean_grads.iter_mut().zip(&grads) {
                acc.add_assign(&grad.map(|v| v / n as f32));
            }
        }

        let comps = compose_slice(plans);
        assert_eq!(comps.len(), megabatches);
        let stages = rn_trace::StageRecorder::new(train_trace::STAGES);
        let (loss_sum, count, grads) = batch_gradients(
            model,
            &comps,
            Loss::Mse,
            labelled.len(),
            &TapePool::new(),
            &stages,
        )
        .expect("labelled megabatch");
        assert_eq!(count, labelled.len());
        let rel = (loss_sum / n - mean_loss).abs() / mean_loss.abs();
        assert!(rel < 1e-5, "loss {} vs {mean_loss}", loss_sum / n);
        let mut g = Graph::new();
        let (val_sum, val_count) = comps
            .iter()
            .map(|mb| megabatch_loss(model, mb, Loss::Mse, &mut g))
            .fold((0.0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
        assert_eq!(val_count, labelled.len());
        let rel = (val_sum / n - mean_loss).abs() / mean_loss.abs();
        assert!(rel < 1e-5, "validation loss {} vs {mean_loss}", val_sum / n);
        assert_eq!(grads.len(), mean_grads.len());
        for (i, (got, want)) in grads.iter().zip(&mean_grads).enumerate() {
            let scale = want.as_slice().iter().fold(0.0f32, |m, v| m.max(v.abs()));
            let worst = got
                .as_slice()
                .iter()
                .zip(want.as_slice())
                .fold(0.0f32, |m, (a, b)| m.max((a - b).abs()));
            assert!(
                worst <= 1e-5 * scale,
                "gradient {i}: max abs diff {worst:e} against magnitude {scale:e}"
            );
        }
    }

    #[test]
    fn non_finite_steps_are_skipped_and_never_reach_the_weights() {
        // One NaN input feature makes its batch's loss and gradient NaN;
        // that step is dropped, the others train, every weight stays finite.
        let ds = toy_dataset(6, 62);
        let mut model = ExtendedRouteNet::new(ModelConfig {
            state_dim: 8,
            mp_iterations: 2,
            readout_hidden: 8,
            ..ModelConfig::default()
        });
        model.fit_preprocessing(&ds, 1);
        let mut plans: Vec<SamplePlan> = ds.samples.iter().map(|s| model.plan(s)).collect();
        plans[0].path_init.set(0, 0, f32::NAN);
        let history = train_on_plans(&mut model, &plans, &quick_train_config(3));
        assert!(history.skipped_steps >= 1, "{history:?}");
        assert!(
            model
                .params()
                .iter()
                .all(|p| p.as_slice().iter().all(|v| v.is_finite())),
            "a non-finite step reached the weights"
        );
        assert!(
            history.train_loss.iter().all(|l| l.is_finite()),
            "{history:?}"
        );
    }

    #[test]
    fn megabatch_training_is_deterministic() {
        let ds = toy_dataset(6, 58);
        let make = |megabatch_size: usize| {
            let mut model = ExtendedRouteNet::new(ModelConfig {
                state_dim: 8,
                mp_iterations: 1,
                readout_hidden: 8,
                seed: 4,
                ..ModelConfig::default()
            });
            let mut config = quick_train_config(2);
            config.megabatch_size = megabatch_size;
            train(&mut model, &ds, None, &config);
            model
        };
        // Same megabatch size twice -> bitwise identical models.
        let a = make(3);
        let b = make(3);
        let plan = a.plan(&ds.samples[0]);
        assert_eq!(a.predict(&plan), b.predict(&plan));
    }

    #[test]
    fn batch_gradient_is_the_in_order_fold_of_megabatch_gradients() {
        // One step's merged gradient (megabatches run in parallel) must be
        // bit for bit the sequential fold of the per-megabatch gradients in
        // megabatch order — what makes training thread-count independent.
        let ds = toy_dataset(6, 61);
        let mut model = ExtendedRouteNet::new(ModelConfig {
            state_dim: 8,
            mp_iterations: 2,
            readout_hidden: 8,
            seed: 9,
            ..ModelConfig::default()
        });
        model.fit_preprocessing(&ds, 1);
        let plans: Vec<SamplePlan> = ds.samples.iter().map(|s| model.plan(s)).collect();
        let comps: Vec<MegabatchPlan> = plans.chunks(2).flat_map(compose_slice).collect();
        let labelled = plans.iter().filter(|p| !p.reliable_idx.is_empty()).count();
        let stages = rn_trace::StageRecorder::new(train_trace::STAGES);

        let (loss, count, grads) = batch_gradients(
            &model,
            &comps,
            Loss::Mse,
            labelled,
            &TapePool::new(),
            &stages,
        )
        .expect("labelled batch");

        let mut seq_loss = 0.0;
        let mut seq_count = 0;
        let mut seq_grads: Option<Vec<Matrix>> = None;
        for c in &comps {
            let mut g = Graph::new();
            let Some((l, n, mb_grads)) =
                megabatch_gradients(&model, c, Loss::Mse, labelled, &mut g, &stages)
            else {
                continue;
            };
            seq_loss += l;
            seq_count += n;
            match &mut seq_grads {
                None => seq_grads = Some(mb_grads),
                Some(acc) => {
                    for (a, g) in acc.iter_mut().zip(&mb_grads) {
                        a.add_assign(g);
                    }
                }
            }
        }
        let seq_grads = seq_grads.expect("labelled batch");
        assert_eq!(loss.to_bits(), seq_loss.to_bits());
        assert_eq!(count, seq_count);
        assert_eq!(grads.len(), seq_grads.len());
        for (i, (a, b)) in grads.iter().zip(&seq_grads).enumerate() {
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(a),
                bits(b),
                "gradient {i} differs from the in-order fold"
            );
        }
    }

    #[test]
    fn reused_tape_pool_stays_flat_across_predicts_and_training_steps() {
        // Every buffer a predict or a training step takes from a warm tape
        // must come back to it on reset: the free list neither grows (each
        // reuse would then leak, and a long-lived serving tape grows without
        // bound) nor shrinks.
        let ds = toy_dataset(2, 71);
        let mut model = ExtendedRouteNet::new(ModelConfig {
            state_dim: 8,
            mp_iterations: 2,
            readout_hidden: 8,
            ..ModelConfig::default()
        });
        model.fit_preprocessing(&ds, 1);
        let plans: Vec<SamplePlan> = ds.samples.iter().map(|s| model.plan(s)).collect();
        let comp = build_megabatch(&plans.iter().collect::<Vec<_>>());
        let stages = rn_trace::StageRecorder::new(train_trace::STAGES);
        let predict = |g: &mut Graph| {
            model.predict_with(g, &plans[0]);
        };
        let predict_batch = |g: &mut Graph| {
            model.predict_megabatch_with(g, &comp);
        };
        let train_step = |g: &mut Graph| {
            megabatch_gradients(&model, &comp, Loss::Mse, 2, g, &stages)
                .expect("labelled megabatch");
        };
        for (what, run) in [
            ("predict", &predict as &dyn Fn(&mut Graph)),
            ("megabatch predict", &predict_batch),
            ("training step", &train_step),
        ] {
            let mut g = Graph::new();
            run(&mut g);
            g.reset();
            let warm = g.pooled_buffers();
            for round in 0..5 {
                run(&mut g);
                g.reset();
                assert_eq!(g.pooled_buffers(), warm, "{what}, round {round}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn empty_training_set_is_rejected() {
        let ds = Dataset {
            topology: topologies::toy5(),
            samples: vec![],
        };
        let mut model = OriginalRouteNet::new(ModelConfig::default());
        train(&mut model, &ds, None, &TrainConfig::default());
    }
}

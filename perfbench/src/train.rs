//! The training workloads: `train_geant2` (the paper's own task) and
//! `train_qos_nsfnet` (the per-class queue entity on scheduled ports).
//!
//! A run sets the workload up [`SETUPS`] times (simulation and model
//! initialisation; the median is `setup_s`), then trains in *rounds*: each
//! round is one `routenet::train` call of a fixed size from the same
//! initial weights, and rounds repeat until `--seconds` have passed. Every
//! round must reproduce the first round's per-epoch losses bit for bit, so
//! the quality figures are exact for a seed while the time figures pool
//! every round. The last round's model is then evaluated on held-out
//! samples.

use crate::instrument::{self, StepClock};
use crate::probes;
use crate::report::{Provenance, Report};
use crate::stats;
use crate::Args;
use rn_dataset::{generate, Dataset, GeneratorConfig, QosGenConfig};
use rn_netgraph::{topologies, Topology};
use routenet::train_trace::{RunSummary, STAGES};
use routenet::{
    evaluate, train, ExtendedRouteNet, ModelConfig, PathPredictor, QosRouteNet, TrainConfig,
};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// One training workload's fixed inputs.
pub struct TrainSpec {
    /// Topology every sample is simulated on.
    pub topology: fn() -> Topology,
    /// Scheduling/ToS dimension of the generated scenarios.
    pub qos: Option<QosGenConfig>,
    /// Training samples.
    pub train_samples: usize,
    /// Held-out evaluation samples (a separate simulation stream).
    pub heldout_samples: usize,
    /// Epochs per round.
    pub epochs: usize,
}

/// `train_geant2`: extended RouteNet on GEANT2, the paper's task.
pub fn geant2_spec() -> TrainSpec {
    TrainSpec {
        topology: topologies::geant2_default,
        qos: None,
        train_samples: 48,
        heldout_samples: 16,
        epochs: 2,
    }
}

/// `train_qos_nsfnet`: the queue-entity model on SP/WFQ/DRR NSFNET
/// scenarios.
pub fn qos_nsfnet_spec() -> TrainSpec {
    TrainSpec {
        topology: topologies::nsfnet_default,
        qos: Some(QosGenConfig::two_class_mix()),
        train_samples: 64,
        heldout_samples: 16,
        epochs: 3,
    }
}

/// Master seed of the held-out stream, distinct from the training stream.
fn heldout_seed(seed: u64) -> u64 {
    rn_tensor::rng::splitmix64(seed ^ 0x4845_4c44_4f55_5421)
}

/// The generated inputs of one training workload.
pub struct TrainInputs {
    /// Training samples.
    pub train: Dataset,
    /// Held-out samples.
    pub heldout: Dataset,
    /// Seconds the simulator took to generate both.
    pub generate_s: f64,
}

/// Simulate the workload's datasets for `seed`.
pub fn generate_inputs(spec: &TrainSpec, seed: u64) -> TrainInputs {
    let topo = (spec.topology)();
    let config = GeneratorConfig {
        qos: spec.qos.clone(),
        ..GeneratorConfig::default()
    };
    let t = Instant::now();
    let train = generate(&topo, &config, seed, spec.train_samples);
    let heldout = generate(&topo, &config, heldout_seed(seed), spec.heldout_samples);
    TrainInputs {
        train,
        heldout,
        generate_s: t.elapsed().as_secs_f64(),
    }
}

/// Weight-initialisation seed of every workload's model. The model is
/// part of what is measured and stays fixed; `--seed` varies the simulated
/// data (and the trainer's shuffle), which is what a user varies.
pub const MODEL_SEED: u64 = 2019;

/// Paper-scale model configuration (state 32, T = 8, readout 64); a tiny
/// one for smoke runs.
pub fn model_config(args: &Args) -> ModelConfig {
    let base = if args.smoke {
        ModelConfig {
            state_dim: 8,
            mp_iterations: 2,
            readout_hidden: 16,
            ..ModelConfig::default()
        }
    } else {
        ModelConfig::paper_scale()
    };
    ModelConfig {
        seed: MODEL_SEED,
        ..base
    }
}

impl TrainSpec {
    /// This spec, shrunk to a few samples and one epoch for smoke runs.
    fn for_run(self, args: &Args) -> Self {
        if args.smoke {
            Self {
                train_samples: 4,
                heldout_samples: 2,
                epochs: 1,
                ..self
            }
        } else {
            self
        }
    }
}

/// Run `train_geant2`.
pub fn run_geant2(args: &Args, prov: &mut Provenance) -> Report {
    run::<ExtendedRouteNet>(
        &geant2_spec().for_run(args),
        ExtendedRouteNet::new,
        args,
        prov,
    )
}

/// Run `train_qos_nsfnet`.
pub fn run_qos_nsfnet(args: &Args, prov: &mut Provenance) -> Report {
    run::<QosRouteNet>(
        &qos_nsfnet_spec().for_run(args),
        QosRouteNet::new,
        args,
        prov,
    )
}

/// Trainer stage totals and backward op-kind totals summed over traced
/// rounds.
#[derive(Default)]
struct TraceTotals {
    stage_ms: Vec<f64>,
    op_kind_ms: Vec<(String, f64)>,
    steps: usize,
    wall_ms: f64,
}

impl TraceTotals {
    fn add(&mut self, summary: &RunSummary, steps: usize, wall_ms: f64) {
        if self.stage_ms.is_empty() {
            self.stage_ms = vec![0.0; STAGES.len()];
            self.op_kind_ms = summary
                .op_kinds
                .iter()
                .map(|k| (k.name.clone(), 0.0))
                .collect();
        }
        for (acc, s) in self.stage_ms.iter_mut().zip(&summary.stages) {
            *acc += s.total_ms;
        }
        for (acc, k) in self.op_kind_ms.iter_mut().zip(&summary.op_kinds) {
            acc.1 += k.total_ms;
        }
        self.steps += steps;
        self.wall_ms += wall_ms;
    }

    fn stage(&self, name: &str) -> f64 {
        STAGES
            .iter()
            .position(|s| *s == name)
            .map_or(0.0, |i| self.stage_ms[i])
    }
}

/// Read the run summary (last line) of a trainer trace stream.
fn read_summary(path: &Path) -> Option<RunSummary> {
    let text = std::fs::read_to_string(path).ok()?;
    let last = text.lines().rev().find(|l| l.contains("\"summary\""))?;
    serde_json::from_str(last).ok()
}

fn run<M: PathPredictor>(
    spec: &TrainSpec,
    new_model: fn(ModelConfig) -> M,
    args: &Args,
    prov: &mut Provenance,
) -> Report {
    let mut report = Report::default();
    let config = TrainConfig {
        epochs: spec.epochs,
        seed: args.seed,
        ..TrainConfig::default()
    };

    // ---- set-up, repeated --------------------------------------------------
    let mut setup_s = Vec::new();
    let mut generate_s = Vec::new();
    let mut digests = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let t = Instant::now();
        let inputs = generate_inputs(spec, args.seed);
        let model = new_model(model_config(args));
        setup_s.push(t.elapsed().as_secs_f64());
        generate_s.push(inputs.generate_s);
        digests.push(instrument::label_digest(
            inputs.train.samples.iter().chain(&inputs.heldout.samples),
        ));
        last = Some((inputs, model));
    }
    let (inputs, model) = last.expect("at least one set-up");
    report.check(digests.iter().all(|&d| d == digests[0]), || {
        format!("label digests differ across set-ups of one seed: {digests:x?}")
    });
    prov.add("dataset.label_digest", &format!("{:016x}", digests[0]));
    prov.add("train_samples", &spec.train_samples.to_string());
    prov.add("heldout_samples", &spec.heldout_samples.to_string());
    prov.add("epochs_per_round", &spec.epochs.to_string());
    eprintln!(
        "[perfbench] set-up x{SETUPS}: {:?} s (simulation {:?} s)",
        setup_s, generate_s
    );

    // ---- timed rounds -----------------------------------------------------
    // In a traced run, rounds alternate tracing off and on: the off rounds
    // give the untraced baseline for the overhead figure and the bitwise
    // loss comparison, the on rounds the stage breakdown.
    let trace_path = trace_file(args);
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut reference: Option<Vec<f64>> = None;
    let mut gaps_ms = Vec::new();
    let (mut steps_off, mut wall_off, mut steps_on, mut wall_on) = (0usize, 0.0, 0usize, 0.0);
    let mut totals = TraceTotals::default();
    let mut trained = None;
    let mut round = 0usize;
    while round == 0 || Instant::now() < deadline || (args.trace && round < 2) {
        let traced = args.trace && round % 2 == 1;
        rn_trace::set_enabled(traced);
        let mut clocked = StepClock::new(model.clone());
        let round_config = TrainConfig {
            trace_out: traced.then(|| trace_path.display().to_string()),
            ..config.clone()
        };
        let t = Instant::now();
        let history = train(&mut clocked, &inputs.train, None, &round_config);
        let wall = t.elapsed().as_secs_f64();
        rn_trace::set_enabled(false);

        let sample_steps = inputs.train.len() * history.train_loss.len();
        if traced {
            steps_on += sample_steps;
            wall_on += wall;
            match read_summary(&trace_path) {
                Some(summary) => totals.add(&summary, clocked.steps(), wall * 1e3),
                None => report.check(false, || "traced round wrote no run summary".into()),
            }
        } else {
            steps_off += sample_steps;
            wall_off += wall;
            gaps_ms.extend(clocked.step_gaps_ms());
        }
        // One operation per epoch: its loss must be finite and equal, bit
        // for bit, to the first round's loss of that epoch.
        let reference = reference.get_or_insert_with(|| history.train_loss.clone());
        report.check(history.train_loss.len() == spec.epochs, || {
            format!(
                "round {round} stopped after {} epochs",
                history.train_loss.len()
            )
        });
        for (e, loss) in history.train_loss.iter().enumerate() {
            let same = reference.get(e).map(|r| r.to_bits()) == Some(loss.to_bits());
            report.op(loss.is_finite() && same);
        }
        eprintln!(
            "[perfbench] round {round} ({}): {sample_steps} sample-steps in {wall:.3} s, \
             loss {:?}",
            if traced { "traced" } else { "untraced" },
            history.train_loss
        );
        trained = Some(clocked.inner);
        round += 1;
    }
    rn_trace::set_enabled(args.trace);
    let trained = trained.expect("at least one round");
    let final_loss = reference.as_ref().and_then(|r| r.last().copied());
    // The exact bits let an untraced and a traced run of one seed be
    // compared from their provenance lines.
    prov.add(
        "final_train_loss_bits",
        &format!("{:016x}", final_loss.unwrap_or(f64::NAN).to_bits()),
    );

    // ---- held-out evaluation ----------------------------------------------
    let eval = evaluate(&trained, &inputs.heldout, "heldout", config.min_packets);
    let heldout_err = eval.median_abs_rel();
    report.op(heldout_err.is_finite() && eval.num_paths() > 0);

    if !args.trace {
        report.metric("setup_s", stats::median(&setup_s).unwrap_or(0.0), "s");
        report.metric("throughput_per_s", steps_off as f64 / wall_off, "1/s");
        report.metric(
            "latency_p50_ms",
            stats::median(&gaps_ms).unwrap_or(0.0),
            "ms",
        );
        report.metric("median_abs_rel_err", heldout_err, "ratio");
        return report;
    }

    // ---- per-layer figures (traced run) -------------------------------------
    let gen_s = stats::median(&generate_s).unwrap_or(0.0);
    let all: Vec<_> = inputs
        .train
        .samples
        .iter()
        .chain(&inputs.heldout.samples)
        .cloned()
        .collect();
    report.metric("dataset.generate_s", gen_s, "s");
    report.metric(
        "netsim.delivered_pkts_per_s",
        instrument::delivered_packets(&all) as f64 / gen_s,
        "1/s",
    );
    let mut fitted = model.clone();
    fitted.fit_preprocessing(&inputs.train, config.min_packets);
    let (plan_ms, plans) = probes::time_plans(&fitted, &inputs.train.samples);
    report.metric("entities.plan_ms", plan_ms, "ms");
    // Chunked the way the trainer shards a batch.
    report.metric(
        "compose.build_ms",
        probes::time_compose(&plans, config.megabatch_size),
        "ms",
    );

    let steps = totals.steps.max(1) as f64;
    let per_step = |ms: f64| ms / steps;
    let fwd = totals.stage("forward");
    let bwd = totals.stage("backward");
    let busy: f64 = totals.stage_ms.iter().sum();
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1) as f64;
    report.metric(
        "trainer.compose_wait_ms",
        per_step(totals.stage("compose_wait")),
        "ms",
    );
    report.metric("trainer.forward_ms", per_step(fwd), "ms");
    report.metric("trainer.backward_ms", per_step(bwd), "ms");
    report.metric(
        "trainer.optimizer_ms",
        per_step(totals.stage("optimizer")),
        "ms",
    );
    report.metric(
        "trainer.bwd_fwd_ratio",
        if fwd > 0.0 { bwd / fwd } else { 0.0 },
        "ratio",
    );
    report.metric("trainer.busy_ms", per_step(busy), "ms");
    report.metric(
        "trainer.wall_x_workers_ms",
        per_step(totals.wall_ms * workers),
        "ms",
    );
    report.metric(
        "trainer.busy_over_wall",
        busy / (totals.wall_ms * workers).max(f64::MIN_POSITIVE),
        "ratio",
    );
    report.metric("trainer.steps", totals.steps as f64, "count");
    for (kind, ms) in &totals.op_kind_ms {
        report.metric(&format!("autograd.bwd.{kind}_ms"), per_step(*ms), "ms");
    }
    report.metric(
        "trainer.final_train_loss",
        final_loss.unwrap_or(f64::NAN),
        "loss",
    );
    let off = steps_off as f64 / wall_off;
    let on = steps_on as f64 / wall_on;
    report.metric("trace.overhead_pct", (on - off) / off * 100.0, "%");
    let _ = std::fs::remove_file(&trace_path);
    report
}

/// Where a traced round's trainer stream goes: inside the build directory
/// the benchmark already writes to.
fn trace_file(args: &Args) -> PathBuf {
    let dir = crate::scratch_dir();
    dir.join(format!("train_trace_{}_{}.jsonl", args.workload, args.seed))
}

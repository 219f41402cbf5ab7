//! RouteNet: one model over paths, links and an entity set of nodes and
//! queues.
//!
//! [`RouteNet<E>`] is the paper's model family in one type. The entity set
//! `E` says which entities the model has beyond paths and links: the
//! original RouteNet ([`Original`]) has none, the paper's extended RouteNet
//! ([`Extended`]) adds the node entity (`RNN_N`), and the QoS model
//! ([`Qos`]) adds a per-(link, class) queue entity (`RNN_Q`) on top. Every
//! plan carries one interleaved path sequence (node, queue if any, link per
//! hop); a model walks it and skips the positions of entities it lacks, so
//! the original model reads exactly the links of each path.

use crate::config::{ModelConfig, NodeUpdate};
use crate::entities::{
    build_megabatch, build_plan, EntityKind, MegabatchPlan, PlanConfig, SamplePlan, TargetKind,
};
use crate::features::FeatureScales;
use rn_autograd::{Graph, Var};
use rn_dataset::{Dataset, Normalizer, Sample};
use rn_nn::{Activation, BoundGruCell, BoundMlp, GruCell, Layer, Mlp};
use rn_tensor::{Matrix, Prng};
use serde::value::{DeError, Value};
use serde::{Deserialize, Serialize};
use std::fmt::Debug;
use std::marker::PhantomData;

/// Common interface of the RouteNet variants: bindable layers plus a
/// plan-driven forward pass producing one normalized prediction per path.
pub trait PathPredictor: Layer + Clone + Send + Sync {
    /// Short identifier used in reports ("original" / "extended" / "qos").
    fn name(&self) -> &'static str;

    /// The hyper-parameters.
    fn config(&self) -> &ModelConfig;

    /// The preprocessing state (feature scales + target normalizer).
    fn preprocessing(&self) -> (&FeatureScales, &Normalizer);

    /// Fit feature scales and the target normalizer on the training set.
    /// Must be called before training; stored with the model thereafter.
    fn fit_preprocessing(&mut self, train: &Dataset, min_packets: u64);

    /// Replace the target normalizer (used when training on a different
    /// target, e.g. jitter, after `fit_preprocessing` fitted delay).
    fn set_normalizer(&mut self, normalizer: Normalizer);

    /// Forward pass on the tape: returns the `n_paths x 1` normalized
    /// prediction node. Uses the fused hot-path ops; accepts single-sample
    /// plans and block-diagonal megabatch plans alike.
    fn forward(&self, g: &mut Graph, bound: &Self::Bound, plan: &SamplePlan) -> Var;

    /// The pre-fusion op-by-op forward pass. Numerically equivalent to
    /// [`PathPredictor::forward`] (the golden-equivalence tests pin this
    /// down); kept as the reference implementation and for the
    /// before/after benchmark.
    fn forward_unfused(&self, g: &mut Graph, bound: &Self::Bound, plan: &SamplePlan) -> Var;

    /// Build the message-passing plan for one sample using this model's
    /// preprocessing state.
    fn plan(&self, sample: &Sample) -> SamplePlan {
        let (scales, normalizer) = self.preprocessing();
        let cfg = PlanConfig::new(self.config(), scales, normalizer);
        build_plan(sample, &cfg)
    }

    /// Plan with an explicit target kind (delay or jitter).
    fn plan_for_target(&self, sample: &Sample, target: TargetKind) -> SamplePlan {
        let (scales, normalizer) = self.preprocessing();
        let mut cfg = PlanConfig::new(self.config(), scales, normalizer);
        cfg.target = target;
        build_plan(sample, &cfg)
    }

    /// Inference: predicted raw (denormalized) targets for every path.
    fn predict(&self, plan: &SamplePlan) -> Vec<f64> {
        let mut g = Graph::new();
        self.predict_with(&mut g, plan)
    }

    /// Inference on a caller-provided (pooled) tape. The tape is reset
    /// first, so a worker can reuse one tape across a stream of samples
    /// without reallocating. Runs in the tape's inference mode: GRU
    /// activations are recycled as soon as each step's value exists, so the
    /// working set stays cache-sized even for megabatches (values are
    /// bitwise identical to a training-mode forward).
    fn predict_with(&self, g: &mut Graph, plan: &SamplePlan) -> Vec<f64> {
        g.reset();
        g.set_inference_mode(true);
        let bound = self.bind(g);
        let pred = self.forward(g, &bound, plan);
        let (_, normalizer) = self.preprocessing();
        let out = g
            .value(pred)
            .as_slice()
            .iter()
            .map(|&v| normalizer.denormalize(v as f64))
            .collect();
        g.set_inference_mode(false);
        out
    }

    /// Batched inference: packs `plans` into one block-diagonal megabatch,
    /// runs a single forward pass (one parameter bind amortized over the
    /// batch, B-fold taller matmuls), and splits the predictions back per
    /// sample. Output `[i]` equals `self.predict(&plans[i])` to f32
    /// round-off.
    fn predict_batch(&self, plans: &[SamplePlan]) -> Vec<Vec<f64>> {
        let mut g = Graph::new();
        self.predict_batch_with(&mut g, plans)
    }

    /// Batched inference on a caller-provided (pooled) tape. Megabatch
    /// buffers are large enough that allocator reuse matters: a worker
    /// holding one tape across a stream of batches runs allocation-free.
    fn predict_batch_with(&self, g: &mut Graph, plans: &[SamplePlan]) -> Vec<Vec<f64>> {
        let parts: Vec<&SamplePlan> = plans.iter().collect();
        self.predict_batch_refs_with(g, &parts)
    }

    /// Batched inference over borrowed plans on a caller-provided (pooled)
    /// tape — the steady-state serving hot path, which holds plans behind
    /// `Arc`s in a shared cache: one bind per batch, fused block-diagonal
    /// forward, allocation-free once the pool is warm. Results are
    /// identical to [`PathPredictor::predict_batch`] element for element.
    fn predict_batch_refs_with(&self, g: &mut Graph, plans: &[&SamplePlan]) -> Vec<Vec<f64>> {
        if plans.is_empty() {
            return Vec::new();
        }
        if plans.len() == 1 {
            return vec![self.predict_with(g, plans[0])];
        }
        let mb = build_megabatch(plans);
        self.predict_megabatch_with(g, &mb)
    }

    /// Batched inference over an **already composed** megabatch — the entry
    /// point the composition layer (`crate::compose`) feeds: a serving
    /// worker that checked a cached [`crate::compose::ComposedMegabatch`]
    /// out of the composition cache and refilled its features runs this
    /// instead of re-planning, with bitwise-identical results to
    /// [`PathPredictor::predict_batch_refs_with`] over the same parts.
    fn predict_megabatch_with(&self, g: &mut Graph, mb: &MegabatchPlan) -> Vec<Vec<f64>> {
        g.reset();
        g.set_inference_mode(true);
        let bound = self.bind(g);
        let pred = self.forward(g, &bound, &mb.plan);
        let (_, normalizer) = self.preprocessing();
        let values = g.value(pred).as_slice();
        let out = mb
            .path_ranges
            .iter()
            .map(|&(start, end)| {
                values[start..end]
                    .iter()
                    .map(|&v| normalizer.denormalize(v as f64))
                    .collect()
            })
            .collect();
        g.set_inference_mode(false);
        out
    }
}

// ---------------------------------------------------------------------------
// Entity sets
// ---------------------------------------------------------------------------

/// Which entities a [`RouteNet`] has beyond paths and links. Implemented by
/// zero-sized markers; the constants fix the model's GRUs, its parameter
/// order and the sequence positions it reads.
pub trait EntitySet: Debug + Clone + Send + Sync + 'static {
    /// Report name of the variant ("original" / "extended" / "qos").
    const NAME: &'static str;
    /// The node entity (`RNN_N`, the paper's extension).
    const NODES: bool;
    /// The per-(link, class) queue entity (`RNN_Q`).
    const QUEUES: bool;
}

/// The original RouteNet: paths and links only. Node features (queue sizes)
/// are invisible to it — exactly the limitation the paper demonstrates.
#[derive(Debug, Clone, Copy)]
pub struct Original;

/// The paper's extended RouteNet: adds the node entity, whose states the
/// path sequences interleave with the links'.
#[derive(Debug, Clone, Copy)]
pub struct Extended;

/// The QoS-aware RouteNet: adds a per-(link, class) queue entity on top of
/// the extended model, so message passing sees the scheduler configuration
/// (policy shares, class ranks) of every output port.
#[derive(Debug, Clone, Copy)]
pub struct Qos;

impl EntitySet for Original {
    const NAME: &'static str = "original";
    const NODES: bool = false;
    const QUEUES: bool = false;
}

impl EntitySet for Extended {
    const NAME: &'static str = "extended";
    const NODES: bool = true;
    const QUEUES: bool = false;
}

impl EntitySet for Qos {
    const NAME: &'static str = "qos";
    const NODES: bool = true;
    const QUEUES: bool = true;
}

/// The original RouteNet (paths and links).
pub type OriginalRouteNet = RouteNet<Original>;
/// The paper's extended RouteNet (adds nodes).
pub type ExtendedRouteNet = RouteNet<Extended>;
/// The QoS-aware RouteNet (adds nodes and queues).
pub type QosRouteNet = RouteNet<Qos>;

// ---------------------------------------------------------------------------
// Message passing
// ---------------------------------------------------------------------------

/// Entity states entering one path sweep. Node and queue states exist only
/// for entities the model has (queues also only on plans with queues).
#[derive(Clone, Copy)]
struct States {
    path: Var,
    link: Var,
    node: Option<Var>,
    queue: Option<Var>,
}

impl States {
    /// The states a sequence position of `kind` reads, or `None` when the
    /// model lacks that entity and the position is skipped.
    fn of(&self, kind: EntityKind) -> Option<Var> {
        match kind {
            EntityKind::Link => Some(self.link),
            EntityKind::Node => self.node,
            EntityKind::Queue => self.queue,
        }
    }
}

/// What one path sweep produces: the final path states and the per-entity
/// message sums (`node` only when node messages are collected, `queue` only
/// when the sweep read queue states).
struct Messages {
    path: Var,
    link: Var,
    node: Option<Var>,
    queue: Option<Var>,
}

/// Run one fused path-RNN sweep over the plan's precompiled CSR steps,
/// accumulating per-entity message sums.
///
/// Three tape nodes per sequence position (`gather_rows`, `gru_step_rows`,
/// `segment_acc_rows`) instead of the ~20 the unfused sweep records — this
/// is the training hot path. Positions of entities the model lacks are
/// skipped without recording anything.
fn path_sweep(
    g: &mut Graph,
    gru_path: &BoundGruCell,
    plan: &SamplePlan,
    states: States,
    collect_node_messages: bool,
) -> Messages {
    let csr = &plan.csr;
    let state_dim = g.value(states.link).cols();
    let mut path_state = states.path;
    let mut link_acc = g.constant_with(plan.num_links, state_dim, |_| {});
    let mut node_acc = (collect_node_messages && states.node.is_some())
        .then(|| g.constant_with(plan.num_nodes, state_dim, |_| {}));
    let mut queue_acc = states
        .queue
        .map(|_| g.constant_with(plan.num_queues, state_dim, |_| {}));
    let gru_vars = gru_path.vars();
    for s in 0..csr.len() {
        let Some(entity_states) = states.of(csr.kinds[s]) else {
            continue;
        };
        if csr.active[s] == 0 {
            continue;
        }
        // Row compaction: gather states for the *active* rows only, advance
        // only those rows through the GRU, and scatter only their messages.
        // Padded rows never touch a kernel. Every step binds Arc-backed views
        // of the compiled CSR buffers, so per-step index traffic is refcount
        // bumps, not copies.
        let (rows, ids) = (csr.shared_active_rows(s), csr.shared_active_ids(s));
        let x = g.gather_rows(entity_states, &ids);
        path_state = g.gru_step_rows(&gru_vars, path_state, x, &rows);
        // The post-step hidden state is the message to this position's entity.
        let acc = match csr.kinds[s] {
            EntityKind::Link => Some(&mut link_acc),
            EntityKind::Node => node_acc.as_mut(),
            EntityKind::Queue => queue_acc.as_mut(),
        };
        if let Some(acc) = acc {
            *acc = g.segment_acc_rows(*acc, path_state, rows, ids);
        }
    }
    Messages {
        path: path_state,
        link: link_acc,
        node: node_acc,
        queue: queue_acc,
    }
}

/// The pre-fusion sweep, op by op — the numerical reference for
/// [`path_sweep`] and the "before" side of the training-step benchmark.
fn path_sweep_unfused(
    g: &mut Graph,
    gru_path: &BoundGruCell,
    plan: &SamplePlan,
    states: States,
    collect_node_messages: bool,
) -> Messages {
    let state_dim = g.value(states.link).cols();
    let zeros = |g: &mut Graph, rows: usize| g.constant(Matrix::zeros(rows, state_dim));
    let mut path_state = states.path;
    let mut link_acc = zeros(g, plan.num_links);
    let mut node_acc =
        (collect_node_messages && states.node.is_some()).then(|| zeros(g, plan.num_nodes));
    let mut queue_acc = states.queue.map(|_| zeros(g, plan.num_queues));
    for step in &plan.steps {
        let Some(entity_states) = states.of(step.kind) else {
            continue;
        };
        if step.active == 0 {
            continue;
        }
        let x_raw = g.gather_rows(entity_states, &step.ids);
        let x = g.mask_rows(x_raw, &step.mask);
        path_state = gru_path.step_masked(g, path_state, x, &step.mask);
        // The post-step hidden state is the message to this position's entity.
        let msg = g.mask_rows(path_state, &step.mask);
        let (acc, count) = match step.kind {
            EntityKind::Link => (Some(&mut link_acc), plan.num_links),
            EntityKind::Node => (node_acc.as_mut(), plan.num_nodes),
            EntityKind::Queue => (queue_acc.as_mut(), plan.num_queues),
        };
        if let Some(acc) = acc {
            let contribution = g.segment_sum(msg, &step.ids, count);
            *acc = g.add(*acc, contribution);
        }
    }
    Messages {
        path: path_state,
        link: link_acc,
        node: node_acc,
        queue: queue_acc,
    }
}

// ---------------------------------------------------------------------------
// The model
// ---------------------------------------------------------------------------

/// RouteNet over the entity set `E`: a path GRU, a link GRU, a node GRU and
/// a queue GRU for the entities `E` has, and an MLP readout.
///
/// Parameters are drawn from the seed stream, bound on the tape and listed
/// in one order: path, link, node (if any), readout, queue (if any). At
/// equal seed the QoS model therefore shares every parameter bit with the
/// extended model, and on plans without queues (legacy and single-class
/// FIFO scenarios) it records the extended model's tape node for node —
/// the queue GRU is bound last and no queue op runs.
#[derive(Debug, Clone)]
pub struct RouteNet<E: EntitySet> {
    config: ModelConfig,
    scales: FeatureScales,
    normalizer: Normalizer,
    gru_path: GruCell,
    gru_link: GruCell,
    gru_node: Option<GruCell>,
    readout: Mlp,
    gru_queue: Option<GruCell>,
    entities: PhantomData<E>,
}

/// Tape bindings for a [`RouteNet`].
#[derive(Debug, Clone)]
pub struct BoundRouteNet {
    gru_path: BoundGruCell,
    gru_link: BoundGruCell,
    gru_node: Option<BoundGruCell>,
    readout: BoundMlp,
    gru_queue: Option<BoundGruCell>,
}

impl<E: EntitySet> RouteNet<E> {
    /// Fresh model with Xavier-initialized weights.
    pub fn new(config: ModelConfig) -> Self {
        config.validate().expect("invalid model config");
        let d = config.state_dim;
        let h = config.readout_hidden;
        let mut rng = Prng::new(config.seed);
        let gru_path = GruCell::new(&mut rng, d, d);
        let gru_link = GruCell::new(&mut rng, d, d);
        let gru_node = E::NODES.then(|| GruCell::new(&mut rng, d, d));
        let readout = Mlp::new(
            &mut rng,
            &[d, h, h, 1],
            Activation::Selu,
            Activation::Identity,
        );
        let gru_queue = E::QUEUES.then(|| GruCell::new(&mut rng, d, d));
        Self {
            config,
            scales: FeatureScales::unit(),
            normalizer: Normalizer::identity(),
            gru_path,
            gru_link,
            gru_node,
            readout,
            gru_queue,
            entities: PhantomData,
        }
    }

    /// The forward pass shared by [`PathPredictor::forward`] (`fused`) and
    /// [`PathPredictor::forward_unfused`].
    fn propagate(
        &self,
        g: &mut Graph,
        bound: &BoundRouteNet,
        plan: &SamplePlan,
        fused: bool,
    ) -> Var {
        // Pooled copies: the plan may be a cached composition shared behind
        // an Arc, so the tape takes its own (recycled) buffers.
        let mut states = States {
            path: g.constant_copy(&plan.path_init),
            link: g.constant_copy(&plan.link_init),
            node: bound.gru_node.map(|_| g.constant_copy(&plan.node_init)),
            queue: (bound.gru_queue.is_some() && plan.num_queues > 0)
                .then(|| g.constant_copy(&plan.queue_init)),
        };
        let positional = self.config.node_update == NodeUpdate::PositionalMessages;
        let step = |g: &mut Graph, gru: &BoundGruCell, h: Var, x: Var| {
            if fused {
                gru.step_fused(g, h, x)
            } else {
                gru.step(g, h, x)
            }
        };
        for _ in 0..self.config.mp_iterations {
            let sweep = if fused {
                path_sweep(g, &bound.gru_path, plan, states, positional)
            } else {
                path_sweep_unfused(g, &bound.gru_path, plan, states, positional)
            };
            states.path = sweep.path;
            let node_input = states.node.map(|_| {
                sweep.node.unwrap_or_else(|| {
                    // Paper wording: element-wise sum of the (final) path
                    // states of all paths traversing the node.
                    let gathered = g.gather_rows(states.path, &plan.node_incidence_paths);
                    g.segment_sum(gathered, &plan.node_incidence_nodes, plan.num_nodes)
                })
            });
            states.link = step(g, &bound.gru_link, states.link, sweep.link);
            if let (Some(gru), Some(h), Some(x)) = (&bound.gru_node, states.node, node_input) {
                states.node = Some(step(g, gru, h, x));
            }
            if let (Some(gru), Some(h), Some(x)) = (&bound.gru_queue, states.queue, sweep.queue) {
                states.queue = Some(step(g, gru, h, x));
            }
        }
        bound.readout.forward(g, states.path)
    }
}

impl<E: EntitySet> Layer for RouteNet<E> {
    type Bound = BoundRouteNet;

    fn bind(&self, g: &mut Graph) -> BoundRouteNet {
        BoundRouteNet {
            gru_path: self.gru_path.bind(g),
            gru_link: self.gru_link.bind(g),
            gru_node: self.gru_node.as_ref().map(|gru| gru.bind(g)),
            readout: self.readout.bind(g),
            gru_queue: self.gru_queue.as_ref().map(|gru| gru.bind(g)),
        }
    }

    fn params(&self) -> Vec<&Matrix> {
        let mut p = self.gru_path.params();
        p.extend(self.gru_link.params());
        p.extend(self.gru_node.iter().flat_map(GruCell::params));
        p.extend(self.readout.params());
        p.extend(self.gru_queue.iter().flat_map(GruCell::params));
        p
    }

    fn params_mut(&mut self) -> Vec<&mut Matrix> {
        let mut p = self.gru_path.params_mut();
        p.extend(self.gru_link.params_mut());
        p.extend(self.gru_node.iter_mut().flat_map(GruCell::params_mut));
        p.extend(self.readout.params_mut());
        p.extend(self.gru_queue.iter_mut().flat_map(GruCell::params_mut));
        p
    }

    fn bound_vars(bound: &BoundRouteNet) -> Vec<Var> {
        let mut v = GruCell::bound_vars(&bound.gru_path);
        v.extend(GruCell::bound_vars(&bound.gru_link));
        v.extend(bound.gru_node.iter().flat_map(GruCell::bound_vars));
        v.extend(Mlp::bound_vars(&bound.readout));
        v.extend(bound.gru_queue.iter().flat_map(GruCell::bound_vars));
        v
    }
}

impl<E: EntitySet> PathPredictor for RouteNet<E> {
    fn name(&self) -> &'static str {
        E::NAME
    }

    fn config(&self) -> &ModelConfig {
        &self.config
    }

    fn preprocessing(&self) -> (&FeatureScales, &Normalizer) {
        (&self.scales, &self.normalizer)
    }

    fn fit_preprocessing(&mut self, train: &Dataset, min_packets: u64) {
        self.scales = FeatureScales::fit(train);
        let delays = train.all_delays(min_packets);
        let positive: Vec<f64> = delays.into_iter().filter(|&d| d > 0.0).collect();
        assert!(
            !positive.is_empty(),
            "training set has no positive delay labels"
        );
        self.normalizer = Normalizer::fit(&positive, true);
    }

    fn set_normalizer(&mut self, normalizer: Normalizer) {
        self.normalizer = normalizer;
    }

    fn forward(&self, g: &mut Graph, bound: &BoundRouteNet, plan: &SamplePlan) -> Var {
        self.propagate(g, bound, plan, true)
    }

    fn forward_unfused(&self, g: &mut Graph, bound: &BoundRouteNet, plan: &SamplePlan) -> Var {
        self.propagate(g, bound, plan, false)
    }
}

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

/// The saved form of a [`RouteNet`]: the fields, names and order of the
/// per-variant structs the generic model replaced, so their files load
/// unchanged and a saved file is byte for byte what they wrote. An absent
/// GRU is an absent field.
#[derive(Serialize, Deserialize)]
struct SavedRouteNet {
    config: ModelConfig,
    scales: FeatureScales,
    normalizer: Normalizer,
    gru_path: GruCell,
    gru_link: GruCell,
    gru_node: Option<GruCell>,
    readout: Mlp,
    gru_queue: Option<GruCell>,
}

impl<E: EntitySet> Serialize for RouteNet<E> {
    fn serialize_value(&self) -> Value {
        let saved = SavedRouteNet {
            config: self.config.clone(),
            scales: self.scales.clone(),
            normalizer: self.normalizer.clone(),
            gru_path: self.gru_path.clone(),
            gru_link: self.gru_link.clone(),
            gru_node: self.gru_node.clone(),
            readout: self.readout.clone(),
            gru_queue: self.gru_queue.clone(),
        };
        match saved.serialize_value() {
            Value::Object(mut fields) => {
                // Only the optional GRUs can be null at the top level.
                fields.retain(|(_, v)| *v != Value::Null);
                Value::Object(fields)
            }
            other => other,
        }
    }
}

impl<'de, E: EntitySet> Deserialize<'de> for RouteNet<E> {
    fn deserialize_value(v: &Value) -> Result<Self, DeError> {
        let saved = SavedRouteNet::deserialize_value(v)?;
        let found = (saved.gru_node.is_some(), saved.gru_queue.is_some());
        if found != (E::NODES, E::QUEUES) {
            let variant = match found {
                (false, false) => Original::NAME,
                (true, false) => Extended::NAME,
                (true, true) => Qos::NAME,
                (false, true) => "queues-without-nodes",
            };
            return Err(DeError::new(format!(
                "saved model is the `{variant}` RouteNet variant, not `{}`",
                E::NAME
            )));
        }
        Ok(Self {
            config: saved.config,
            scales: saved.scales,
            normalizer: saved.normalizer,
            gru_path: saved.gru_path,
            gru_link: saved.gru_link,
            gru_node: saved.gru_node,
            readout: saved.readout,
            gru_queue: saved.gru_queue,
            entities: PhantomData,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rn_dataset::{generate, GeneratorConfig};
    use rn_netgraph::topologies;
    use rn_netsim::SimConfig;

    fn toy_dataset(n: usize) -> Dataset {
        let config = GeneratorConfig {
            sim: SimConfig {
                duration_s: 60.0,
                warmup_s: 10.0,
                ..SimConfig::default()
            },
            ..GeneratorConfig::default()
        };
        generate(&topologies::toy5(), &config, 41, n)
    }

    fn small_config() -> ModelConfig {
        ModelConfig {
            state_dim: 8,
            mp_iterations: 2,
            readout_hidden: 8,
            ..ModelConfig::default()
        }
    }

    #[test]
    fn both_models_produce_one_prediction_per_path() {
        let ds = toy_dataset(1);
        let mut original = OriginalRouteNet::new(small_config());
        let mut extended = ExtendedRouteNet::new(small_config());
        original.fit_preprocessing(&ds, 5);
        extended.fit_preprocessing(&ds, 5);

        let plan_o = original.plan(&ds.samples[0]);
        let plan_e = extended.plan(&ds.samples[0]);
        assert_eq!(original.predict(&plan_o).len(), 20);
        assert_eq!(extended.predict(&plan_e).len(), 20);
    }

    #[test]
    fn predictions_are_finite_and_positive() {
        let ds = toy_dataset(1);
        let mut model = ExtendedRouteNet::new(small_config());
        model.fit_preprocessing(&ds, 5);
        let plan = model.plan(&ds.samples[0]);
        for p in model.predict(&plan) {
            assert!(p.is_finite() && p > 0.0, "prediction {p}");
        }
    }

    #[test]
    fn extended_model_reacts_to_queue_sizes_original_does_not() {
        // Flip every node's queue profile; the extended model's output must
        // change, the original's must not (it cannot see node features).
        let ds = toy_dataset(1);
        let mut sample_b = ds.samples[0].clone();
        sample_b.queue_capacities = vec![1; 5];

        let mut original = OriginalRouteNet::new(small_config());
        let mut extended = ExtendedRouteNet::new(small_config());
        original.fit_preprocessing(&ds, 5);
        extended.fit_preprocessing(&ds, 5);

        let o_a = original.predict(&original.plan(&ds.samples[0]));
        let o_b = original.predict(&original.plan(&sample_b));
        let e_a = extended.predict(&extended.plan(&ds.samples[0]));
        let e_b = extended.predict(&extended.plan(&sample_b));

        let diff = |a: &[f64], b: &[f64]| -> f64 {
            a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f64>()
        };
        assert!(
            diff(&o_a, &o_b) < 1e-9,
            "original model must ignore queue sizes"
        );
        assert!(
            diff(&e_a, &e_b) > 1e-6,
            "extended model must react to queue sizes"
        );
    }

    #[test]
    fn node_update_variants_differ() {
        let ds = toy_dataset(1);
        let mut positional = ExtendedRouteNet::new(small_config());
        let mut final_sum = ExtendedRouteNet::new(ModelConfig {
            node_update: NodeUpdate::FinalPathStateSum,
            ..small_config()
        });
        positional.fit_preprocessing(&ds, 5);
        final_sum.fit_preprocessing(&ds, 5);
        let pp = positional.predict(&positional.plan(&ds.samples[0]));
        let pf = final_sum.predict(&final_sum.plan(&ds.samples[0]));
        let total_diff: f64 = pp.iter().zip(&pf).map(|(a, b)| (a - b).abs()).sum();
        assert!(total_diff > 1e-9, "ablation variants should not coincide");
    }

    #[test]
    fn predict_batch_of_nothing_returns_nothing() {
        let ds = toy_dataset(1);
        let mut model = ExtendedRouteNet::new(small_config());
        model.fit_preprocessing(&ds, 5);
        assert!(model.predict_batch(&[]).is_empty());
    }

    #[test]
    fn predict_with_reuses_one_tape_across_samples() {
        let ds = toy_dataset(2);
        let mut model = ExtendedRouteNet::new(small_config());
        model.fit_preprocessing(&ds, 5);
        let plan_a = model.plan(&ds.samples[0]);
        let plan_b = model.plan(&ds.samples[1]);
        let mut g = Graph::new();
        let first = model.predict_with(&mut g, &plan_a);
        let second = model.predict_with(&mut g, &plan_b);
        assert_eq!(
            first,
            model.predict(&plan_a),
            "pooled tape must not change results"
        );
        assert_eq!(second, model.predict(&plan_b));
    }

    #[test]
    fn forward_is_deterministic() {
        let ds = toy_dataset(1);
        let mut model = ExtendedRouteNet::new(small_config());
        model.fit_preprocessing(&ds, 5);
        let plan = model.plan(&ds.samples[0]);
        let a = model.predict(&plan);
        let b = model.predict(&plan);
        assert_eq!(a, b);
    }

    #[test]
    fn jitter_target_plans_use_jitter_labels() {
        use crate::entities::TargetKind;
        let ds = toy_dataset(1);
        let mut model = ExtendedRouteNet::new(small_config());
        model.fit_preprocessing(&ds, 5);
        let delay_plan = model.plan_for_target(&ds.samples[0], TargetKind::Delay);
        let jitter_plan = model.plan_for_target(&ds.samples[0], TargetKind::Jitter);
        for (row, t) in ds.samples[0].targets.iter().enumerate() {
            assert_eq!(delay_plan.targets_raw[row], t.mean_delay_s);
            assert_eq!(jitter_plan.targets_raw[row], t.jitter_s);
        }
        // The model still produces one prediction per path on jitter plans.
        assert_eq!(model.predict(&jitter_plan).len(), jitter_plan.n_paths);
    }

    #[test]
    fn param_counts_scale_with_config() {
        let small = ExtendedRouteNet::new(small_config());
        let big = ExtendedRouteNet::new(ModelConfig {
            state_dim: 16,
            ..small_config()
        });
        assert!(big.param_count() > small.param_count());
        // Extended has one more GRU than original at equal config.
        let orig = OriginalRouteNet::new(small_config());
        assert!(small.param_count() > orig.param_count());
        // And QoS one more than extended (the queue GRU).
        let qos = QosRouteNet::new(small_config());
        assert!(qos.param_count() > small.param_count());
    }

    fn qos_dataset(n: usize) -> Dataset {
        let config = GeneratorConfig {
            sim: SimConfig {
                duration_s: 30.0,
                warmup_s: 5.0,
                ..SimConfig::default()
            },
            qos: Some(rn_dataset::QosGenConfig::two_class_mix()),
            ..GeneratorConfig::default()
        };
        generate(&topologies::toy5(), &config, 43, n)
    }

    #[test]
    fn qos_model_predicts_one_value_per_path_on_qos_plans() {
        let ds = qos_dataset(1);
        let mut model = QosRouteNet::new(small_config());
        model.fit_preprocessing(&ds, 5);
        let plan = model.plan(&ds.samples[0]);
        assert!(
            plan.num_queues > 0,
            "QoS sample must produce queue entities"
        );
        let preds = model.predict(&plan);
        assert_eq!(preds.len(), plan.n_paths);
        for p in preds {
            assert!(p.is_finite() && p > 0.0, "prediction {p}");
        }
    }

    #[test]
    fn qos_model_reacts_to_scheduling_policy() {
        // Same traffic, same routing — only the scheduler changes. The queue
        // entity is the only channel through which the model can see that.
        let ds = qos_dataset(1);
        let mut sample_b = ds.samples[0].clone();
        let qos = sample_b.qos.as_mut().expect("QoS sample");
        let n = qos.num_classes();
        qos.policy = rn_netsim::SchedulingPolicy::Wfq {
            weights: (0..n).map(|c| 1.0 + 9.0 * c as f64).collect(),
        };

        let mut model = QosRouteNet::new(small_config());
        model.fit_preprocessing(&ds, 5);
        let a = model.predict(&model.plan(&ds.samples[0]));
        let b = model.predict(&model.plan(&sample_b));
        let diff: f64 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
        assert!(diff > 1e-9, "QoS model must react to the scheduling policy");
    }

    #[test]
    fn qos_model_is_bitwise_extended_on_legacy_plans() {
        // Same seed => shared parameters are drawn identically; a legacy
        // plan records no queue ops => predictions are bitwise equal.
        let ds = toy_dataset(1);
        let mut qos = QosRouteNet::new(small_config());
        let mut ext = ExtendedRouteNet::new(small_config());
        qos.fit_preprocessing(&ds, 5);
        ext.fit_preprocessing(&ds, 5);
        let plan_q = qos.plan(&ds.samples[0]);
        let plan_e = ext.plan(&ds.samples[0]);
        assert_eq!(plan_q.num_queues, 0);
        assert_eq!(qos.predict(&plan_q), ext.predict(&plan_e));
    }

    /// A model of entity set `E` with preprocessing fitted on `ds`.
    fn fitted<E: EntitySet>(config: ModelConfig, ds: &Dataset) -> RouteNet<E> {
        let mut model = RouteNet::<E>::new(config);
        model.fit_preprocessing(ds, 5);
        model
    }

    fn gradients_reach_every_parameter<E: EntitySet>(ds: &Dataset) {
        let model = fitted::<E>(small_config(), ds);
        let plan = model.plan(&ds.samples[0]);
        let mut g = Graph::new();
        let bound = model.bind(&mut g);
        let pred = model.forward(&mut g, &bound, &plan);
        let reliable = g.gather_rows(pred, &plan.reliable_idx);
        let target = g.constant(plan.reliable_targets_norm());
        let loss = g.mse(reliable, target);
        g.backward(loss);
        let grads = model.grads(&g, &bound);
        let nonzero = grads.iter().filter(|m| m.max_abs() > 0.0).count();
        // All kernels should receive gradient; some biases may be zero by
        // symmetry but the vast majority must be live.
        assert!(
            nonzero >= grads.len() - 2,
            "{}: only {nonzero}/{} parameter tensors received gradient",
            E::NAME,
            grads.len()
        );
        if E::QUEUES {
            // The queue GRU specifically (the last 6 tensors) must be live.
            let queue_grads = &grads[grads.len() - 6..];
            assert!(
                queue_grads.iter().any(|m| m.max_abs() > 0.0),
                "queue GRU received no gradient on a QoS plan"
            );
        }
    }

    #[test]
    fn forward_gradients_reach_every_parameter() {
        gradients_reach_every_parameter::<Original>(&toy_dataset(1));
        gradients_reach_every_parameter::<Extended>(&toy_dataset(1));
        gradients_reach_every_parameter::<Qos>(&qos_dataset(1));
    }

    fn fused_matches_unfused<E: EntitySet>(ds: &Dataset) {
        for node_update in [
            NodeUpdate::PositionalMessages,
            NodeUpdate::FinalPathStateSum,
        ] {
            let config = ModelConfig {
                node_update,
                ..small_config()
            };
            let model = fitted::<E>(config, ds);
            let plan = model.plan(&ds.samples[0]);
            let mut g = Graph::new();
            let bound = model.bind(&mut g);
            let fused = model.forward(&mut g, &bound, &plan);
            let unfused = model.forward_unfused(&mut g, &bound, &plan);
            assert!(
                g.value(fused).approx_eq(g.value(unfused), 1e-5),
                "{}: fused/unfused diverged for {node_update:?} (queues: {})",
                E::NAME,
                plan.num_queues
            );
        }
    }

    #[test]
    fn fused_forward_matches_unfused_reference() {
        // Every variant on a legacy plan and on a QoS plan, whose queue
        // (and, for the original model, node) positions it may skip.
        for ds in [toy_dataset(1), qos_dataset(1)] {
            fused_matches_unfused::<Original>(&ds);
            fused_matches_unfused::<Extended>(&ds);
            fused_matches_unfused::<Qos>(&ds);
        }
    }

    fn serde_round_trip<E: EntitySet>(ds: &Dataset) {
        let model = fitted::<E>(small_config(), ds);
        let plan = model.plan(&ds.samples[0]);
        let json = serde_json::to_string(&model).unwrap();
        let back: RouteNet<E> = serde_json::from_str(&json).unwrap();
        assert_eq!(model.predict(&plan), back.predict(&plan), "{}", E::NAME);
    }

    #[test]
    fn serde_round_trip_preserves_predictions() {
        serde_round_trip::<Original>(&toy_dataset(1));
        serde_round_trip::<Extended>(&toy_dataset(1));
        serde_round_trip::<Qos>(&qos_dataset(1));
    }

    fn batch_matches_per_sample<E: EntitySet>(ds: &Dataset) {
        let model = fitted::<E>(small_config(), ds);
        let plans: Vec<SamplePlan> = ds.samples.iter().map(|s| model.plan(s)).collect();
        let batched = model.predict_batch(&plans);
        assert_eq!(batched.len(), plans.len());
        for (b, plan) in plans.iter().enumerate() {
            let single = model.predict(plan);
            assert_eq!(batched[b].len(), single.len());
            for (x, y) in batched[b].iter().zip(&single) {
                let denom = y.abs().max(1e-12);
                assert!(
                    ((x - y).abs() / denom) < 1e-5,
                    "{} sample {b}: batched {x} vs single {y}",
                    E::NAME
                );
            }
        }
    }

    #[test]
    fn predict_batch_matches_per_sample_predict() {
        batch_matches_per_sample::<Original>(&toy_dataset(3));
        batch_matches_per_sample::<Extended>(&toy_dataset(3));
        batch_matches_per_sample::<Qos>(&qos_dataset(3));
    }

    fn ignores_queue_entities<E: EntitySet>(ds: &Dataset) {
        let model = fitted::<E>(small_config(), ds);
        let qos_plan = model.plan(&ds.samples[0]);
        assert!(qos_plan.num_queues > 0, "QoS sample must have queues");
        let mut legacy = ds.samples[0].clone();
        legacy.qos = None;
        let legacy_plan = model.plan(&legacy);
        let bits = |v: Vec<f64>| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(model.predict(&qos_plan)),
            bits(model.predict(&legacy_plan)),
            "{} must skip the queue positions of a QoS plan",
            E::NAME
        );
    }

    #[test]
    fn models_without_queues_predict_qos_samples_as_legacy_ones() {
        // A QoS scenario sent to a model without a queue entity is read
        // without its queues — bit for bit the scenario with `qos = None` —
        // the same way the original model reads a plan without its nodes.
        let ds = qos_dataset(1);
        ignores_queue_entities::<Original>(&ds);
        ignores_queue_entities::<Extended>(&ds);
    }
}

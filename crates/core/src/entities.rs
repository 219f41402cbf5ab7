//! From dataset samples to message-passing plans.
//!
//! A [`SamplePlan`] is everything a forward pass needs, precomputed once per
//! sample and reused across epochs:
//!
//! - initial entity states (features zero-padded to `state_dim`),
//! - per-sequence-position gather/scatter index plans ([`StepPlan`]) for the
//!   one interleaved `node-link-node-…` path sequence (a model lacking an
//!   entity skips its positions),
//! - the path↔node incidence lists used by the
//!   [`crate::NodeUpdate::FinalPathStateSum`] ablation,
//! - normalized regression targets and the indices of paths whose labels are
//!   statistically reliable.
//!
//! ## Sequence convention
//!
//! For a path `v₀ → v₁ → … → v_k` over links `l₁ … l_k`, the
//! sequence is `v₀, l₁, v₁, l₂, …, v_{k-1}, l_k` (length `2k`): each link is
//! preceded by the node whose output queue feeds it, so the source node is
//! included and the destination node (which performs no forwarding) is not.
//! Even positions are therefore always nodes and odd positions always links —
//! a uniform alternation that lets a whole batch of paths advance through one
//! GRU step per position.
//!
//! ## QoS sequence convention
//!
//! Samples carrying a QoS dimension (a scheduling policy with more than one
//! ToS class — see `rn_dataset::schema::SampleQos`) grow a third entity: one
//! **queue** per (directed link, class) pair, id `link * num_classes +
//! class`. The sequence becomes 3-periodic per hop — `v₀, q₁, l₁,
//! v₁, q₂, l₂, …` (length `3k`): the forwarding node, then the per-class
//! queue the path's packets wait in at that port, then the link that drains
//! it. Legacy samples (`qos: None`) and single-class FIFO QoS samples build
//! the exact 2-periodic structure above with `num_queues == 0`, so plans —
//! and everything downstream of them — are bitwise identical to the
//! two-entity model.

use crate::config::ModelConfig;
use crate::features::FeatureScales;
use rn_autograd::SharedIndices;
use rn_dataset::{Normalizer, Sample};
use rn_tensor::Matrix;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};

/// Which entity type a sequence position refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EntityKind {
    /// A directed link.
    Link,
    /// A forwarding device.
    Node,
    /// A per-(link, class) scheduler queue — present only in QoS plans.
    Queue,
}

/// What the regression target is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TargetKind {
    /// Per-path mean delay (the paper's experiment).
    Delay,
    /// Per-path jitter (delay standard deviation) — supported as an
    /// extension; RouteNet predicts it with the same architecture.
    Jitter,
}

/// One sequence position across all paths of a sample.
#[derive(Debug, Clone)]
pub struct StepPlan {
    /// Entity type at this position (uniform across paths by construction).
    pub kind: EntityKind,
    /// Per-path entity id at this position; 0 (an arbitrary valid id) for
    /// paths shorter than the position — those rows are masked out.
    pub ids: Vec<usize>,
    /// `n_paths x 1` activity mask: 1.0 where the path has this position.
    pub mask: Matrix,
    /// Number of active paths at this position.
    pub active: usize,
}

/// Step schedule precompiled into flat CSR-style buffers.
///
/// The fused forward pass walks this instead of `Vec<StepPlan>`: all gather
/// indices live in one contiguous `ids_flat` array indexed through `offsets`
/// (a CSR indptr), and each step's activity mask is prebuilt as the `n x 1`
/// matrix the tape ops consume. One compile per sample, reused every epoch.
#[derive(Debug, Clone, Default)]
pub struct CompiledSteps {
    /// Entity type per step.
    pub kinds: Vec<EntityKind>,
    /// Active-path count per step (steps with 0 are skipped entirely).
    pub active: Vec<usize>,
    /// CSR index pointer: step `s` covers `ids_flat[offsets[s]..offsets[s+1]]`.
    pub offsets: Vec<usize>,
    /// All gather indices, step-major (one per path row, padded rows
    /// included).
    pub ids_flat: Vec<usize>,
    /// Per-step `n_paths x 1` masks.
    pub masks: Vec<Matrix>,
    /// CSR index pointer into the active-row compaction buffers.
    pub active_offsets: Vec<usize>,
    /// Path rows active at each step (rows whose mask is 1), step-major.
    /// Held behind an `Arc` so a step binds a refcounted window of it
    /// ([`rn_autograd::SharedIndices`]) instead of a copy.
    pub active_rows_flat: Arc<[usize]>,
    /// Entity id per active row, aligned with `active_rows_flat`. The
    /// compacted forward gathers/scatter-adds through these, skipping
    /// padded rows entirely.
    pub active_ids_flat: Arc<[usize]>,
}

impl CompiledSteps {
    /// Flatten a step list into CSR buffers.
    pub fn compile(steps: &[StepPlan]) -> Self {
        let mut out = Self {
            kinds: Vec::with_capacity(steps.len()),
            active: Vec::with_capacity(steps.len()),
            offsets: Vec::with_capacity(steps.len() + 1),
            ids_flat: Vec::with_capacity(steps.iter().map(|s| s.ids.len()).sum()),
            masks: Vec::with_capacity(steps.len()),
            active_offsets: Vec::with_capacity(steps.len() + 1),
            ..Self::default()
        };
        let (mut active_rows, mut active_ids) = (Vec::new(), Vec::new());
        out.offsets.push(0);
        out.active_offsets.push(0);
        for step in steps {
            out.kinds.push(step.kind);
            out.active.push(step.active);
            out.ids_flat.extend_from_slice(&step.ids);
            out.offsets.push(out.ids_flat.len());
            out.masks.push(step.mask.clone());
            for (row, &id) in step.ids.iter().enumerate() {
                if step.mask.get(row, 0) > 0.0 {
                    active_rows.push(row);
                    active_ids.push(id);
                }
            }
            out.active_offsets.push(active_rows.len());
        }
        out.active_rows_flat = active_rows.into();
        out.active_ids_flat = active_ids.into();
        out
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// True when there are no steps.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// The gather indices of step `s` (all path rows).
    pub fn ids(&self, s: usize) -> &[usize] {
        &self.ids_flat[self.offsets[s]..self.offsets[s + 1]]
    }

    /// The active path rows of step `s`: an `Arc`-backed window the tape
    /// stores without copying the indices.
    pub fn shared_active_rows(&self, s: usize) -> SharedIndices {
        SharedIndices::new(
            self.active_rows_flat.clone(),
            self.active_offsets[s],
            self.active_offsets[s + 1],
        )
    }

    /// The entity ids of the active rows of step `s`, as a window like
    /// [`CompiledSteps::shared_active_rows`].
    pub fn shared_active_ids(&self, s: usize) -> SharedIndices {
        SharedIndices::new(
            self.active_ids_flat.clone(),
            self.active_offsets[s],
            self.active_offsets[s + 1],
        )
    }
}

/// Precomputed forward-pass inputs for one sample.
#[derive(Debug, Clone)]
pub struct SamplePlan {
    /// Number of paths (rows of `path_init` and of the prediction).
    pub n_paths: usize,
    /// Number of directed links.
    pub num_links: usize,
    /// Number of nodes.
    pub num_nodes: usize,
    /// Number of scheduler queues (`num_links * num_classes` for QoS plans,
    /// 0 for legacy/single-class-FIFO plans — see the module docs).
    pub num_queues: usize,
    /// `(src, dst)` per path, aligned with rows.
    pub pairs: Vec<(usize, usize)>,
    /// Initial path states: `n_paths x state_dim` (traffic feature in col 0).
    pub path_init: Matrix,
    /// Initial link states: `num_links x state_dim` (capacity in col 0).
    pub link_init: Matrix,
    /// Initial node states: `num_nodes x state_dim` (queue size in col 0,
    /// tiny-queue indicator in col 1).
    pub node_init: Matrix,
    /// Initial queue states: `num_queues x state_dim` (scheduler share of
    /// the queue's class in col 0, priority rank in col 1). `0 x state_dim`
    /// for plans without queue entities.
    pub queue_init: Matrix,
    /// Steps of the interleaved path sequence: node, (queue,) link per hop.
    /// A model reads the positions of the entities it has and skips the
    /// rest, so the original model walks just the link positions.
    pub steps: Vec<StepPlan>,
    /// `steps` precompiled into flat CSR buffers (fused forward).
    pub csr: CompiledSteps,
    /// Flattened path-node incidence: for every (path, traversed node) pair,
    /// the path row index…
    pub node_incidence_paths: Vec<usize>,
    /// …and the node id (aligned with `node_incidence_paths`).
    pub node_incidence_nodes: Vec<usize>,
    /// Normalized regression targets, `n_paths x 1` (0.0 for unreliable rows).
    pub targets_norm: Matrix,
    /// Raw (denormalized) targets in seconds, aligned with rows.
    pub targets_raw: Vec<f64>,
    /// Rows whose labels are reliable enough to train/evaluate on.
    pub reliable_idx: Vec<usize>,
    /// Memoized structure fingerprint (see
    /// [`SamplePlan::structure_fingerprint`]): computed on first use, shared
    /// by clones. Covers only the shape-dependent parts of the plan, so it
    /// stays valid when features (targets, reliability) are edited in place.
    pub(crate) structure_fp: OnceLock<u64>,
    /// Lazily built `Arc` mirror of `reliable_idx` for the loss gather.
    /// Must be invalidated (reset to an empty cell) wherever `reliable_idx`
    /// is rewritten in place — feature refill, eval re-thresholding.
    pub(crate) reliable_shared: OnceLock<Arc<[usize]>>,
}

/// Options controlling plan construction.
///
/// Borrows the preprocessing state instead of owning it: plans are built once
/// per sample (often for hundreds of thousands of samples), and cloning the
/// fitted `FeatureScales`/`Normalizer` per sample was measurable overhead in
/// the planning pass.
#[derive(Debug, Clone)]
pub struct PlanConfig<'a> {
    /// Feature scaling (fitted on the training set).
    pub scales: &'a FeatureScales,
    /// Target normalizer (fitted on the training set).
    pub normalizer: &'a Normalizer,
    /// Entity state width.
    pub state_dim: usize,
    /// Minimum delivered packets for a label to count as reliable.
    pub min_packets: u64,
    /// Which label to regress.
    pub target: TargetKind,
}

impl<'a> PlanConfig<'a> {
    /// Plan options from a model configuration plus preprocessing state.
    pub fn new(
        config: &ModelConfig,
        scales: &'a FeatureScales,
        normalizer: &'a Normalizer,
    ) -> Self {
        Self {
            scales,
            normalizer,
            state_dim: config.state_dim,
            min_packets: 10,
            target: TargetKind::Delay,
        }
    }
}

/// Build the message-passing plan for one sample.
///
/// Panics if `state_dim < 2` (features need two leading columns).
pub fn build_plan(sample: &Sample, config: &PlanConfig) -> SamplePlan {
    assert!(config.state_dim >= 2, "state_dim must be at least 2");
    let d = config.state_dim;
    let num_nodes = sample.queue_capacities.len();
    let num_links = sample.link_capacities.len();

    // ---- Entity features -> initial states -------------------------------
    let paths: Vec<(usize, usize, &rn_netgraph::Path)> = sample.routing.iter_paths().collect();
    let n_paths = paths.len();
    assert_eq!(
        n_paths,
        sample.targets.len(),
        "targets misaligned with routing"
    );

    let mut path_init = Matrix::zeros(n_paths, d);
    for (row, &(s, dst, _)) in paths.iter().enumerate() {
        path_init.set(row, 0, config.scales.rate(sample.traffic.rate(s, dst)));
    }
    let mut link_init = Matrix::zeros(num_links, d);
    for (l, &cap) in sample.link_capacities.iter().enumerate() {
        link_init.set(l, 0, config.scales.capacity(cap));
    }
    let mut node_init = Matrix::zeros(num_nodes, d);
    for (n, &q) in sample.queue_capacities.iter().enumerate() {
        node_init.set(n, 0, config.scales.queue(q));
        // Binary tiny-queue indicator: gives the model the same categorical
        // signal the scenario generator used.
        let is_tiny = if q <= 1 { 1.0 } else { 0.0 };
        node_init.set(n, 1, is_tiny);
    }

    // ---- Queue entities (QoS plans only) ----------------------------------
    // One queue per (directed link, class); single-class FIFO degenerates to
    // the legacy two-entity plan so existing scenarios stay bitwise
    // identical.
    let qos = sample.qos.as_ref().filter(|q| !q.is_single_class_fifo());
    let num_classes = qos.map_or(1, |q| q.num_classes());
    let num_queues = qos.map_or(0, |_| num_links * num_classes);
    let mut queue_init = Matrix::zeros(num_queues, d);
    if let Some(q) = qos {
        for link in 0..num_links {
            for class in 0..num_classes {
                let row = link * num_classes + class;
                // Col 0: the scheduler's long-run share of the link this
                // class is configured for (exact for WFQ/DRR, a rank proxy
                // for strict priority). Col 1: priority rank in (0, 1],
                // highest class first — disambiguates strict priority from
                // equal-share policies.
                queue_init.set(row, 0, q.policy.class_share(class, num_classes) as f32);
                queue_init.set(row, 1, 1.0 - class as f32 / num_classes as f32);
            }
        }
    }

    // ---- Sequence ---------------------------------------------------------
    // v0, l1, v1, l2, ..., v_{k-1}, l_k        (length 2k);
    // QoS plans: v0, q1, l1, v1, q2, l2, ...  (length 3k).
    let max_hops = paths
        .iter()
        .map(|(_, _, p)| p.hop_count())
        .max()
        .unwrap_or(0);
    let period = if qos.is_some() { 3 } else { 2 };
    let mut steps = Vec::with_capacity(period * max_hops);
    for pos in 0..(period * max_hops) {
        let kind = match (pos % period, period) {
            (0, _) => EntityKind::Node,
            (1, 3) => EntityKind::Queue,
            _ => EntityKind::Link,
        };
        let mut ids = vec![0usize; n_paths];
        let mut mask = Matrix::zeros(n_paths, 1);
        let mut active = 0;
        for (row, (_, _, path)) in paths.iter().enumerate() {
            let hop = pos / period;
            if hop < path.hop_count() {
                ids[row] = match kind {
                    EntityKind::Node => path.nodes[hop],
                    EntityKind::Link => path.links[hop],
                    EntityKind::Queue => {
                        let class = qos.map_or(0, |q| q.path_classes[row] as usize);
                        path.links[hop] * num_classes + class
                    }
                };
                mask.set(row, 0, 1.0);
                active += 1;
            }
        }
        steps.push(StepPlan {
            kind,
            ids,
            mask,
            active,
        });
    }
    // ---- Node incidences (forwarding nodes: all but the destination) ------
    let mut node_incidence_paths = Vec::new();
    let mut node_incidence_nodes = Vec::new();
    for (row, (_, _, path)) in paths.iter().enumerate() {
        for hop in 0..path.hop_count() {
            node_incidence_paths.push(row);
            node_incidence_nodes.push(path.nodes[hop]);
        }
    }

    // ---- Targets -----------------------------------------------------------
    let mut targets_norm = Matrix::zeros(n_paths, 1);
    let mut targets_raw = vec![0.0; n_paths];
    let mut reliable_idx = Vec::new();
    for (row, t) in sample.targets.iter().enumerate() {
        let raw = match config.target {
            TargetKind::Delay => t.mean_delay_s,
            TargetKind::Jitter => t.jitter_s,
        };
        targets_raw[row] = raw;
        let positive_enough = !config.normalizer.log_space || raw > 0.0;
        if t.is_reliable(config.min_packets) && positive_enough {
            targets_norm.set(row, 0, config.normalizer.normalize(raw) as f32);
            reliable_idx.push(row);
        }
    }

    let csr = CompiledSteps::compile(&steps);
    SamplePlan {
        n_paths,
        num_links,
        num_nodes,
        num_queues,
        pairs: paths.iter().map(|&(s, d2, _)| (s, d2)).collect(),
        path_init,
        link_init,
        node_init,
        queue_init,
        steps,
        csr,
        node_incidence_paths,
        node_incidence_nodes,
        targets_norm,
        targets_raw,
        reliable_idx,
        structure_fp: OnceLock::new(),
        reliable_shared: OnceLock::new(),
    }
}

// ---------------------------------------------------------------------------
// Megabatching
// ---------------------------------------------------------------------------

/// `B` sample plans packed into one block-diagonal plan.
///
/// Entity ids of sample `b` are shifted by that sample's path/link/node
/// offsets, so the union plan runs through the *same* forward code as a
/// single sample: gathers and scatter-adds never cross sample boundaries,
/// matmuls grow `B`-fold taller (better kernel utilization), and one
/// parameter `bind()` is amortized over the whole pack. Positions past a
/// sample's sequence length are masked out, which the fused ops turn into
/// exact no-ops, so predictions are identical to running each sample alone.
#[derive(Debug, Clone)]
pub struct MegabatchPlan {
    /// The fused plan; feed it to `forward` like any single-sample plan.
    pub plan: SamplePlan,
    /// Per-sample path row ranges `[start, end)` in the fused plan.
    pub path_ranges: Vec<(usize, usize)>,
    /// Per reliable row (aligned with `plan.reliable_idx`): `1 / r_s` where
    /// `r_s` is its sample's reliable-row count. Scaling these by
    /// `1 / num_reliable_samples` reproduces mean-of-per-sample-means loss.
    pub sample_mean_weights: Vec<f32>,
    /// Samples contributing at least one reliable row.
    pub reliable_samples: usize,
}

/// Why a megabatch could not be assembled. All variants are caller bugs in
/// a batch-training context, but a serving layer that admission-queues
/// arbitrary requests needs to reject them without tearing the process down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MegabatchError {
    /// The part list was empty: there is nothing to pack.
    EmptyBatch,
    /// Two parts were planned with different `state_dim`s and cannot share
    /// one forward pass. Carries `(expected, found)`.
    StateDimMismatch(usize, usize),
    /// Parts with incompatible sequence schedules — a legacy two-entity
    /// part packed with a QoS queue-entity part — would need two different
    /// entity kinds at the carried sequence position. Batch QoS and legacy
    /// samples separately.
    ScheduleMismatch(usize),
}

impl std::fmt::Display for MegabatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::EmptyBatch => write!(f, "build_megabatch: empty batch"),
            Self::StateDimMismatch(expected, found) => write!(
                f,
                "build_megabatch: state_dim mismatch (expected {expected}, found {found})"
            ),
            Self::ScheduleMismatch(pos) => write!(
                f,
                "build_megabatch: mixed legacy/QoS sequence schedules (entity kind \
                 conflict at position {pos})"
            ),
        }
    }
}

impl std::error::Error for MegabatchError {}

/// Pack `parts` into one block-diagonal [`MegabatchPlan`].
///
/// Panics on an empty slice or on state-width mismatches between parts; use
/// [`try_build_megabatch`] where those are runtime conditions (e.g. a
/// serving queue) rather than caller bugs.
///
/// # Example
///
/// Plan two simulated scenarios and pack them into one megabatch whose
/// entity spaces are the samples stacked block-diagonally:
///
/// ```
/// use rn_dataset::{generate, GeneratorConfig, Normalizer};
/// use rn_netsim::SimConfig;
/// use routenet::entities::{build_megabatch, build_plan, PlanConfig, TargetKind};
/// use routenet::FeatureScales;
///
/// let gen = GeneratorConfig {
///     sim: SimConfig { duration_s: 30.0, warmup_s: 5.0, ..SimConfig::default() },
///     ..GeneratorConfig::default()
/// };
/// let ds = generate(&rn_netgraph::topologies::toy5(), &gen, 7, 2);
/// let (scales, normalizer) = (FeatureScales::unit(), Normalizer::identity());
/// let cfg = PlanConfig {
///     scales: &scales,
///     normalizer: &normalizer,
///     state_dim: 8,
///     min_packets: 1,
///     target: TargetKind::Delay,
/// };
/// let plans: Vec<_> = ds.samples.iter().map(|s| build_plan(s, &cfg)).collect();
/// let parts: Vec<_> = plans.iter().collect();
///
/// let mb = build_megabatch(&parts);
/// assert_eq!(mb.plan.n_paths, plans[0].n_paths + plans[1].n_paths);
/// assert_eq!(mb.path_ranges.len(), 2);
/// ```
pub fn build_megabatch(parts: &[&SamplePlan]) -> MegabatchPlan {
    match try_build_megabatch(parts) {
        Ok(mb) => mb,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible [`build_megabatch`]: returns a [`MegabatchError`] instead of
/// panicking on an empty part list or mismatched state widths.
///
/// Implemented on top of the composition layer ([`crate::compose`]): a
/// fresh build is exactly "compose the structure, extract the features,
/// assemble" — which is what makes a cached
/// [`crate::compose::ComposedMegabatch`] with refilled features **bitwise
/// identical** to this function by construction rather than by test alone.
pub fn try_build_megabatch(parts: &[&SamplePlan]) -> Result<MegabatchPlan, MegabatchError> {
    crate::compose::ComposedMegabatch::compose(parts)
        .map(crate::compose::ComposedMegabatch::into_plan)
}

/// Copy all of `src`'s rows into `dst` starting at row `at`.
pub(crate) fn copy_rows(dst: &mut Matrix, at: usize, src: &Matrix) {
    for r in 0..src.rows() {
        dst.row_mut(at + r).copy_from_slice(src.row(r));
    }
}

impl SamplePlan {
    /// Zero-copy view of [`SamplePlan::reliable_idx`] — what the loss
    /// gather binds instead of a pooled copy.
    pub fn reliable_idx_shared(&self) -> SharedIndices {
        SharedIndices::full(
            self.reliable_shared
                .get_or_init(|| self.reliable_idx.as_slice().into())
                .clone(),
        )
    }

    /// Raw targets restricted to reliable rows.
    pub fn reliable_targets_raw(&self) -> Vec<f64> {
        self.reliable_idx
            .iter()
            .map(|&i| self.targets_raw[i])
            .collect()
    }

    /// Normalized targets restricted to reliable rows, as a column matrix.
    pub fn reliable_targets_norm(&self) -> Matrix {
        self.targets_norm.gather_rows(&self.reliable_idx)
    }

    /// A human-readable trace of the extended message-passing schedule for
    /// the first `max_paths` paths — the machine-checkable counterpart of the
    /// paper's Figure 1.
    pub fn schedule_trace(&self, max_paths: usize) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "extended message passing: {} paths, {} links, {} nodes, {} sequence steps\n",
            self.n_paths,
            self.num_links,
            self.num_nodes,
            self.steps.len()
        ));
        for (row, &(s, d)) in self.pairs.iter().take(max_paths).enumerate() {
            out.push_str(&format!("path {row} ({s} -> {d}): "));
            let mut parts = Vec::new();
            for step in &self.steps {
                if step.mask.get(row, 0) > 0.0 {
                    let tag = match step.kind {
                        EntityKind::Node => format!("RNN_P<-node{}", step.ids[row]),
                        EntityKind::Link => format!("RNN_P<-link{}", step.ids[row]),
                        EntityKind::Queue => format!("RNN_P<-queue{}", step.ids[row]),
                    };
                    parts.push(tag);
                }
            }
            out.push_str(&parts.join(" "));
            out.push('\n');
        }
        out.push_str("aggregation: msg(path,pos)->link via RNN_L; msg(path,pos)->node via RNN_N\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rn_dataset::{generate, GeneratorConfig, Normalizer};
    use rn_netgraph::topologies;
    use rn_netsim::SimConfig;

    fn toy_sample() -> (rn_netgraph::Topology, Sample) {
        let topo = topologies::toy5();
        let config = GeneratorConfig {
            sim: SimConfig {
                duration_s: 60.0,
                warmup_s: 10.0,
                ..SimConfig::default()
            },
            ..GeneratorConfig::default()
        };
        let mut ds = generate(&topo, &config, 31, 1);
        (topo, ds.samples.pop().unwrap())
    }

    /// Owned preprocessing state the borrowed `PlanConfig` points into.
    fn preprocessing(ds_delays: &[f64]) -> (FeatureScales, Normalizer) {
        (FeatureScales::unit(), Normalizer::fit(ds_delays, true))
    }

    fn plan_config<'a>(prep: &'a (FeatureScales, Normalizer)) -> PlanConfig<'a> {
        PlanConfig {
            scales: &prep.0,
            normalizer: &prep.1,
            state_dim: 8,
            min_packets: 5,
            target: TargetKind::Delay,
        }
    }

    #[test]
    fn plan_shapes_are_consistent() {
        let (topo, sample) = toy_sample();
        let delays: Vec<f64> = sample
            .targets
            .iter()
            .map(|t| t.mean_delay_s.max(1e-6))
            .collect();
        let prep = preprocessing(&delays);
        let plan = build_plan(&sample, &plan_config(&prep));
        assert_eq!(plan.n_paths, 20);
        assert_eq!(plan.num_links, topo.num_links());
        assert_eq!(plan.num_nodes, 5);
        assert_eq!(plan.path_init.shape(), (20, 8));
        assert_eq!(plan.link_init.shape(), (topo.num_links(), 8));
        assert_eq!(plan.node_init.shape(), (5, 8));
        assert_eq!(plan.targets_norm.shape(), (20, 1));
    }

    fn max_hops(sample: &Sample) -> usize {
        sample
            .routing
            .iter_paths()
            .map(|(_, _, p)| p.hop_count())
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn extended_sequence_alternates_node_link() {
        let (_, sample) = toy_sample();
        let delays: Vec<f64> = sample
            .targets
            .iter()
            .map(|t| t.mean_delay_s.max(1e-6))
            .collect();
        let prep = preprocessing(&delays);
        let plan = build_plan(&sample, &plan_config(&prep));
        for (i, step) in plan.steps.iter().enumerate() {
            let expected = if i % 2 == 0 {
                EntityKind::Node
            } else {
                EntityKind::Link
            };
            assert_eq!(step.kind, expected, "position {i}");
        }
        assert_eq!(plan.steps.len(), 2 * max_hops(&sample));
    }

    #[test]
    fn sequences_match_paths() {
        let (_, sample) = toy_sample();
        let delays: Vec<f64> = sample
            .targets
            .iter()
            .map(|t| t.mean_delay_s.max(1e-6))
            .collect();
        let prep = preprocessing(&delays);
        let plan = build_plan(&sample, &plan_config(&prep));
        for (row, (s, d, path)) in sample.routing.iter_paths().enumerate() {
            assert_eq!(plan.pairs[row], (s, d));
            // Extended: node at even 2*h, the traversed link at odd 2*h+1.
            for (h, &l) in path.links.iter().enumerate() {
                let node_step = &plan.steps[2 * h];
                let link_step = &plan.steps[2 * h + 1];
                assert_eq!(node_step.ids[row], path.nodes[h]);
                assert_eq!(node_step.mask.get(row, 0), 1.0);
                assert_eq!(link_step.ids[row], l);
                assert_eq!(link_step.mask.get(row, 0), 1.0);
            }
            // Positions past the path length are masked out.
            for pos in (2 * path.hop_count())..plan.steps.len() {
                assert_eq!(plan.steps[pos].mask.get(row, 0), 0.0);
            }
        }
    }

    fn toy_qos_sample() -> (rn_netgraph::Topology, Sample) {
        let topo = topologies::toy5();
        let config = GeneratorConfig {
            sim: SimConfig {
                duration_s: 30.0,
                warmup_s: 5.0,
                ..SimConfig::default()
            },
            qos: Some(rn_dataset::QosGenConfig::two_class_mix()),
            ..GeneratorConfig::default()
        };
        let mut ds = generate(&topo, &config, 41, 1);
        (topo, ds.samples.pop().unwrap())
    }

    #[test]
    fn qos_plan_builds_three_entity_sequence() {
        let (topo, sample) = toy_qos_sample();
        let qos = sample.qos.clone().unwrap();
        let n = qos.num_classes();
        let delays: Vec<f64> = sample
            .targets
            .iter()
            .map(|t| t.mean_delay_s.max(1e-6))
            .collect();
        let prep = preprocessing(&delays);
        let plan = build_plan(&sample, &plan_config(&prep));

        assert_eq!(plan.num_queues, topo.num_links() * n);
        assert_eq!(plan.queue_init.shape(), (plan.num_queues, 8));
        assert_eq!(plan.steps.len(), 3 * max_hops(&sample));
        for (i, step) in plan.steps.iter().enumerate() {
            let expected = match i % 3 {
                0 => EntityKind::Node,
                1 => EntityKind::Queue,
                _ => EntityKind::Link,
            };
            assert_eq!(step.kind, expected, "position {i}");
        }
        // Queue ids address the (link, class) queue of each hop.
        for (row, (_, _, path)) in sample.routing.iter_paths().enumerate() {
            let class = qos.path_classes[row] as usize;
            for (h, &l) in path.links.iter().enumerate() {
                let qstep = &plan.steps[3 * h + 1];
                assert_eq!(qstep.ids[row], l * n + class, "row {row} hop {h}");
                assert_eq!(qstep.mask.get(row, 0), 1.0);
                assert_eq!(plan.steps[3 * h].ids[row], path.nodes[h]);
                assert_eq!(plan.steps[3 * h + 2].ids[row], l);
            }
        }
        // Queue features: per-link scheduler shares sum to 1, ranks descend.
        for link in 0..topo.num_links() {
            let share: f32 = (0..n).map(|c| plan.queue_init.get(link * n + c, 0)).sum();
            assert!((share - 1.0).abs() < 1e-5, "link {link} share sum {share}");
            for c in 1..n {
                assert!(
                    plan.queue_init.get(link * n + c, 1) < plan.queue_init.get(link * n + c - 1, 1),
                    "priority rank must strictly descend with class index"
                );
            }
        }
    }

    #[test]
    fn single_class_fifo_qos_plan_matches_legacy_plan_exactly() {
        let (_, sample) = toy_sample();
        let mut fifo = sample.clone();
        fifo.qos = Some(rn_dataset::SampleQos {
            policy: rn_netsim::SchedulingPolicy::Fifo,
            class_profiles: vec![rn_netsim::TrafficProfile::Poisson],
            path_classes: vec![0; sample.targets.len()],
            class_targets: rn_netsim::ClassStats::from_accumulators(
                &vec![Default::default(); sample.targets.len()],
                &vec![0; sample.targets.len()],
                1,
            ),
        });
        let delays: Vec<f64> = sample
            .targets
            .iter()
            .map(|t| t.mean_delay_s.max(1e-6))
            .collect();
        let prep = preprocessing(&delays);
        let cfg = plan_config(&prep);
        let legacy = build_plan(&sample, &cfg);
        let degenerate = build_plan(&fifo, &cfg);

        assert_eq!(degenerate.num_queues, 0);
        assert_eq!(degenerate.queue_init.shape(), (0, 8));
        assert_eq!(degenerate.steps.len(), legacy.steps.len());
        for (a, b) in legacy.steps.iter().zip(&degenerate.steps) {
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.ids, b.ids);
            assert!(a.mask.approx_eq(&b.mask, 0.0));
        }
        assert!(legacy.path_init.approx_eq(&degenerate.path_init, 0.0));
        assert!(legacy.link_init.approx_eq(&degenerate.link_init, 0.0));
        assert!(legacy.node_init.approx_eq(&degenerate.node_init, 0.0));
    }

    #[test]
    fn active_counts_match_masks() {
        let (_, sample) = toy_sample();
        let delays: Vec<f64> = sample
            .targets
            .iter()
            .map(|t| t.mean_delay_s.max(1e-6))
            .collect();
        let prep = preprocessing(&delays);
        let plan = build_plan(&sample, &plan_config(&prep));
        for step in &plan.steps {
            let mask_sum = step.mask.sum() as usize;
            assert_eq!(step.active, mask_sum);
        }
        // The first position involves every path (every path has >= 1 hop).
        assert_eq!(plan.steps[0].active, plan.n_paths);
    }

    #[test]
    fn node_incidence_excludes_destination() {
        let (_, sample) = toy_sample();
        let delays: Vec<f64> = sample
            .targets
            .iter()
            .map(|t| t.mean_delay_s.max(1e-6))
            .collect();
        let prep = preprocessing(&delays);
        let plan = build_plan(&sample, &plan_config(&prep));
        for (row, (_, dst, path)) in sample.routing.iter_paths().enumerate() {
            let visited: Vec<usize> = plan
                .node_incidence_paths
                .iter()
                .zip(&plan.node_incidence_nodes)
                .filter(|&(&p, _)| p == row)
                .map(|(_, &n)| n)
                .collect();
            assert_eq!(visited.len(), path.hop_count());
            assert!(!visited.contains(&dst), "destination must not forward");
            assert_eq!(visited[0], path.src());
        }
    }

    #[test]
    fn node_features_encode_queue_size() {
        let (_, mut sample) = toy_sample();
        sample.queue_capacities = vec![32, 1, 32, 1, 32];
        let delays: Vec<f64> = sample
            .targets
            .iter()
            .map(|t| t.mean_delay_s.max(1e-6))
            .collect();
        let prep = preprocessing(&delays);
        let plan = build_plan(&sample, &plan_config(&prep));
        assert_eq!(plan.node_init.get(0, 0), 32.0);
        assert_eq!(plan.node_init.get(0, 1), 0.0);
        assert_eq!(plan.node_init.get(1, 0), 1.0);
        assert_eq!(plan.node_init.get(1, 1), 1.0, "tiny flag set");
    }

    #[test]
    fn unreliable_paths_are_excluded() {
        let (_, mut sample) = toy_sample();
        sample.targets[3].delivered = 0;
        sample.targets[3].mean_delay_s = 0.0;
        let delays: Vec<f64> = sample
            .targets
            .iter()
            .filter(|t| t.mean_delay_s > 0.0)
            .map(|t| t.mean_delay_s)
            .collect();
        let prep = preprocessing(&delays);
        let plan = build_plan(&sample, &plan_config(&prep));
        assert!(!plan.reliable_idx.contains(&3));
        assert_eq!(plan.targets_norm.get(3, 0), 0.0);
    }

    #[test]
    fn normalized_targets_round_trip() {
        let (_, sample) = toy_sample();
        let delays: Vec<f64> = sample
            .targets
            .iter()
            .map(|t| t.mean_delay_s.max(1e-6))
            .collect();
        let prep = preprocessing(&delays);
        let cfg = plan_config(&prep);
        let plan = build_plan(&sample, &cfg);
        for &i in &plan.reliable_idx {
            let raw_back = cfg
                .normalizer
                .denormalize(plan.targets_norm.get(i, 0) as f64);
            let rel = (raw_back - plan.targets_raw[i]).abs() / plan.targets_raw[i];
            assert!(rel < 1e-5, "row {i}: {raw_back} vs {}", plan.targets_raw[i]);
        }
    }

    #[test]
    fn megabatch_is_block_diagonal() {
        let topo = topologies::toy5();
        let config = GeneratorConfig {
            sim: SimConfig {
                duration_s: 60.0,
                warmup_s: 10.0,
                ..SimConfig::default()
            },
            ..GeneratorConfig::default()
        };
        let ds = generate(&topo, &config, 33, 3);
        let delays: Vec<f64> = ds
            .samples
            .iter()
            .flat_map(|s| s.targets.iter().map(|t| t.mean_delay_s.max(1e-6)))
            .collect();
        let prep = preprocessing(&delays);
        let cfg = plan_config(&prep);
        let plans: Vec<SamplePlan> = ds.samples.iter().map(|s| build_plan(s, &cfg)).collect();
        let parts: Vec<&SamplePlan> = plans.iter().collect();
        let mb = build_megabatch(&parts);

        assert_eq!(mb.plan.n_paths, 3 * plans[0].n_paths);
        assert_eq!(mb.plan.num_links, 3 * plans[0].num_links);
        assert_eq!(mb.plan.num_nodes, 15);
        assert_eq!(mb.path_ranges.len(), 3);
        assert_eq!(mb.sample_mean_weights.len(), mb.plan.reliable_idx.len());

        // Ids stay inside each sample's entity block (block-diagonality).
        for (b, p) in plans.iter().enumerate() {
            let link_base: usize = plans[..b].iter().map(|q| q.num_links).sum();
            let node_base: usize = plans[..b].iter().map(|q| q.num_nodes).sum();
            let queue_base: usize = plans[..b].iter().map(|q| q.num_queues).sum();
            let (row_lo, row_hi) = mb.path_ranges[b];
            for (pos, step) in mb.plan.steps.iter().enumerate() {
                for row in row_lo..row_hi {
                    if step.mask.get(row, 0) > 0.0 {
                        let local = &p.steps[pos];
                        let (base, local_id) = match step.kind {
                            EntityKind::Link => (link_base, local.ids[row - row_lo]),
                            EntityKind::Node => (node_base, local.ids[row - row_lo]),
                            EntityKind::Queue => (queue_base, local.ids[row - row_lo]),
                        };
                        assert_eq!(step.ids[row], base + local_id, "step {pos} row {row}");
                    }
                }
            }
            // Targets and reliability line up with offsets.
            for &i in &p.reliable_idx {
                assert!(mb.plan.reliable_idx.contains(&(row_lo + i)));
            }
            for row in 0..p.n_paths {
                assert_eq!(mb.plan.targets_raw[row_lo + row], p.targets_raw[row]);
            }
        }

        // Weights of each sample's rows sum to 1 (per-sample mean semantics).
        for (b, p) in plans.iter().enumerate() {
            if p.reliable_idx.is_empty() {
                continue;
            }
            let (row_lo, row_hi) = mb.path_ranges[b];
            let sum: f32 = mb
                .plan
                .reliable_idx
                .iter()
                .zip(&mb.sample_mean_weights)
                .filter(|(&i, _)| i >= row_lo && i < row_hi)
                .map(|(_, &w)| w)
                .sum();
            assert!((sum - 1.0).abs() < 1e-5, "sample {b} weight sum {sum}");
        }
    }

    #[test]
    fn empty_megabatch_is_an_error_not_a_panic() {
        assert_eq!(
            try_build_megabatch(&[]).unwrap_err(),
            MegabatchError::EmptyBatch
        );
        let msg = MegabatchError::EmptyBatch.to_string();
        assert!(msg.contains("empty batch"), "{msg}");
    }

    #[test]
    fn megabatch_state_dim_mismatch_is_an_error() {
        let (_, sample) = toy_sample();
        let delays: Vec<f64> = sample
            .targets
            .iter()
            .map(|t| t.mean_delay_s.max(1e-6))
            .collect();
        let prep = preprocessing(&delays);
        let mut cfg = plan_config(&prep);
        let plan_a = build_plan(&sample, &cfg);
        cfg.state_dim = 16;
        let plan_b = build_plan(&sample, &cfg);
        assert_eq!(
            try_build_megabatch(&[&plan_a, &plan_b]).unwrap_err(),
            MegabatchError::StateDimMismatch(8, 16)
        );
    }

    #[test]
    fn compiled_steps_mirror_step_plans() {
        let (_, sample) = toy_sample();
        let delays: Vec<f64> = sample
            .targets
            .iter()
            .map(|t| t.mean_delay_s.max(1e-6))
            .collect();
        let prep = preprocessing(&delays);
        let plan = build_plan(&sample, &plan_config(&prep));
        assert_eq!(plan.csr.len(), plan.steps.len());
        for (s, step) in plan.steps.iter().enumerate() {
            assert_eq!(plan.csr.kinds[s], step.kind);
            assert_eq!(plan.csr.active[s], step.active);
            assert_eq!(plan.csr.ids(s), &step.ids[..]);
            assert!(plan.csr.masks[s].approx_eq(&step.mask, 0.0));
        }
    }

    #[test]
    fn schedule_trace_mentions_all_rnns() {
        let (_, sample) = toy_sample();
        let delays: Vec<f64> = sample
            .targets
            .iter()
            .map(|t| t.mean_delay_s.max(1e-6))
            .collect();
        let prep = preprocessing(&delays);
        let plan = build_plan(&sample, &plan_config(&prep));
        let trace = plan.schedule_trace(3);
        assert!(trace.contains("RNN_P<-node"));
        assert!(trace.contains("RNN_P<-link"));
        assert!(trace.contains("RNN_L"));
        assert!(trace.contains("RNN_N"));
    }
}

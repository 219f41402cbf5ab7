//! Megabatch **composition**: packing sample plans into one block-diagonal
//! [`MegabatchPlan`], and the rule for which plans may share one.
//!
//! [`MegabatchPlan::compose`] is the one composition function. It shifts
//! every part's entity ids into the union id space, pads the path sequences
//! to the longest one (padded positions are masked, so the fused ops skip
//! them exactly), compiles the merged steps to CSR and stacks the feature
//! rows. Training, evaluation, `predict_batch` and the serving workers all
//! compose through it, fresh for every batch: nothing is cached across
//! batches.
//!
//! Plans share a megabatch only when their path sequences cycle through the
//! same entity kinds ([`step_period`]): legacy plans alternate node, link;
//! QoS plans cycle node, queue, link; and a merged step cannot carry two
//! kinds. [`period_runs`] splits a plan set into runs of one period, so a
//! mixed QoS/legacy set composes one megabatch per period instead of
//! failing.

use crate::entities::{
    copy_rows, CompiledSteps, EntityKind, MegabatchError, MegabatchPlan, SamplePlan, StepPlan,
};
use rn_tensor::Matrix;
use std::sync::OnceLock;

/// A composed megabatch is the [`MegabatchPlan`] itself; the name is kept
/// for callers that spell composition as `ComposedMegabatch::compose` (the
/// benchmark's compose probe).
pub type ComposedMegabatch = MegabatchPlan;

impl MegabatchPlan {
    /// Pack `parts` into one block-diagonal megabatch.
    ///
    /// Fails on an empty part list, on parts planned with different state
    /// widths, and on parts of different [`step_period`]s (group those with
    /// [`period_runs`] first). [`crate::entities::build_megabatch`] is this
    /// call with the error turned into a panic.
    pub fn compose(parts: &[&SamplePlan]) -> Result<Self, MegabatchError> {
        if parts.is_empty() {
            return Err(MegabatchError::EmptyBatch);
        }
        let state_dim = parts[0].path_init.cols();

        // Entity offsets per part.
        let mut path_off = Vec::with_capacity(parts.len());
        let mut link_off = Vec::with_capacity(parts.len());
        let mut node_off = Vec::with_capacity(parts.len());
        let mut queue_off = Vec::with_capacity(parts.len());
        let (mut n_paths, mut num_links, mut num_nodes, mut num_queues) = (0, 0, 0, 0);
        for p in parts {
            if p.path_init.cols() != state_dim {
                return Err(MegabatchError::StateDimMismatch(
                    state_dim,
                    p.path_init.cols(),
                ));
            }
            path_off.push(n_paths);
            link_off.push(num_links);
            node_off.push(num_nodes);
            queue_off.push(num_queues);
            n_paths += p.n_paths;
            num_links += p.num_links;
            num_nodes += p.num_nodes;
            num_queues += p.num_queues;
        }

        // Steps padded to the longest sequence in the pack; ids shifted into
        // the union id space. Padded rows point at the part's first entity
        // (any valid id works — the zero mask makes the position inert).
        // The entity kind at each position is whatever the parts carrying
        // the position agree on; a disagreement (mixed legacy and QoS parts)
        // is unbatchable: the merged step would need two kinds.
        let max_len = parts.iter().map(|p| p.steps.len()).max().unwrap_or(0);
        let mut steps = Vec::with_capacity(max_len);
        for pos in 0..max_len {
            let mut carried = parts.iter().filter_map(|p| p.steps.get(pos));
            let kind = carried.next().expect("pos < max_len").kind;
            if carried.any(|s| s.kind != kind) {
                return Err(MegabatchError::ScheduleMismatch(pos));
            }
            let mut ids = vec![0usize; n_paths];
            let mut mask = Matrix::zeros(n_paths, 1);
            let mut active = 0usize;
            for (b, p) in parts.iter().enumerate() {
                let offset = match kind {
                    EntityKind::Link => link_off[b],
                    EntityKind::Node => node_off[b],
                    EntityKind::Queue => queue_off[b],
                };
                let rows = path_off[b]..path_off[b] + p.n_paths;
                match p.steps.get(pos) {
                    Some(step) => {
                        for (row, &id) in rows.zip(&step.ids) {
                            ids[row] = offset + id;
                            mask.set(row, 0, step.mask.get(row - path_off[b], 0));
                        }
                        active += step.active;
                    }
                    None => ids[rows].fill(offset),
                }
            }
            steps.push(StepPlan {
                kind,
                ids,
                mask,
                active,
            });
        }

        // Pairs, incidences, feature rows, targets and loss weights, all in
        // the union id space. Every matrix row belongs to exactly one part.
        let mut pairs = Vec::with_capacity(n_paths);
        let mut node_incidence_paths = Vec::new();
        let mut node_incidence_nodes = Vec::new();
        let mut path_ranges = Vec::with_capacity(parts.len());
        let mut path_init = Matrix::zeros(n_paths, state_dim);
        let mut link_init = Matrix::zeros(num_links, state_dim);
        let mut node_init = Matrix::zeros(num_nodes, state_dim);
        let mut queue_init = Matrix::zeros(num_queues, state_dim);
        let mut targets_norm = Matrix::zeros(n_paths, 1);
        let mut targets_raw = Vec::with_capacity(n_paths);
        let mut reliable_idx = Vec::new();
        let mut sample_mean_weights = Vec::new();
        let mut reliable_samples = 0usize;
        for (b, p) in parts.iter().enumerate() {
            let (po, no) = (path_off[b], node_off[b]);
            pairs.extend(p.pairs.iter().map(|&(s, d)| (no + s, no + d)));
            node_incidence_paths.extend(p.node_incidence_paths.iter().map(|&i| po + i));
            node_incidence_nodes.extend(p.node_incidence_nodes.iter().map(|&i| no + i));
            path_ranges.push((po, po + p.n_paths));
            copy_rows(&mut path_init, po, &p.path_init);
            copy_rows(&mut link_init, link_off[b], &p.link_init);
            copy_rows(&mut node_init, no, &p.node_init);
            copy_rows(&mut queue_init, queue_off[b], &p.queue_init);
            copy_rows(&mut targets_norm, po, &p.targets_norm);
            targets_raw.extend_from_slice(&p.targets_raw);
            let r_s = p.reliable_idx.len();
            if r_s > 0 {
                reliable_samples += 1;
            }
            reliable_idx.extend(p.reliable_idx.iter().map(|&i| po + i));
            sample_mean_weights.extend(std::iter::repeat_n(1.0 / r_s as f32, r_s));
        }

        let csr = CompiledSteps::compile(&steps);
        Ok(Self {
            plan: SamplePlan {
                n_paths,
                num_links,
                num_nodes,
                num_queues,
                pairs,
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
                reliable_shared: OnceLock::new(),
            },
            path_ranges,
            sample_mean_weights,
            reliable_samples,
        })
    }
}

/// The repeating entity-kind cycle of a plan's path sequence: node, link
/// for legacy plans, node, queue, link for QoS ones (empty without steps).
/// Read off the sequence itself, so two plans with equal periods agree on
/// the kind at every position both carry — exactly what composing them into
/// one megabatch requires.
pub fn step_period(plan: &SamplePlan) -> &[EntityKind] {
    let kinds = &plan.csr.kinds;
    let len = (1..=kinds.len())
        .find(|&p| (p..kinds.len()).all(|i| kinds[i] == kinds[i % p]))
        .unwrap_or(0);
    &kinds[..len]
}

/// Split `items` into runs whose plans (read through `plan_of`) share one
/// [`step_period`]. Runs keep input order and come in order of first
/// appearance, so a set of one period is one run, unchanged. Each run
/// composes into one megabatch; a set mixing QoS and legacy plans yields one
/// run per period.
pub fn period_runs<T>(
    items: impl IntoIterator<Item = T>,
    plan_of: impl Fn(&T) -> &SamplePlan,
) -> Vec<Vec<T>> {
    let mut runs: Vec<Vec<T>> = Vec::with_capacity(1);
    for item in items {
        let period = step_period(plan_of(&item));
        match runs
            .iter_mut()
            .find(|run| step_period(plan_of(&run[0])) == period)
        {
            Some(run) => run.push(item),
            None => runs.push(vec![item]),
        }
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entities::{build_plan, PlanConfig, TargetKind};
    use crate::features::FeatureScales;
    use rn_dataset::{generate, GeneratorConfig, Normalizer, QosGenConfig};
    use rn_netgraph::topologies;
    use rn_netsim::SimConfig;

    #[test]
    fn period_runs_split_mixed_sets_by_step_period_in_input_order() {
        let config = |qos: Option<QosGenConfig>| GeneratorConfig {
            sim: SimConfig {
                duration_s: 30.0,
                warmup_s: 5.0,
                ..SimConfig::default()
            },
            qos,
            ..GeneratorConfig::default()
        };
        let legacy = generate(&topologies::toy5(), &config(None), 91, 2).samples;
        let qos = generate(
            &topologies::toy5(),
            &config(Some(QosGenConfig::two_class_mix())),
            92,
            1,
        )
        .samples;
        let (scales, normalizer) = (FeatureScales::unit(), Normalizer::identity());
        let cfg = PlanConfig {
            scales: &scales,
            normalizer: &normalizer,
            state_dim: 8,
            min_packets: 1,
            target: TargetKind::Delay,
        };
        let plans = [
            build_plan(&legacy[0], &cfg),
            build_plan(&qos[0], &cfg),
            build_plan(&legacy[1], &cfg),
        ];
        use EntityKind::{Link, Node, Queue};
        assert_eq!(step_period(&plans[0]), &[Node, Link]);
        assert_eq!(step_period(&plans[1]), &[Node, Queue, Link]);

        let parts: Vec<&SamplePlan> = plans.iter().collect();
        assert!(matches!(
            MegabatchPlan::compose(&parts),
            Err(MegabatchError::ScheduleMismatch(_))
        ));
        let runs = period_runs(parts.iter().copied().enumerate(), |&(_, p)| p);
        let order: Vec<Vec<usize>> = runs
            .iter()
            .map(|run| run.iter().map(|&(i, _)| i).collect())
            .collect();
        assert_eq!(order, vec![vec![0, 2], vec![1]]);
        for run in &runs {
            let run_parts: Vec<&SamplePlan> = run.iter().map(|&(_, p)| p).collect();
            assert!(MegabatchPlan::compose(&run_parts).is_ok());
        }
    }
}

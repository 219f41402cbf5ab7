//! Criterion bench: one training step (forward + backward + gradient
//! extraction) at paper-scale configuration, before and after the fused
//! hot path.
//!
//! Three variants process the same batch of NSFNET samples:
//!
//! - `before/legacy_per_sample` — the pre-refactor path: a fresh tape per
//!   sample, unfused op-by-op forward (`forward_unfused`).
//! - `after/fused_tape_reuse` — fused row-compacted ops (`gather_rows`/
//!   `gru_step_rows`/`segment_acc_rows`) with one pooled tape reused across
//!   the batch.
//! - `after/megabatch` — the production default: the whole batch packed into
//!   one block-diagonal megabatch, one bind, one fused forward/backward
//!   (`backward/megabatch` is its backward pass alone).
//!
//! The two `after/*` rows are measured as an adjacent pair with the order
//! alternating per round, so machine drift cancels out of their ratio
//! (`megabatch_vs_fused_tape_reuse`, > 1 = megabatch slower).
//!
//! The composition-layer family measures what the trainer's prefetch lane
//! hides:
//!
//! - `compose/fresh_build` — one `build_megabatch` (what the trainer's
//!   background lane pays per megabatch, and what a serving worker pays on
//!   a composition-cache miss);
//! - `compose/cached_refill` — rewriting the features of a cached
//!   composition (the serving cache-hit path);
//! - `after/megabatch_fresh_compose` — compose + step: a step whose batch
//!   is composed inline, like the first batch of an epoch;
//! - `after/megabatch_precomposed` — the same step on the same tape with a
//!   pre-composed megabatch: a step whose composition the prefetch lane
//!   finished in time. The two are measured back to back on one tape so the
//!   derived `epoch2_step_speedup_vs_fresh_compose` isolates exactly the
//!   planning cost (at paper scale the kernels dominate, so expect a small
//!   but honest ratio; `epoch2_structure_ns_eliminated_per_step` records
//!   the absolute planning time taken off the step's critical path). The
//!   `epoch2_` keys keep their names so records stay comparable.
//!
//! `activation_map/{scalar,avx2}` times one bulk tanh map over a
//! ~1M-element buffer through the scalar reference loop vs the
//! runtime-dispatched slice kernel (AVX2 on hosts that have it, bitwise
//! identical either way). The derived `activation_speedup` is recorded only
//! when the host actually dispatches AVX2; otherwise an
//! `activation_speedup_suppressed_no_avx2` marker is written so "not
//! measured" cannot be misread as "no speedup".
//!
//! The criterion stand-in writes `BENCH_training_step.json` with ns/op and
//! throughput per variant plus derived ratios, so they are tracked across
//! changes.

use criterion::{criterion_group, criterion_main, Criterion, Measurement};
use rn_autograd::Graph;
use rn_dataset::{generate_sample, Dataset, GeneratorConfig};
use rn_netgraph::topologies;
use rn_netsim::SimConfig;
use rn_nn::Layer;
use rn_tensor::simd::activations as vact;
use routenet::compose::ComposedMegabatch;
use routenet::entities::{build_megabatch, MegabatchPlan, SamplePlan};
use routenet::model::PathPredictor;
use routenet::{ExtendedRouteNet, ModelConfig};

const BATCH: usize = 8;

/// Paper-scale (state_dim=32, T=8) and small-scale (state_dim=8, T=2)
/// models + plans over the same NSFNET scenario batch. The small pair
/// exists for the composition rows: at paper scale the kernels dwarf
/// planning, so the steady-state win of eliminating `build_megabatch` is
/// also measured in a regime where planning is a visible step fraction.
#[allow(clippy::type_complexity)]
fn paper_scale_setup() -> (
    ExtendedRouteNet,
    Vec<SamplePlan>,
    ExtendedRouteNet,
    Vec<SamplePlan>,
) {
    let gen = GeneratorConfig {
        sim: SimConfig {
            duration_s: 60.0,
            warmup_s: 10.0,
            ..SimConfig::default()
        },
        ..GeneratorConfig::default()
    };
    let topo = topologies::nsfnet_default();
    let samples: Vec<_> = (0..BATCH as u64)
        .map(|i| generate_sample(&topo, &gen, 5, i))
        .collect();
    let ds = Dataset {
        topology: topo,
        samples,
    };
    // Paper-scale model: state_dim=32, T=8 message-passing iterations.
    let model_cfg = ModelConfig {
        state_dim: 32,
        mp_iterations: 8,
        readout_hidden: 64,
        ..ModelConfig::default()
    };
    let mut model = ExtendedRouteNet::new(model_cfg);
    model.fit_preprocessing(&ds, 5);
    let plans: Vec<SamplePlan> = ds.samples.iter().map(|s| model.plan(s)).collect();
    let mut small_model = ExtendedRouteNet::new(ModelConfig {
        state_dim: 8,
        mp_iterations: 2,
        readout_hidden: 16,
        ..ModelConfig::default()
    });
    small_model.fit_preprocessing(&ds, 5);
    let small_plans: Vec<SamplePlan> = ds.samples.iter().map(|s| small_model.plan(s)).collect();
    (model, plans, small_model, small_plans)
}

/// Pre-refactor training step, reproduced faithfully: a fresh tape per
/// sample, unfused op-by-op forward, and the tape's reference mode (the
/// seed's naive matmul kernels and libm transcendentals).
fn legacy_step(model: &ExtendedRouteNet, plans: &[SamplePlan]) -> usize {
    let mut total = 0;
    for plan in plans {
        let mut g = Graph::new();
        g.set_reference_mode(true);
        let bound = model.bind(&mut g);
        let pred = model.forward_unfused(&mut g, &bound, plan);
        let reliable = g.gather_rows(pred, &plan.reliable_idx);
        let target = g.constant(plan.reliable_targets_norm());
        let loss = g.mse(reliable, target);
        g.backward(loss);
        total += model.grads(&g, &bound).len();
    }
    total
}

/// Fused ops + one pooled tape reused across the whole batch.
fn fused_pooled_step(model: &ExtendedRouteNet, plans: &[SamplePlan], g: &mut Graph) -> usize {
    let mut total = 0;
    for plan in plans {
        g.reset();
        let bound = model.bind(g);
        let pred = model.forward(g, &bound, plan);
        let reliable = g.gather_rows(pred, &plan.reliable_idx);
        let target = g.constant(plan.reliable_targets_norm());
        let loss = g.mse(reliable, target);
        g.backward(loss);
        total += model.grads(g, &bound).len();
    }
    total
}

/// The production default: one fused block-diagonal pass for the batch.
/// Returns the backward-only nanoseconds.
fn megabatch_step(model: &ExtendedRouteNet, mb: &MegabatchPlan, g: &mut Graph) -> f64 {
    g.reset();
    let bound = model.bind(g);
    let pred = model.forward(g, &bound, &mb.plan);
    let reliable = g.gather_rows(pred, &mb.plan.reliable_idx);
    let target = g.constant(mb.plan.reliable_targets_norm());
    let loss = g.mse(reliable, target);
    let t = std::time::Instant::now();
    g.backward(loss);
    let backward_ns = t.elapsed().as_nanos() as f64;
    std::hint::black_box(model.grads(g, &bound).len());
    backward_ns
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    xs[xs.len() / 2]
}

/// Interleaved measurement: every variant runs once per round, medians
/// across rounds. Sequential per-variant timing would let slow machine-load
/// drift (thermal throttling, noisy neighbors) bias the
/// before/after ratio; round-robin keeps every variant exposed to the same
/// conditions.
fn bench_training_step(_c: &mut Criterion) {
    let (model, plans, small_model, small_plans) = paper_scale_setup();
    const ROUNDS: usize = 13;

    let parts: Vec<&SamplePlan> = plans.iter().collect();
    let small_parts: Vec<&SamplePlan> = small_plans.iter().collect();
    let mb = build_megabatch(&parts);
    // The cached composition whose features get refilled every round — the
    // serving composition-cache-hit path.
    let mut cached_composition = ComposedMegabatch::compose(&parts).expect("compose");
    let mb_small = build_megabatch(&small_parts);

    let mut pooled_tape = Graph::new();
    let mut megabatch_tape = Graph::new();
    let mut fresh_compose_tape = Graph::new();
    let mut small_tape = Graph::new();
    // Bulk activation map input: ~1M elements (well past L2) spanning the
    // interesting tanh range, so the row measures streaming kernel
    // throughput, not cache residency.
    let act_src: Vec<f32> = (0..1usize << 20)
        .map(|i| ((i % 977) as f32) * 0.01 - 4.8)
        .collect();
    let mut act_dst = vec![0.0f32; act_src.len()];

    // Warmup: touch every path once (fills tape pools, faults in pages).
    std::hint::black_box(legacy_step(&model, &plans));
    std::hint::black_box(fused_pooled_step(&model, &plans, &mut pooled_tape));
    std::hint::black_box(megabatch_step(&model, &mb, &mut megabatch_tape));
    std::hint::black_box(megabatch_step(&model, &mb, &mut fresh_compose_tape));
    std::hint::black_box(megabatch_step(&small_model, &mb_small, &mut small_tape));
    vact::tanh_map(&act_src, &mut act_dst);
    vact::tanh_map_scalar(&act_src, &mut act_dst);
    std::hint::black_box(act_dst[0]);

    let mut t_legacy = Vec::with_capacity(ROUNDS);
    let mut t_fused = Vec::with_capacity(ROUNDS);
    let mut t_megabatch = Vec::with_capacity(ROUNDS);
    let mut t_megabatch_bwd = Vec::with_capacity(ROUNDS);
    let mut t_compose_fresh = Vec::with_capacity(ROUNDS);
    let mut t_compose_refill = Vec::with_capacity(ROUNDS);
    let mut t_fresh_compose_step = Vec::with_capacity(ROUNDS);
    let mut t_precomposed_step = Vec::with_capacity(ROUNDS);
    let mut t_small_fresh = Vec::with_capacity(ROUNDS);
    let mut t_small_pre = Vec::with_capacity(ROUNDS);
    let mut t_act_scalar = Vec::with_capacity(ROUNDS);
    let mut t_act_simd = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        let t = std::time::Instant::now();
        std::hint::black_box(legacy_step(&model, &plans));
        t_legacy.push(t.elapsed().as_nanos() as f64);

        // The two production candidates as an adjacent pair, order
        // alternating per round, so drift cancels out of their ratio.
        let mut time_fused = || {
            let t = std::time::Instant::now();
            std::hint::black_box(fused_pooled_step(&model, &plans, &mut pooled_tape));
            t_fused.push(t.elapsed().as_nanos() as f64);
        };
        let mut time_megabatch = || {
            let t = std::time::Instant::now();
            let backward_ns = megabatch_step(&model, &mb, &mut megabatch_tape);
            t_megabatch.push(t.elapsed().as_nanos() as f64);
            t_megabatch_bwd.push(backward_ns);
        };
        if round % 2 == 0 {
            time_fused();
            time_megabatch();
        } else {
            time_megabatch();
            time_fused();
        }

        // Composition layer: fresh structure build vs cached-structure
        // feature refill over the same parts.
        let t = std::time::Instant::now();
        std::hint::black_box(build_megabatch(&parts));
        t_compose_fresh.push(t.elapsed().as_nanos() as f64);

        let t = std::time::Instant::now();
        cached_composition.refill_features(&parts);
        std::hint::black_box(cached_composition.plan().n_paths);
        t_compose_refill.push(t.elapsed().as_nanos() as f64);

        // Inline compose + step, paired with a step on a pre-composed
        // megabatch (what the prefetch lane delivers, same tape). The two
        // run back to back with the order alternating per round, so slow
        // machine drift within a round cancels out of the median ratio.
        let time_fresh = |tape: &mut Graph| {
            let t = std::time::Instant::now();
            let mb_fresh = build_megabatch(&parts);
            std::hint::black_box(megabatch_step(&model, &mb_fresh, tape));
            t.elapsed().as_nanos() as f64
        };
        let time_pre = |tape: &mut Graph| {
            let t = std::time::Instant::now();
            std::hint::black_box(megabatch_step(&model, &mb, tape));
            t.elapsed().as_nanos() as f64
        };
        if round % 2 == 0 {
            t_fresh_compose_step.push(time_fresh(&mut fresh_compose_tape));
            t_precomposed_step.push(time_pre(&mut fresh_compose_tape));
        } else {
            t_precomposed_step.push(time_pre(&mut fresh_compose_tape));
            t_fresh_compose_step.push(time_fresh(&mut fresh_compose_tape));
        }

        // The same pair at small scale (state_dim=8, T=2), where planning
        // is a visible fraction of the step.
        let time_small_fresh = |tape: &mut Graph| {
            let t = std::time::Instant::now();
            let mb_fresh = build_megabatch(&small_parts);
            std::hint::black_box(megabatch_step(&small_model, &mb_fresh, tape));
            t.elapsed().as_nanos() as f64
        };
        let time_small_pre = |tape: &mut Graph| {
            let t = std::time::Instant::now();
            std::hint::black_box(megabatch_step(&small_model, &mb_small, tape));
            t.elapsed().as_nanos() as f64
        };
        if round % 2 == 0 {
            t_small_fresh.push(time_small_fresh(&mut small_tape));
            t_small_pre.push(time_small_pre(&mut small_tape));
        } else {
            t_small_pre.push(time_small_pre(&mut small_tape));
            t_small_fresh.push(time_small_fresh(&mut small_tape));
        }

        // Bulk activation map: dispatched kernel vs scalar reference loop,
        // alternating order per round.
        let time_act = |kernel: fn(&[f32], &mut [f32]), dst: &mut Vec<f32>| {
            let t = std::time::Instant::now();
            kernel(&act_src, dst);
            std::hint::black_box(dst[dst.len() / 2]);
            t.elapsed().as_nanos() as f64
        };
        if round % 2 == 0 {
            t_act_simd.push(time_act(vact::tanh_map, &mut act_dst));
            t_act_scalar.push(time_act(vact::tanh_map_scalar, &mut act_dst));
        } else {
            t_act_scalar.push(time_act(vact::tanh_map_scalar, &mut act_dst));
            t_act_simd.push(time_act(vact::tanh_map, &mut act_dst));
        }
    }

    let (legacy, fused, megabatch) = (median(t_legacy), median(t_fused), median(t_megabatch));
    let megabatch_bwd = median(t_megabatch_bwd);
    let compose_fresh = median(t_compose_fresh);
    let compose_refill = median(t_compose_refill);
    let fresh_compose_step = median(t_fresh_compose_step);
    let precomposed_step = median(t_precomposed_step);
    let small_fresh = median(t_small_fresh);
    let small_pre = median(t_small_pre);
    let act_scalar = median(t_act_scalar);
    let act_simd = median(t_act_simd);

    let rows: Vec<(String, f64)> = vec![
        ("before/legacy_per_sample".into(), legacy),
        ("after/fused_tape_reuse".into(), fused),
        ("after/megabatch".into(), megabatch),
        ("backward/megabatch".into(), megabatch_bwd),
        ("compose/fresh_build".into(), compose_fresh),
        ("compose/cached_refill".into(), compose_refill),
        // Inline compose + step, paired with a step on a pre-composed
        // megabatch (same tape, no structure work on the step's critical
        // path) — at paper scale and at small scale.
        ("after/megabatch_fresh_compose".into(), fresh_compose_step),
        ("after/megabatch_precomposed".into(), precomposed_step),
        ("small/megabatch_fresh_compose".into(), small_fresh),
        ("small/megabatch_precomposed".into(), small_pre),
        // The "avx2" row falls back to the scalar kernel on hosts without
        // AVX2 — the derived key below flags that.
        ("activation_map/scalar".into(), act_scalar),
        ("activation_map/avx2".into(), act_simd),
    ];
    let results: Vec<Measurement> = rows
        .iter()
        .map(|(id, ns)| Measurement {
            id: id.clone(),
            ns_per_op: *ns,
            ops_per_sec: 1.0e9 / ns,
        })
        .collect();
    for m in &results {
        eprintln!(
            "bench training_step/{:<34} {:>14.0} ns/op {:>10.2} ops/s",
            m.id, m.ns_per_op, m.ops_per_sec
        );
    }
    let speedup_mega = legacy / megabatch;
    let speedup_fused = legacy / fused;
    // Composition-layer ratios. Cached refill vs fresh build is measured
    // directly (both are sub-ms and stable). The paper-scale precomposed
    // step speedup is assembled from the component medians — compose cost is
    // ~0.3% of a paper-scale step, far below what the difference of two
    // ~150ms timings resolves on a shared/throttled runner — while the
    // small-scale pair (planning a visible step fraction) is a direct
    // median-of-alternating-pairs measurement.
    let compose_refill_speedup = compose_fresh / compose_refill;
    let epoch2_step_speedup = (precomposed_step + compose_fresh) / precomposed_step;
    let small_epoch2_step_speedup = small_fresh / small_pre;
    let compose_pct_of_step = compose_fresh / precomposed_step * 100.0;
    let compose_pct_of_small_step = compose_fresh / small_pre * 100.0;
    let bench_host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "speedup legacy->megabatch: {speedup_mega:.2}x, legacy->fused: {speedup_fused:.2}x; \
         compose fresh->refill {compose_refill_speedup:.1}x, precomposed step \
         {epoch2_step_speedup:.4}x (small-scale {small_epoch2_step_speedup:.3}x, \
         compose = {compose_pct_of_small_step:.1}% of the small step) \
         [{bench_host_cores} cores available]"
    );
    let mut derived: Vec<(&str, f64)> = vec![
        ("speedup_megabatch_vs_legacy", speedup_mega),
        ("speedup_fused_tape_reuse_vs_legacy", speedup_fused),
        ("megabatch_vs_fused_tape_reuse", megabatch / fused),
        ("compose_refill_speedup_vs_fresh", compose_refill_speedup),
        ("epoch2_step_speedup_vs_fresh_compose", epoch2_step_speedup),
        (
            "small_epoch2_step_speedup_vs_fresh_compose",
            small_epoch2_step_speedup,
        ),
        ("epoch2_structure_ns_eliminated_per_step", compose_fresh),
        ("compose_fresh_pct_of_step", compose_pct_of_step),
        ("compose_fresh_pct_of_small_step", compose_pct_of_small_step),
        ("bench_host_cores", bench_host_cores as f64),
    ];
    if rn_tensor::simd::have_avx2() {
        derived.push(("activation_speedup", act_scalar / act_simd));
    } else {
        // Without AVX2 the dispatched kernel IS the scalar loop; a ~1.0x
        // "speedup" there would be noise masquerading as a regression.
        derived.push(("activation_speedup_suppressed_no_avx2", 1.0));
    }
    criterion::write_report_with_derived("training_step", &results, &derived);
}

criterion_group!(benches, bench_training_step);
criterion_main!(benches);

//! Layer probes the traced run times from the benchmark's own code: plan
//! building, request decoding and the matmul kernel ceiling.

use crate::report::Report;
use crate::stats;
use rn_dataset::Sample;
use rn_serve::Request;
use rn_tensor::{Matrix, Prng};
use routenet::compose::ComposedMegabatch;
use routenet::entities::SamplePlan;
use routenet::PathPredictor;
use std::time::{Duration, Instant};

/// GRU matmul shapes `(m, k, n)` the workloads run: `m` rows of
/// `[input | hidden]` (k = 2 × state 32) against one gate (n = 32) or the
/// three merged gates (n = 96). Rows are one NSFNET scenario's paths (182),
/// a partly active path step (60), a four-sample NSFNET megabatch (728),
/// and one and four GEANT2 samples' paths (552, 2208).
pub const GRU_SHAPES: &[(usize, usize, usize)] = &[
    (182, 64, 32),
    (60, 64, 32),
    (182, 64, 96),
    (728, 64, 96),
    (552, 64, 96),
    (2208, 64, 96),
];

/// Mean milliseconds of `PathPredictor::plan` over `samples`, and the
/// plans it built.
pub fn time_plans<M: PathPredictor>(model: &M, samples: &[Sample]) -> (f64, Vec<SamplePlan>) {
    let t = Instant::now();
    let plans: Vec<SamplePlan> = samples.iter().map(|s| model.plan(s)).collect();
    let ms = t.elapsed().as_secs_f64() * 1e3 / samples.len().max(1) as f64;
    (ms, plans)
}

/// Mean milliseconds of `ComposedMegabatch::compose` over `plans` taken
/// `chunk` at a time.
pub fn time_compose(plans: &[SamplePlan], chunk: usize) -> f64 {
    let batches: Vec<Vec<&SamplePlan>> = plans.chunks(chunk).map(|c| c.iter().collect()).collect();
    let t = Instant::now();
    for parts in &batches {
        std::hint::black_box(
            ComposedMegabatch::compose(parts).expect("plans share one state width"),
        );
    }
    t.elapsed().as_secs_f64() * 1e3 / batches.len().max(1) as f64
}

/// Mean milliseconds to decode one request line with the frontend's own
/// parser (`serde_json::from_str::<Request>`), over `lines`.
pub fn time_decode(lines: &[String]) -> f64 {
    let t = Instant::now();
    for line in lines {
        let request: Request = serde_json::from_str(line).expect("rendered lines decode");
        std::hint::black_box(request);
    }
    t.elapsed().as_secs_f64() * 1e3 / lines.len().max(1) as f64
}

/// GFLOP/s of `Matrix::matmul_into` at `(m, k, n)`: the median of five
/// blocks, each repeating the call for at least 20 ms.
pub fn matmul_gflops(m: usize, k: usize, n: usize) -> f64 {
    let mut rng = Prng::new(0x6d61_746d_756c);
    let a = rng.uniform_matrix(m, k, -1.0, 1.0);
    let b = rng.uniform_matrix(k, n, -1.0, 1.0);
    let mut out = Matrix::zeros(m, n);
    let flops = 2.0 * (m * k * n) as f64;
    let block = Duration::from_millis(20);
    let rates: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut calls = 0u64;
            while t.elapsed() < block {
                std::hint::black_box(&a).matmul_into(std::hint::black_box(&b), &mut out);
                calls += 1;
            }
            std::hint::black_box(&out);
            flops * calls as f64 / t.elapsed().as_secs_f64() / 1e9
        })
        .collect();
    stats::median(&rates).unwrap_or(0.0)
}

/// Record the kernel ceiling at every shape in [`GRU_SHAPES`].
pub fn kernel_ceiling(report: &mut Report) {
    for &(m, k, n) in GRU_SHAPES {
        report.metric(
            &format!("tensor.matmul_gflops.{m}x{k}x{n}"),
            matmul_gflops(m, k, n),
            "GFLOP/s",
        );
    }
}

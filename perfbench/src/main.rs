//! The repository benchmark: paper-scale training and what-if serving,
//! end to end and per layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (see `BENCHMARK.json` for why each exists):
//!
//! - `train_geant2` — `ExtendedRouteNet` trained with `routenet::train` on
//!   simulated GEANT2 samples in batches of 8, then evaluated on held-out
//!   samples;
//! - `train_qos_nsfnet` — `QosRouteNet` on SP/WFQ/DRR NSFNET scenarios;
//! - `serve_cached` — a `Service` behind a loopback `TcpServer`, two
//!   closed-loop clients querying registered scenarios by fingerprint;
//! - `serve_fresh` — the same service, every request a full never-seen
//!   what-if scenario.
//!
//! Every workload runs the library's defaults at paper scale (state 32,
//! T = 8, readout 64); inputs are generated from `--seed` only. The last
//! stdout line is the result object; the line before it is provenance
//! (host, revision, label digest). With `--trace 0` the result carries the
//! end-to-end metrics, with `--trace 1` (which sets `RN_TRACE=1`) the
//! per-layer ones — a layer the workload does not run reports 0.
//!
//! Every workload reports every end-to-end metric; the trainer and the
//! what-if optimiser see them as follows:
//!
//! - `setup_s` — median of three set-ups: simulation and model
//!   initialisation, plus preprocessing fit, service start and
//!   registration when serving;
//! - `throughput_per_s` — sample-steps per second of `train` wall time;
//!   completed correct requests per second (median over blocks of 64
//!   completions) when serving;
//! - `latency_p50_ms` — median optimizer-step time; the client-observed
//!   request round trip when serving;
//! - `median_abs_rel_err` — median |relative error| against simulated
//!   labels: of the trained model on held-out samples, or of the served
//!   answers for the simulated scenarios;
//! - `peak_rss_mb` — peak resident memory of the process.

mod instrument;
mod probes;
mod report;
mod serve;
mod stats;
mod train;

use report::{Provenance, Report};
use std::path::PathBuf;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &[
    "train_geant2",
    "train_qos_nsfnet",
    "serve_cached",
    "serve_fresh",
];

/// End-to-end metrics every untraced run reports, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("median_abs_rel_err", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every traced run reports, with their units; a layer
/// the workload does not run reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("dataset.generate_s", "s"),
    ("netsim.delivered_pkts_per_s", "1/s"),
    ("entities.plan_ms", "ms"),
    ("plan_cache.hit_rate", "ratio"),
    ("compose.build_ms", "ms"),
    ("compose.hit_rate", "ratio"),
    ("trainer.compose_wait_ms", "ms"),
    ("trainer.forward_ms", "ms"),
    ("trainer.backward_ms", "ms"),
    ("trainer.optimizer_ms", "ms"),
    ("trainer.bwd_fwd_ratio", "ratio"),
    ("trainer.busy_ms", "ms"),
    ("trainer.wall_x_workers_ms", "ms"),
    ("trainer.busy_over_wall", "ratio"),
    ("trainer.steps", "count"),
    ("trainer.final_train_loss", "loss"),
    ("autograd.bwd.gather_ms", "ms"),
    ("autograd.bwd.gru_ms", "ms"),
    ("autograd.bwd.segment_ms", "ms"),
    ("autograd.bwd.matmul_ms", "ms"),
    ("autograd.bwd.activation_ms", "ms"),
    ("autograd.bwd.elementwise_ms", "ms"),
    ("autograd.bwd.other_ms", "ms"),
    ("service.queue_wait_ms", "ms"),
    ("service.batch_assembly_ms", "ms"),
    ("service.compose_ms", "ms"),
    ("service.forward_ms", "ms"),
    ("service.reply_ms", "ms"),
    ("service.stage_sum_ms", "ms"),
    ("service.latency_mean_ms", "ms"),
    ("service.batch_occupancy", "count"),
    ("service.rejected", "count"),
    ("service.worker_restarts", "count"),
    ("server.decode_ms", "ms"),
    ("server.frontend_ms", "ms"),
    ("client.latency_p50_ms", "ms"),
    ("client.latency_p99_ms", "ms"),
    ("client.latency_samples", "count"),
    ("tensor.matmul_gflops.182x64x32", "GFLOP/s"),
    ("tensor.matmul_gflops.60x64x32", "GFLOP/s"),
    ("tensor.matmul_gflops.182x64x96", "GFLOP/s"),
    ("tensor.matmul_gflops.728x64x96", "GFLOP/s"),
    ("tensor.matmul_gflops.552x64x96", "GFLOP/s"),
    ("tensor.matmul_gflops.2208x64x96", "GFLOP/s"),
    ("trace.overhead_pct", "%"),
];

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Tiny inputs and model, for the benchmark's own tests only.
    pub smoke: bool,
}

impl Args {
    /// Parse `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 3600.0) {
                        return Err(format!("--seconds must be in (0, 3600], got {s}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace must be 0 or 1, got {other}")),
                    })
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        let workload: String = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload} (one of {WORKLOADS:?})"
            ));
        }
        Ok(Self {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
            smoke: false,
        })
    }
}

/// Where the benchmark writes transient files (the trainer's trace
/// stream): under the build directory, which is never committed.
pub fn scratch_dir() -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"));
    let dir = base.join("perfbench-scratch");
    std::fs::create_dir_all(&dir).expect("create the benchmark's scratch directory");
    dir
}

/// Run one workload and add the metrics every workload shares.
pub fn run(args: &Args, prov: &mut Provenance) -> Report {
    let mut report = match args.workload.as_str() {
        "train_geant2" => train::run_geant2(args, prov),
        "train_qos_nsfnet" => train::run_qos_nsfnet(args, prov),
        "serve_cached" => serve::run(serve::Mode::Cached, args, prov),
        "serve_fresh" => serve::run(serve::Mode::Fresh, args, prov),
        other => unreachable!("workload {other} was validated at parse time"),
    };
    let expected = if args.trace {
        probes::kernel_ceiling(&mut report);
        for (name, unit) in PER_LAYER {
            if report.get(name).is_none() {
                report.metric(name, 0.0, unit);
            }
        }
        PER_LAYER
    } else {
        report.metric(
            "peak_rss_mb",
            instrument::peak_rss_mb().unwrap_or(f64::NAN),
            "MB",
        );
        END_TO_END
    };
    let names: Vec<String> = report.names().iter().map(|n| n.to_string()).collect();
    report.check(
        names.iter().all(|n| expected.iter().any(|(e, _)| e == n)),
        || format!("metrics outside the declared set: {names:?}"),
    );
    report.check(
        expected.iter().all(|(n, _)| report.get(n).is_some()),
        || format!("declared metrics missing: {names:?}"),
    );
    report
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    if args.trace {
        // Set before any thread starts; rn_trace reads it once.
        std::env::set_var("RN_TRACE", "1");
    }
    let mut prov = Provenance::host();
    prov.add("workload", &args.workload);
    prov.add("seed", &args.seed.to_string());
    let report = run(&args, &mut prov);
    println!("{}", prov.to_json());
    println!("{}", report.to_json());
}

#[cfg(test)]
mod tests;

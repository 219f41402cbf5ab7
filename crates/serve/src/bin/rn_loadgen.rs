//! Load generator CLI: drive a running `rn_serve` frontend and print a
//! throughput/latency report as JSON.
//!
//! ```sh
//! rn_loadgen --addr 127.0.0.1:9977 --topology nsfnet \
//!            --clients 4 --requests 64 --mode cached \
//!            --deadline-ms 250 --retries 3 --backoff-ms 5
//! ```
//!
//! `--mode naive` re-sends the full scenario JSON on every request (the
//! pre-serving usage pattern); `--mode cached` registers scenarios once and
//! then queries by fingerprint. Scenario generation is seed-deterministic,
//! so pointing this at a server started on the same topology works without
//! shipping files around.
//!
//! An unreachable server, a bad flag, or a failed client thread exits
//! nonzero with a one-line summary on stderr — never a panic/backtrace —
//! so shell pipelines and the examples' quickstart can branch on `$?`.

use rn_serve::loadgen::{demo_scenarios, run_loadgen, Client, LoadMode, LoadgenConfig};
use rn_serve::{Request, Response};
use std::process::ExitCode;

fn arg(name: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            return args.next();
        }
    }
    None
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("[loadgen] error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let defaults = LoadgenConfig::new(arg("--addr").unwrap_or_else(|| "127.0.0.1:9977".into()));
    let config = LoadgenConfig {
        clients: arg("--clients").and_then(|v| v.parse().ok()).unwrap_or(4),
        requests_per_client: arg("--requests").and_then(|v| v.parse().ok()).unwrap_or(32),
        mode: LoadMode::parse(&arg("--mode").unwrap_or_else(|| "cached".into()))?,
        deadline_ms: arg("--deadline-ms")
            .and_then(|v| v.parse().ok())
            .filter(|&ms: &u64| ms > 0),
        max_retries: arg("--retries")
            .and_then(|v| v.parse().ok())
            .unwrap_or(defaults.max_retries),
        backoff_base_ms: arg("--backoff-ms")
            .and_then(|v| v.parse().ok())
            .unwrap_or(defaults.backoff_base_ms),
        ..defaults
    };
    let topology = arg("--topology").unwrap_or_else(|| "nsfnet".into());
    let scenarios: usize = arg("--scenarios").and_then(|v| v.parse().ok()).unwrap_or(4);
    let sim_s: f64 = arg("--sim-duration")
        .and_then(|v| v.parse().ok())
        .unwrap_or(60.0);
    let seed: u64 = arg("--seed").and_then(|v| v.parse().ok()).unwrap_or(2019);

    eprintln!("[loadgen] generating {scenarios} {topology} scenarios ...");
    let (_, samples) = demo_scenarios(&topology, scenarios, sim_s, seed)?;
    eprintln!(
        "[loadgen] {} clients x {} requests ({:?}) against {}",
        config.clients, config.requests_per_client, config.mode, config.addr
    );
    let report = run_loadgen(&config, &samples)
        .map_err(|e| format!("{e} (is rn_serve running at {}?)", config.addr))?;
    println!(
        "{}",
        serde_json::to_string(&report).map_err(|e| format!("serialize report: {e}"))?
    );
    if report.rejected > 0 || report.retries > 0 || report.gave_up > 0 {
        eprintln!(
            "[loadgen] overload: {} rejects ({:.1}% of attempts), {} retries, \
             {} gave up, {} deadline-expired",
            report.rejected,
            report.reject_rate * 100.0,
            report.retries,
            report.gave_up,
            report.deadline_exceeded,
        );
    }

    // End-of-run server-side cache summary: how much planning the plan
    // cache absorbed.
    match Client::connect(&config.addr).and_then(|mut c| {
        c.round_trip(&Request::Metrics)
            .map_err(std::io::Error::other)
    }) {
        Ok(Response::Metrics { snapshot }) => {
            eprintln!(
                "[loadgen] server plan cache: hit rate {:.3} ({}/{} lookups)",
                snapshot.cache_hit_rate,
                snapshot.cache_hits,
                snapshot.cache_hits + snapshot.cache_misses,
            );
            eprintln!(
                "[loadgen] server: {} workers, model v{}, up {:.1}s",
                snapshot.workers, snapshot.model_version, snapshot.uptime_s
            );
            // Request-lifecycle breakdown, present when the server runs
            // with RN_TRACE=1: where a request's latency actually goes.
            for s in &snapshot.stage_latency {
                eprintln!(
                    "[loadgen] stage {:>14}: n {:>6}  p50 {:>8.3}ms  p95 {:>8.3}ms  \
                     p99 {:>8.3}ms  mean {:>8.3}ms  total {:>10.1}ms",
                    s.name, s.count, s.p50_ms, s.p95_ms, s.p99_ms, s.mean_ms, s.total_ms
                );
            }
            // And mirror the snapshot to a JSONL file for dashboards/CI
            // artifacts when this side runs traced too.
            if rn_trace::enabled() {
                let path = std::env::var("RN_TRACE_SERVE_OUT")
                    .ok()
                    .filter(|p| !p.trim().is_empty())
                    .unwrap_or_else(|| "serve_metrics.jsonl".into());
                match serde_json::to_string(&snapshot) {
                    Ok(line) => match std::fs::write(&path, line + "\n") {
                        Ok(()) => eprintln!("[loadgen] metrics snapshot written to {path}"),
                        Err(e) => eprintln!("[loadgen] cannot write {path}: {e}"),
                    },
                    Err(e) => eprintln!("[loadgen] serialize snapshot: {e}"),
                }
            }
        }
        Ok(other) => eprintln!("[loadgen] unexpected metrics response: {other:?}"),
        Err(e) => eprintln!("[loadgen] metrics fetch failed: {e}"),
    }
    // A run where every request failed is a failed run, even though the
    // report printed — quickstart scripts branch on the exit code.
    if report.requests == 0 {
        return Err("no request succeeded".into());
    }
    Ok(())
}

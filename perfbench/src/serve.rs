//! The serving workloads: `serve_cached` (registered scenarios queried by
//! fingerprint, the plan-cache read path) and `serve_fresh` (every request
//! a full what-if scenario the server has not seen, the write path).
//!
//! One in-process `Service` behind a loopback `TcpServer` serves an
//! untrained paper-scale extended RouteNet (fixed weights) fitted on 64
//! NSFNET scenarios simulated from the run's seed. Two closed-loop clients — the optimiser waits for each
//! answer before asking the next question — send pre-rendered request
//! lines until `--seconds` have passed. Every answer is checked for one
//! finite delay per path, and a seeded subset is compared bit for bit with
//! in-process `predict_batch` on the same model.

use crate::instrument::{self, Fnv};
use crate::probes;
use crate::report::{Provenance, Report};
use crate::stats;
use crate::train::{model_config, SETUPS};
use crate::Args;
use rn_dataset::{generate, Dataset, GeneratorConfig, Sample};
use rn_netgraph::topologies;
use rn_serve::loadgen::Client;
use rn_serve::{MetricsSnapshot, Request, Response, ServeConfig, Service, TcpServer};
use rn_tensor::Prng;
use routenet::{ExtendedRouteNet, PathPredictor, TrainConfig};
use std::time::{Duration, Instant};

/// Simulated NSFNET scenarios the service is fitted on (and, for
/// `serve_cached`, the registered working set).
pub const SCENARIOS: usize = 64;
/// Closed-loop clients (no more than the two cores of the reference host).
pub const CLIENTS: usize = 2;
/// Requests each client sends before timing starts (cache and allocator
/// warm-up); not counted.
const WARMUP_PER_CLIENT: usize = 32;
/// `serve_fresh` renders this many times the lines each client could send
/// at its warm-up rate, so no line is sent twice even when the timed phase
/// runs faster than the warm-up.
const FRESH_MARGIN: f64 = 2.0;
/// Length of each `serve_cached` client's seeded scenario order (cycled).
const CACHED_ORDER: usize = 4096;
/// Completions per throughput block; `throughput_per_s` is the median
/// block rate, which a brief stall of the host does not move.
const BLOCK: usize = 64;
/// One request in this many (seeded) is compared bitwise with in-process
/// `predict_batch`.
const CHECK_ONE_IN: u64 = 16;
/// At most this many bitwise comparisons per client.
const MAX_CHECKS_PER_CLIENT: usize = 48;

/// Which serving workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// Register once, then query by fingerprint.
    Cached,
    /// A full, never-seen scenario per request.
    Fresh,
}

/// The scenario count of a run (a handful for smoke runs).
fn scenario_count(args: &Args) -> usize {
    if args.smoke {
        4
    } else {
        SCENARIOS
    }
}

/// `count` simulated scenarios for `seed`.
pub fn scenarios(seed: u64, count: usize) -> Dataset {
    generate(
        &topologies::nsfnet_default(),
        &GeneratorConfig::default(),
        seed,
        count,
    )
}

/// What-if variant `k` of the base scenarios: base `k mod 64` with every
/// flow's rate scaled by a seeded factor in [0.75, 1.25). Routing,
/// capacities and queues are the base's; the labels stay the base's too
/// and are never read for a variant.
pub fn fresh_variant(base: &[Sample], seed: u64, k: usize) -> Sample {
    let mut sample = base[k % base.len()].clone();
    let mut rng = Prng::new(seed ^ 0x5768_6174_2d49_6621).split(k as u64);
    let n = sample.traffic.num_nodes();
    for src in 0..n {
        for dst in 0..n {
            let rate = sample.traffic.rate(src, dst);
            if rate > 0.0 {
                let factor = 0.75 + 0.5 * rng.uniform_pos_f64();
                sample.traffic.set(src, dst, rate * factor);
            }
        }
    }
    sample
}

/// Render one request as its wire line.
fn render(request: &Request) -> String {
    serde_json::to_string(request).expect("requests serialize")
}

/// A started service, its frontend and the reference copy of its model.
struct Stack {
    service: Service<ExtendedRouteNet>,
    server: TcpServer,
    reference: ExtendedRouteNet,
    /// Fingerprint (hex) of each scenario, when registered.
    registered: Vec<String>,
}

impl Stack {
    fn stop(self) {
        self.server.stop();
        self.service.shutdown();
    }
}

/// Start the stack on `ds`; register the scenarios when `register`.
/// Returns the stack and the set-up seconds, which exclude the
/// benchmark's own rendering of the registration lines.
fn start(ds: &Dataset, args: &Args, register: bool) -> (Stack, f64) {
    let t = Instant::now();
    let mut model = ExtendedRouteNet::new(model_config(args));
    model.fit_preprocessing(ds, TrainConfig::default().min_packets);
    let reference = model.clone();
    let service = Service::start(model, ServeConfig::default());
    let server = TcpServer::bind(service.handle(), "127.0.0.1:0").expect("bind loopback");
    let mut setup_s = t.elapsed().as_secs_f64();
    let mut registered = Vec::new();
    if register {
        let lines: Vec<String> = ds
            .samples
            .iter()
            .map(|s| render(&Request::Register { sample: s.clone() }))
            .collect();
        let addr = server.local_addr().to_string();
        let t = Instant::now();
        let halves: Vec<Vec<String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = lines
                .chunks(lines.len().div_ceil(CLIENTS))
                .map(|chunk| {
                    let addr = &addr;
                    scope.spawn(move || {
                        let mut client = Client::connect(addr).expect("connect loopback");
                        chunk
                            .iter()
                            .map(|line| match client.round_trip_line(line) {
                                Ok(Response::Registered { plan, .. }) => plan,
                                other => panic!("registration failed: {other:?}"),
                            })
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("registration client"))
                .collect()
        });
        setup_s += t.elapsed().as_secs_f64();
        registered = halves.into_iter().flatten().collect();
    }
    (
        Stack {
            service,
            server,
            reference,
            registered,
        },
        setup_s,
    )
}

/// One client's pre-rendered request stream.
#[derive(Default)]
struct Stream {
    lines: Vec<String>,
    /// `(line index, key)` in send order: the key is the scenario index for
    /// `serve_cached` and the variant index for `serve_fresh`.
    order: Vec<(usize, usize)>,
    /// Start over at the end (`serve_cached`); otherwise the stream is
    /// used up (`serve_fresh`, whose lines must never repeat).
    cycle: bool,
}

impl Stream {
    /// Client `c`'s `serve_cached` stream: a seeded order over the
    /// registered fingerprints.
    fn cached(registered: &[String], seed: u64, c: usize) -> Self {
        let lines = registered
            .iter()
            .map(|plan| {
                render(&Request::Cached {
                    plan: plan.clone(),
                    deadline_ms: None,
                })
            })
            .collect();
        let mut rng = Prng::new(seed).split(c as u64);
        let order = (0..CACHED_ORDER)
            .map(|_| {
                let k = rng.index(registered.len());
                (k, k)
            })
            .collect();
        Self {
            lines,
            order,
            cycle: true,
        }
    }

    /// Render `count` more never-seen variants onto client `c`'s
    /// `serve_fresh` stream. Variant keys are disjoint across clients.
    fn extend_fresh(&mut self, base: &[Sample], seed: u64, c: usize, count: usize) {
        let from = self.order.len();
        for i in from..from + count {
            let k = i * CLIENTS + c;
            self.lines.push(render(&Request::Predict {
                sample: fresh_variant(base, seed, k),
                deadline_ms: None,
            }));
            self.order.push((self.lines.len() - 1, k));
        }
    }
}

/// What one client saw in one phase.
#[derive(Default)]
struct ClientLog {
    /// Round trip of each good answer.
    latencies_ms: Vec<f64>,
    /// Completion time of each good answer, seconds from the phase start.
    done_s: Vec<f64>,
    failed: u64,
    /// `(key, delays)` of the seeded subset kept for the bitwise check.
    kept: Vec<(usize, Vec<f64>)>,
    /// Position in the stream where the next phase continues.
    next: usize,
    ran_out: bool,
}

/// Keep request `i` of client `c` for the bitwise check?
fn keep(seed: u64, c: usize, i: usize) -> bool {
    let mut h = Fnv::default();
    h.bytes(&seed.to_le_bytes());
    h.bytes(&(c as u64).to_le_bytes());
    h.bytes(&(i as u64).to_le_bytes());
    h.finish() % CHECK_ONE_IN == 0
}

/// Is `response` one finite delay per path?
fn delays_of(response: Result<Response, String>, paths: usize) -> Option<Vec<f64>> {
    match response {
        Ok(Response::Delays { delays_s, .. })
            if delays_s.len() == paths && delays_s.iter().all(|v| v.is_finite()) =>
        {
            Some(delays_s)
        }
        _ => None,
    }
}

/// The shared settings of one phase of closed-loop load.
struct Load<'a> {
    addr: &'a str,
    paths: &'a (dyn Fn(usize) -> usize + Sync),
    seed: u64,
    /// Requests per client, at most.
    count: usize,
    start: Instant,
    deadline: Option<Instant>,
}

/// Drive client `c` from position `from` of its stream: `load.count`
/// requests, or until the deadline when there is one.
fn drive(load: &Load, stream: &Stream, c: usize, from: usize) -> ClientLog {
    let mut client = Client::connect(load.addr).expect("connect loopback");
    let mut log = ClientLog {
        next: from,
        ..ClientLog::default()
    };
    let end = from.saturating_add(load.count);
    while log.next < end && load.deadline.is_none_or(|d| Instant::now() < d) {
        let at = if stream.cycle {
            log.next % stream.order.len()
        } else {
            log.next
        };
        let Some(&(line, key)) = stream.order.get(at) else {
            log.ran_out = true;
            break;
        };
        let t = Instant::now();
        let response = client.round_trip_line(&stream.lines[line]);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match delays_of(response, (load.paths)(key)) {
            Some(delays) => {
                log.latencies_ms.push(ms);
                log.done_s.push(load.start.elapsed().as_secs_f64());
                if keep(load.seed, c, log.next) && log.kept.len() < MAX_CHECKS_PER_CLIENT {
                    log.kept.push((key, delays));
                }
            }
            None => log.failed += 1,
        }
        log.next += 1;
    }
    log
}

/// Run every client concurrently from its position in `from`, for
/// `count` requests each or `seconds` when given.
fn phase(
    addr: &str,
    streams: &[Stream],
    paths: &(dyn Fn(usize) -> usize + Sync),
    seed: u64,
    from: &[usize],
    count: usize,
    seconds: Option<f64>,
) -> Vec<ClientLog> {
    let start = Instant::now();
    let load = Load {
        addr,
        paths,
        seed,
        count,
        start,
        deadline: seconds.map(|s| start + Duration::from_secs_f64(s)),
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .zip(from)
            .enumerate()
            .map(|(c, (stream, &from))| {
                let load = &load;
                scope.spawn(move || drive(load, stream, c, from))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    })
}

/// Completed requests per second: the median over consecutive blocks of
/// [`BLOCK`] completions (all clients merged) of the block's rate; the
/// plain mean rate when there are too few completions for two blocks.
fn block_rate(logs: &[ClientLog]) -> f64 {
    let mut done: Vec<f64> = logs.iter().flat_map(|l| l.done_s.iter().copied()).collect();
    done.sort_by(f64::total_cmp);
    if done.len() < 2 * BLOCK + 1 {
        return done.len() as f64 / done.last().copied().unwrap_or(f64::INFINITY);
    }
    let rates: Vec<f64> = done
        .iter()
        .step_by(BLOCK)
        .collect::<Vec<_>>()
        .windows(2)
        .map(|w| BLOCK as f64 / (w[1] - w[0]))
        .collect();
    stats::median(&rates).unwrap_or(0.0)
}

/// Counter deltas between two service snapshots.
struct Delta<'a> {
    before: &'a MetricsSnapshot,
    after: &'a MetricsSnapshot,
}

impl Delta<'_> {
    fn ratio(hits: u64, misses: u64) -> f64 {
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    }

    fn plan_hit_rate(&self) -> f64 {
        Self::ratio(
            self.after.cache_hits - self.before.cache_hits,
            self.after.cache_misses - self.before.cache_misses,
        )
    }

    fn compose_hit_rate(&self) -> f64 {
        Self::ratio(
            self.after.compose_hits - self.before.compose_hits,
            self.after.compose_misses - self.before.compose_misses,
        )
    }

    fn completed(&self) -> u64 {
        self.after.completed - self.before.completed
    }

    fn occupancy(&self) -> f64 {
        self.completed() as f64 / (self.after.batches - self.before.batches).max(1) as f64
    }

    /// Mean service-side latency (admission → answer) of the requests
    /// completed between the snapshots, from the histogram's exact sums.
    fn latency_mean_ms(&self) -> f64 {
        let sum = self.after.latency_mean_ms * self.after.completed as f64
            - self.before.latency_mean_ms * self.before.completed as f64;
        sum / self.completed().max(1) as f64
    }
}

/// Run `serve_cached` or `serve_fresh`.
pub fn run(mode: Mode, args: &Args, prov: &mut Provenance) -> Report {
    let mut report = Report::default();
    let n_scen = scenario_count(args);

    // ---- set-up, repeated --------------------------------------------------
    let mut setup_s = Vec::new();
    let mut generate_s = Vec::new();
    let mut digests = Vec::new();
    let mut live: Option<(Stack, Dataset)> = None;
    for _ in 0..SETUPS {
        if let Some((stack, _)) = live.take() {
            stack.stop();
        }
        let t = Instant::now();
        let ds = scenarios(args.seed, n_scen);
        let gen = t.elapsed().as_secs_f64();
        let (stack, start_s) = start(&ds, args, mode == Mode::Cached);
        setup_s.push(gen + start_s);
        generate_s.push(gen);
        digests.push(instrument::label_digest(&ds.samples));
        live = Some((stack, ds));
    }
    let (stack, ds) = live.expect("at least one set-up");
    report.check(digests.iter().all(|&d| d == digests[0]), || {
        format!("label digests differ across set-ups of one seed: {digests:x?}")
    });
    prov.add("dataset.label_digest", &format!("{:016x}", digests[0]));
    prov.add("scenarios", &n_scen.to_string());
    prov.add("clients", &CLIENTS.to_string());
    eprintln!("[perfbench] set-up x{SETUPS}: {setup_s:?} s (simulation {generate_s:?} s)");
    let paths_of: Vec<usize> = ds.samples.iter().map(Sample::num_paths).collect();
    let paths = |key: usize| paths_of[key % n_scen];

    // ---- render every request line before timing ---------------------------
    let mut streams: Vec<Stream> = (0..CLIENTS)
        .map(|c| match mode {
            Mode::Cached => Stream::cached(&stack.registered, args.seed, c),
            Mode::Fresh => {
                let mut stream = Stream::default();
                stream.extend_fresh(&ds.samples, args.seed, c, WARMUP_PER_CLIENT);
                stream
            }
        })
        .collect();
    let addr = stack.server.local_addr().to_string();
    let handle = stack.service.handle();

    // ---- warm-up, then the timed phases --------------------------------------
    // A traced run splits the time into an untraced and a traced half, in
    // that order, for the overhead figure; an untraced run is one phase.
    rn_trace::set_enabled(false);
    let zero = vec![0; CLIENTS];
    let warm = phase(
        &addr,
        &streams,
        &paths,
        args.seed,
        &zero,
        WARMUP_PER_CLIENT,
        None,
    );
    let mut from: Vec<usize> = warm.iter().map(|l| l.next).collect();
    if mode == Mode::Fresh {
        let t = Instant::now();
        std::thread::scope(|scope| {
            for ((c, stream), log) in streams.iter_mut().enumerate().zip(&warm) {
                let rate = log.done_s.len() as f64 / log.done_s.last().copied().unwrap_or(1.0);
                let count =
                    (rate * args.seconds * FRESH_MARGIN).ceil() as usize + WARMUP_PER_CLIENT;
                let base = &ds.samples;
                scope.spawn(move || stream.extend_fresh(base, args.seed, c, count));
            }
        });
        eprintln!(
            "[perfbench] rendered {} what-if lines in {:.2} s",
            streams.iter().map(|s| s.lines.len()).sum::<usize>(),
            t.elapsed().as_secs_f64()
        );
    }
    let phases = if args.trace { 2 } else { 1 };
    let mut snaps = vec![handle.metrics()];
    let mut timed = Vec::new();
    for p in 0..phases {
        rn_trace::set_enabled(args.trace && p == 1);
        let logs = phase(
            &addr,
            &streams,
            &paths,
            args.seed,
            &from,
            usize::MAX,
            Some(args.seconds / phases as f64),
        );
        // Stage latencies are only in a snapshot taken while tracing is on.
        snaps.push(handle.metrics());
        rn_trace::set_enabled(false);
        from = logs.iter().map(|l| l.next).collect();
        timed.push(logs);
    }

    // The property each workload exists for: `serve_cached` requests hit
    // the plan cache, `serve_fresh` requests miss it.
    let timed_delta = Delta {
        before: &snaps[0],
        after: &snaps[phases],
    };
    let hit_rate = timed_delta.plan_hit_rate();
    let holds = match mode {
        Mode::Cached => hit_rate >= 0.95,
        Mode::Fresh => hit_rate <= 0.05,
    };
    report.check(holds, || {
        format!("{mode:?} timed requests hit the plan cache at rate {hit_rate}")
    });

    // ---- verification pass: every base scenario once, untimed ----------------
    // Its answers are compared bitwise with the reference and against the
    // simulator's labels for the accuracy figure.
    let verify_lines: Vec<String> = (0..n_scen)
        .map(|k| match mode {
            Mode::Cached => render(&Request::Cached {
                plan: stack.registered[k].clone(),
                deadline_ms: None,
            }),
            Mode::Fresh => render(&Request::Predict {
                sample: ds.samples[k].clone(),
                deadline_ms: None,
            }),
        })
        .collect();
    let mut client = Client::connect(&addr).expect("connect loopback");
    let mut rel_errors = Vec::new();
    let mut verified = Vec::new();
    for (k, line) in verify_lines.iter().enumerate() {
        let answer = delays_of(client.round_trip_line(line), paths(k));
        report.op(answer.is_some());
        if let Some(delays) = answer {
            for (t, pred) in ds.samples[k].targets.iter().zip(&delays) {
                if t.is_reliable(TrainConfig::default().min_packets) && t.mean_delay_s > 0.0 {
                    rel_errors.push(((pred - t.mean_delay_s) / t.mean_delay_s).abs());
                }
            }
            verified.push((k, delays));
        }
    }
    drop(client);

    // ---- output checks --------------------------------------------------------
    let reference = &stack.reference;
    let reference_sample = |key: usize| match mode {
        Mode::Cached => ds.samples[key].clone(),
        Mode::Fresh => fresh_variant(&ds.samples, args.seed, key),
    };
    let mut compared = 0u64;
    let mut mismatched = 0u64;
    let mut check = |key: usize, delays: &[f64], sample: Sample| {
        let expect = reference.predict_batch(&[reference.plan(&sample)]);
        compared += 1;
        let same = expect[0].len() == delays.len()
            && expect[0]
                .iter()
                .zip(delays)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            mismatched += 1;
            eprintln!("[perfbench] answer for key {key} differs from in-process predict_batch");
        }
    };
    for logs in &timed {
        for log in logs {
            report.attempted += log.done_s.len() as u64 + log.failed;
            report.failed += log.failed;
            for (key, delays) in &log.kept {
                check(*key, delays, reference_sample(*key));
            }
        }
    }
    for (k, delays) in &verified {
        check(*k, delays, ds.samples[*k].clone());
    }
    // A mismatching answer was counted as completed above; it failed.
    report.failed += mismatched;
    let ran_out = timed.iter().flatten().any(|l| l.ran_out);
    report.check(!ran_out, || "a client ran out of pre-rendered lines".into());
    eprintln!("[perfbench] {compared} answers compared bitwise, {mismatched} differ");
    prov.add("bitwise_checked", &compared.to_string());

    // ---- end-to-end figures (phase 0 is untraced) -----------------------------
    let logs0 = &timed[0];
    let rate0 = block_rate(logs0);
    let lat0: Vec<f64> = logs0.iter().flat_map(|l| l.latencies_ms.clone()).collect();
    let err = stats::median(&rel_errors).unwrap_or(f64::NAN);
    if !args.trace {
        report.metric("setup_s", stats::median(&setup_s).unwrap_or(0.0), "s");
        report.metric("throughput_per_s", rate0, "1/s");
        report.metric("latency_p50_ms", stats::median(&lat0).unwrap_or(0.0), "ms");
        report.metric("median_abs_rel_err", err, "ratio");
        // The tail, where at least ten samples lie beyond it.
        let p99 = stats::supported_percentile(&lat0, 99.0);
        prov.add("latency_samples", &lat0.len().to_string());
        prov.add(
            "latency_p99_ms",
            &p99.map_or("unsupported".into(), |v| v.to_string()),
        );
        stack.stop();
        return report;
    }

    // ---- per-layer figures (traced run) ---------------------------------------
    let gen_s = stats::median(&generate_s).unwrap_or(0.0);
    report.metric("dataset.generate_s", gen_s, "s");
    report.metric(
        "netsim.delivered_pkts_per_s",
        instrument::delivered_packets(&ds.samples) as f64 / gen_s,
        "1/s",
    );
    let planned: Vec<Sample> = (0..n_scen).map(reference_sample).collect();
    let (plan_ms, plans) = probes::time_plans(reference, &planned);
    report.metric("entities.plan_ms", plan_ms, "ms");
    // In pairs: the largest batch two closed-loop clients can form.
    report.metric(
        "compose.build_ms",
        probes::time_compose(&plans, CLIENTS),
        "ms",
    );

    let traced_delta = Delta {
        before: &snaps[1],
        after: &snaps[2],
    };
    report.metric("plan_cache.hit_rate", hit_rate, "ratio");
    report.metric("compose.hit_rate", timed_delta.compose_hit_rate(), "ratio");
    report.metric("service.batch_occupancy", timed_delta.occupancy(), "count");
    let last = &snaps[phases];
    report.metric("service.rejected", last.rejected as f64, "count");
    report.metric(
        "service.worker_restarts",
        last.worker_restarts as f64,
        "count",
    );
    let mut stage_sum = 0.0;
    for s in &last.stage_latency {
        report.metric(&format!("service.{}_ms", s.name), s.mean_ms, "ms");
        stage_sum += s.mean_ms;
    }
    let service_mean = traced_delta.latency_mean_ms();
    report.metric("service.stage_sum_ms", stage_sum, "ms");
    report.metric("service.latency_mean_ms", service_mean, "ms");
    report.check(
        (stage_sum - service_mean).abs() <= 0.01 * service_mean + 1e-3,
        || format!("service stages sum to {stage_sum} ms, latency mean is {service_mean} ms"),
    );
    let decode_lines: Vec<String> = streams[0]
        .order
        .iter()
        .take(n_scen)
        .map(|&(line, _)| streams[0].lines[line].clone())
        .collect();
    report.metric("server.decode_ms", probes::time_decode(&decode_lines), "ms");
    let logs1 = &timed[1];
    let lat1: Vec<f64> = logs1.iter().flat_map(|l| l.latencies_ms.clone()).collect();
    let client_mean = lat1.iter().sum::<f64>() / lat1.len().max(1) as f64;
    report.metric("server.frontend_ms", client_mean - service_mean, "ms");
    // Client percentiles pool both halves, so the p99 has the samples it
    // needs; tracing adds only clock reads per batch.
    let lat: Vec<f64> = lat0.iter().chain(&lat1).copied().collect();
    let p99 = stats::supported_percentile(&lat, 99.0);
    report.metric(
        "client.latency_p50_ms",
        stats::median(&lat).unwrap_or(0.0),
        "ms",
    );
    report.metric("client.latency_p99_ms", p99.unwrap_or(0.0), "ms");
    report.metric("client.latency_samples", lat.len() as f64, "count");
    let on = block_rate(logs1);
    report.metric("trace.overhead_pct", (on - rate0) / rate0 * 100.0, "%");
    stack.stop();
    report
}

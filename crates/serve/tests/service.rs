//! Integration tests for the serving subsystem: bitwise equivalence under
//! concurrency, plan-cache behavior, hot-swap under load, and the TCP
//! protocol.

use rn_dataset::{generate, Dataset, GeneratorConfig};
use rn_netgraph::topologies;
use rn_netsim::SimConfig;
use rn_nn::Layer;
use rn_serve::loadgen::Client;
use rn_serve::{Request, Response, ServeConfig, ServeError, Service, TcpServer};
use routenet::model::PathPredictor;
use routenet::{ExtendedRouteNet, ModelConfig, SamplePlan};
use std::sync::Arc;
use std::time::Duration;

fn toy_dataset(n: usize, seed: u64) -> Dataset {
    let config = GeneratorConfig {
        sim: SimConfig {
            duration_s: 60.0,
            warmup_s: 10.0,
            ..SimConfig::default()
        },
        ..GeneratorConfig::default()
    };
    generate(&topologies::toy5(), &config, seed, n)
}

fn fitted_model(ds: &Dataset, weight_seed: u64) -> ExtendedRouteNet {
    let mut model = ExtendedRouteNet::new(ModelConfig {
        state_dim: 8,
        mp_iterations: 2,
        readout_hidden: 8,
        seed: weight_seed,
        ..ModelConfig::default()
    });
    model.fit_preprocessing(ds, 5);
    model
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn serving_is_bitwise_identical_to_predict_batch_under_concurrency() {
    let ds = toy_dataset(3, 11);
    let model = fitted_model(&ds, 1);
    let plans: Vec<Arc<SamplePlan>> = ds.samples.iter().map(|s| Arc::new(model.plan(s))).collect();
    // The reference: direct single-threaded predict_batch, one plan at a
    // time AND all plans together — both must agree with the served result.
    let singly: Vec<Vec<u64>> = plans
        .iter()
        .map(|p| bits(&model.predict_batch(std::slice::from_ref(p.as_ref()))[0]))
        .collect();
    let owned: Vec<SamplePlan> = plans.iter().map(|p| (**p).clone()).collect();
    let together = model.predict_batch(&owned);
    for (one, all) in singly.iter().zip(&together) {
        assert_eq!(one, &bits(all), "megabatch grouping must not perturb bits");
    }

    let service = Service::start(
        model,
        ServeConfig {
            workers: 2,
            max_batch: 4,
            // A generous deadline forces real multi-request batches to form
            // while clients hammer the queue.
            flush_deadline: Duration::from_millis(10),
            ..ServeConfig::default()
        },
    );
    let handle = service.handle();

    const CLIENTS: usize = 4;
    const REQUESTS: usize = 16;
    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let handle = handle.clone();
            let plans = &plans;
            let singly = &singly;
            s.spawn(move || {
                for i in 0..REQUESTS {
                    let pick = (c + i) % plans.len();
                    let got = handle
                        .predict_plan(Arc::clone(&plans[pick]))
                        .expect("serve predict");
                    assert_eq!(
                        bits(&got),
                        singly[pick],
                        "client {c} request {i}: served bits diverged"
                    );
                }
            });
        }
    });

    let m = handle.metrics();
    assert_eq!(m.completed, (CLIENTS * REQUESTS) as u64);
    assert_eq!(m.errors, 0);
    assert!(
        m.batches < m.completed,
        "dynamic batching must have grouped requests: {} batches for {} requests",
        m.batches,
        m.completed
    );
    assert!(m.mean_batch_occupancy > 1.0, "{}", m.mean_batch_occupancy);
    service.shutdown();
}

#[test]
fn deadline_batches_coincident_requests_together() {
    let ds = toy_dataset(1, 13);
    let model = fitted_model(&ds, 1);
    let plan = Arc::new(model.plan(&ds.samples[0]));
    let service = Service::start(
        model,
        ServeConfig {
            workers: 1,
            max_batch: 2,
            flush_deadline: Duration::from_millis(250),
            ..ServeConfig::default()
        },
    );
    let handle = service.handle();
    std::thread::scope(|s| {
        for _ in 0..2 {
            let handle = handle.clone();
            let plan = Arc::clone(&plan);
            s.spawn(move || handle.predict_plan(plan).expect("predict"));
        }
    });
    let m = handle.metrics();
    assert_eq!(m.completed, 2);
    assert_eq!(m.batches, 1, "both requests must ride one batch");
    assert_eq!(m.mean_batch_occupancy, 2.0);
    service.shutdown();
}

#[test]
fn plan_cache_serves_hits_and_evicts_lru() {
    let ds = toy_dataset(3, 17);
    let model = fitted_model(&ds, 1);
    let service = Service::start(
        model,
        ServeConfig {
            workers: 1,
            plan_cache_capacity: 2,
            ..ServeConfig::default()
        },
    );
    let handle = service.handle();

    let (first, fp0) = handle.predict_sample(&ds.samples[0]).expect("predict");
    assert!(!first.is_empty());
    let (_, fp0_again) = handle.predict_sample(&ds.samples[0]).expect("predict");
    assert_eq!(fp0, fp0_again);
    let m = handle.metrics();
    assert_eq!((m.cache_hits, m.cache_misses), (1, 1));

    // Fingerprint-only requests hit the cached plan.
    let by_ref = handle.predict_cached(fp0).expect("cached predict");
    assert_eq!(bits(&first), bits(&by_ref));

    // Unknown fingerprints are a clean error.
    match handle.predict_cached(0xdead_beef) {
        Err(ServeError::UnknownPlan(fp)) => assert_eq!(fp, 0xdead_beef),
        other => panic!("expected UnknownPlan, got {other:?}"),
    }

    // Capacity 2: planning scenarios 1 and 2 evicts scenario 0 (the LRU).
    handle.predict_sample(&ds.samples[1]).expect("predict");
    handle.predict_sample(&ds.samples[2]).expect("predict");
    match handle.predict_cached(fp0) {
        Err(ServeError::UnknownPlan(_)) => {}
        other => panic!("expected eviction of the LRU plan, got {other:?}"),
    }
    assert_eq!(handle.metrics().cache_len, 2);
    service.shutdown();
}

#[test]
fn hot_swap_under_load_never_tears_a_batch() {
    let ds = toy_dataset(2, 19);
    let model_a = fitted_model(&ds, 1);
    let model_b = fitted_model(&ds, 2);
    let plans: Vec<Arc<SamplePlan>> = ds
        .samples
        .iter()
        .map(|s| Arc::new(model_a.plan(s)))
        .collect();
    let expected_a: Vec<Vec<u64>> = plans.iter().map(|p| bits(&model_a.predict(p))).collect();
    let expected_b: Vec<Vec<u64>> = plans.iter().map(|p| bits(&model_b.predict(p))).collect();
    for (a, b) in expected_a.iter().zip(&expected_b) {
        assert_ne!(a, b, "differently seeded models must disagree");
    }

    let service = Service::start(
        model_a,
        ServeConfig {
            workers: 2,
            max_batch: 4,
            flush_deadline: Duration::from_millis(2),
            ..ServeConfig::default()
        },
    );
    let handle = service.handle();
    assert_eq!(handle.model_version(), 1);

    const REQUESTS: usize = 24;
    std::thread::scope(|s| {
        for c in 0..3usize {
            let handle = handle.clone();
            let plans = &plans;
            let (expected_a, expected_b) = (&expected_a, &expected_b);
            s.spawn(move || {
                for i in 0..REQUESTS {
                    let pick = (c + i) % plans.len();
                    let got = bits(
                        &handle
                            .predict_plan(Arc::clone(&plans[pick]))
                            .expect("predict during swap"),
                    );
                    assert!(
                        got == expected_a[pick] || got == expected_b[pick],
                        "response matched neither model version (client {c}, request {i})"
                    );
                }
            });
        }
        // Swap while the clients are mid-flight.
        std::thread::sleep(Duration::from_millis(5));
        let swapper = handle.clone();
        s.spawn(move || {
            assert_eq!(swapper.swap_model(model_b), 2);
        });
    });

    // After the swap settles, every response comes from model B.
    let settled = bits(&handle.predict_plan(Arc::clone(&plans[0])).expect("predict"));
    assert_eq!(settled, expected_b[0]);
    let m = handle.metrics();
    assert_eq!(m.model_version, 2);
    assert_eq!(m.model_swaps, 1);
    assert_eq!(m.errors, 0);
    service.shutdown();
}

#[test]
fn hot_swap_flushes_stale_plans_and_rejects_incompatible_ones() {
    let ds = toy_dataset(1, 37);
    let model_small = fitted_model(&ds, 1);
    let mut model_wide = ExtendedRouteNet::new(ModelConfig {
        state_dim: 16,
        mp_iterations: 2,
        readout_hidden: 16,
        seed: 2,
        ..ModelConfig::default()
    });
    model_wide.fit_preprocessing(&ds, 5);
    let stale_plan = Arc::new(model_small.plan(&ds.samples[0]));

    let service = Service::start(model_small, ServeConfig::default());
    let handle = service.handle();
    let (_, fp) = handle.predict_sample(&ds.samples[0]).expect("predict");

    // Swap to a model with a different state width. By-fingerprint lookups
    // must miss (the cache was flushed), not serve v1 features to v2.
    handle.swap_model(model_wide);
    match handle.predict_cached(fp) {
        Err(ServeError::UnknownPlan(_)) => {}
        other => panic!("expected flushed cache, got {other:?}"),
    }

    // A stale pre-swap plan handle gets a clean error, and the worker
    // survives to serve freshly planned requests.
    match handle.predict_plan(Arc::clone(&stale_plan)) {
        Err(ServeError::IncompatiblePlan {
            expected: 16,
            found: 8,
        }) => {}
        other => panic!("expected IncompatiblePlan, got {other:?}"),
    }
    let (delays, _) = handle
        .predict_sample(&ds.samples[0])
        .expect("service must survive incompatible plans");
    assert!(!delays.is_empty());
    let m = handle.metrics();
    assert!(m.errors >= 1, "incompatible plan must count as an error");
    service.shutdown();
}

#[test]
fn admission_control_rejects_when_queue_is_full() {
    let ds = toy_dataset(1, 23);
    let model = fitted_model(&ds, 1);
    let plan = Arc::new(model.plan(&ds.samples[0]));
    let service = Service::start(
        model,
        ServeConfig {
            workers: 1,
            queue_capacity: 0,
            ..ServeConfig::default()
        },
    );
    let handle = service.handle();
    match handle.predict_plan(Arc::clone(&plan)) {
        Err(ServeError::Overloaded { retry_after_ms }) => {
            assert!(retry_after_ms >= 1, "hint must be a usable backoff")
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    assert_eq!(handle.metrics().rejected, 1);
    service.shutdown();
}

#[test]
fn shutdown_fails_pending_and_future_requests_cleanly() {
    let ds = toy_dataset(1, 29);
    let model = fitted_model(&ds, 1);
    let plan = Arc::new(model.plan(&ds.samples[0]));
    let service = Service::start(model, ServeConfig::default());
    let handle = service.handle();
    handle.predict_plan(Arc::clone(&plan)).expect("predict");
    service.shutdown();
    match handle.predict_plan(plan) {
        Err(ServeError::Shutdown) => {}
        other => panic!("expected Shutdown, got {other:?}"),
    }
}

#[test]
fn tcp_protocol_round_trips_and_matches_direct_predictions() {
    let ds = toy_dataset(2, 31);
    let model = fitted_model(&ds, 1);
    let expected: Vec<Vec<u64>> = ds
        .samples
        .iter()
        .map(|s| bits(&model.predict(&model.plan(s))))
        .collect();

    let service = Service::start(model, ServeConfig::default());
    let server = TcpServer::bind(service.handle(), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().to_string();

    let mut client = Client::connect(&addr).expect("connect");
    match client.round_trip(&Request::Ping).expect("ping") {
        Response::Pong => {}
        other => panic!("expected Pong, got {other:?}"),
    }

    // Register, then predict by fingerprint.
    let fp = client.register(&ds.samples[0]).expect("register");
    match client
        .round_trip(&Request::Cached {
            plan: fp.clone(),
            deadline_ms: None,
        })
        .expect("cached")
    {
        Response::Delays { delays_s, plan } => {
            assert_eq!(plan, fp);
            assert_eq!(bits(&delays_s), expected[0]);
        }
        other => panic!("expected Delays, got {other:?}"),
    }

    // Full-sample predict matches too.
    match client
        .round_trip(&Request::Predict {
            sample: ds.samples[1].clone(),
            deadline_ms: None,
        })
        .expect("predict")
    {
        Response::Delays { delays_s, .. } => assert_eq!(bits(&delays_s), expected[1]),
        other => panic!("expected Delays, got {other:?}"),
    }

    // Unknown fingerprints and garbage lines keep the connection usable.
    match client
        .round_trip(&Request::Cached {
            plan: "00000000000000ff".into(),
            deadline_ms: None,
        })
        .expect("unknown plan")
    {
        Response::Error { message } => assert!(message.contains("Register"), "{message}"),
        other => panic!("expected Error, got {other:?}"),
    }
    match client.round_trip_line("this is not json").expect("garbage") {
        Response::Error { message } => assert!(message.contains("bad request"), "{message}"),
        other => panic!("expected Error, got {other:?}"),
    }

    // Metrics reflect the traffic this test generated.
    match client.round_trip(&Request::Metrics).expect("metrics") {
        Response::Metrics { snapshot } => {
            assert!(snapshot.completed >= 2, "{}", snapshot.completed);
            assert!(snapshot.cache_hits >= 1);
            assert_eq!(snapshot.model_version, 1);
        }
        other => panic!("expected Metrics, got {other:?}"),
    }

    drop(client);
    server.stop();
    service.shutdown();
}

#[test]
fn composition_cache_hits_recurring_batch_shapes_bitwise() {
    // Same four scenarios submitted round after round: after the first
    // rounds, recurring multi-request batch shapes must be answered from
    // cached compositions (structure reused, features refilled) — with bits
    // identical to a direct predict_batch, and the metrics must show
    // composition hits plus a populated batch-shape histogram.
    let ds = toy_dataset(4, 41);
    let model = fitted_model(&ds, 5);
    let plans: Vec<Arc<SamplePlan>> = ds.samples.iter().map(|s| Arc::new(model.plan(s))).collect();
    let owned: Vec<SamplePlan> = plans.iter().map(|p| (**p).clone()).collect();
    let reference: Vec<Vec<u64>> = model
        .predict_batch(&owned)
        .iter()
        .map(|v| bits(v))
        .collect();

    let service = Service::start(
        model,
        ServeConfig {
            workers: 1,
            max_batch: 4,
            // A generous deadline so each round's four requests ride one
            // (or few) multi-request batches whose shapes recur.
            flush_deadline: Duration::from_millis(25),
            compose_cache_capacity: 8,
            ..ServeConfig::default()
        },
    );
    let handle = service.handle();
    for _round in 0..12 {
        std::thread::scope(|s| {
            let joins: Vec<_> = plans
                .iter()
                .map(|plan| {
                    let handle = handle.clone();
                    let plan = Arc::clone(plan);
                    s.spawn(move || handle.predict_plan(plan).expect("predict"))
                })
                .collect();
            for (b, join) in joins.into_iter().enumerate() {
                let served = join.join().expect("client thread");
                assert_eq!(
                    bits(&served),
                    reference[b],
                    "cached-composition serving changed bits for sample {b}"
                );
            }
        });
    }

    let m = handle.metrics();
    assert_eq!(m.completed, 48);
    assert_eq!(m.errors, 0);
    assert!(
        m.compose_hits >= 1,
        "recurring batch shapes must hit the composition cache \
         (hits {}, misses {})",
        m.compose_hits,
        m.compose_misses
    );
    assert!(m.compose_len >= 1, "compositions must stay resident");
    assert!(
        (m.compose_hit_rate - m.compose_hits as f64 / (m.compose_hits + m.compose_misses) as f64)
            .abs()
            < 1e-12
    );
    assert!(
        !m.batch_shapes.is_empty(),
        "the batch-shape histogram must be populated"
    );
    let requested: u64 = m.batch_shapes.iter().map(|s| s.batches).sum();
    assert_eq!(
        requested,
        m.compose_hits + m.compose_misses,
        "histogram rows must account for every multi-request batch"
    );
    service.shutdown();
}

#[test]
fn composition_cache_survives_hot_swap_with_refilled_features() {
    // A hot-swap to a same-width model keeps cached compositions useful:
    // the structure is model-independent, and feature refill happens per
    // batch anyway. Post-swap batches must produce model B's exact bits.
    let ds = toy_dataset(3, 43);
    let model_a = fitted_model(&ds, 1);
    let model_b = fitted_model(&ds, 2);
    let plans: Vec<Arc<SamplePlan>> = ds
        .samples
        .iter()
        .map(|s| Arc::new(model_a.plan(s)))
        .collect();
    let owned: Vec<SamplePlan> = plans.iter().map(|p| (**p).clone()).collect();
    let expected_b: Vec<Vec<u64>> = model_b
        .predict_batch(&owned)
        .iter()
        .map(|v| bits(v))
        .collect();

    let service = Service::start(
        model_a,
        ServeConfig {
            workers: 1,
            max_batch: 4,
            flush_deadline: Duration::from_millis(25),
            ..ServeConfig::default()
        },
    );
    let handle = service.handle();
    // Warm the composition cache under model A.
    for _ in 0..3 {
        std::thread::scope(|s| {
            for plan in &plans {
                let handle = handle.clone();
                let plan = Arc::clone(plan);
                s.spawn(move || handle.predict_plan(plan).expect("warm predict"));
            }
        });
    }
    handle.swap_model(model_b);
    // Post-swap, served bits must be model B's — even when the batch rides
    // a composition cached under model A.
    std::thread::scope(|s| {
        let joins: Vec<_> = plans
            .iter()
            .map(|plan| {
                let handle = handle.clone();
                let plan = Arc::clone(plan);
                s.spawn(move || handle.predict_plan(plan).expect("post-swap predict"))
            })
            .collect();
        for (b, join) in joins.into_iter().enumerate() {
            assert_eq!(
                bits(&join.join().expect("client thread")),
                expected_b[b],
                "post-swap sample {b} must carry model B bits"
            );
        }
    });
    let m = handle.metrics();
    assert_eq!(m.errors, 0);

    // A swap to a *resized* model purges the now-unkeyable old-width
    // compositions (same-width entries survived the A→B swap above).
    if m.compose_len > 0 {
        let mut wide = ExtendedRouteNet::new(ModelConfig {
            state_dim: 16,
            mp_iterations: 2,
            readout_hidden: 16,
            seed: 9,
            ..ModelConfig::default()
        });
        wide.fit_preprocessing(&ds, 5);
        handle.swap_model(wide);
        assert_eq!(
            handle.metrics().compose_len,
            0,
            "resized hot-swap must purge stale-width compositions"
        );
    }
    service.shutdown();
}

#[test]
fn hot_swap_refuses_non_finite_weights_and_keeps_serving() {
    let ds = toy_dataset(2, 31);
    let model = fitted_model(&ds, 1);
    let plan = Arc::new(model.plan(&ds.samples[0]));
    let service = Service::start(
        model,
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let handle = service.handle();
    let before = handle.predict_plan(Arc::clone(&plan)).expect("prediction");
    let tmp = |name: &str| {
        std::env::temp_dir().join(format!("rn_serve_{}_{name}.json", std::process::id()))
    };
    let mut candidate = fitted_model(&ds, 2);

    // A NaN weight: the saved file cannot even be read back as a model.
    candidate.params_mut()[3].as_mut_slice()[0] = f32::NAN;
    let nan_path = tmp("nan");
    routenet::persist::save_model(&candidate, &nan_path).expect("save");
    assert!(handle.load_and_swap(&nan_path).is_err());

    // A weight that parses as a number but overflows f32 to infinity.
    candidate.params_mut()[3].as_mut_slice()[0] = 12345.5;
    let inf_path = tmp("inf");
    routenet::persist::save_model(&candidate, &inf_path).expect("save");
    let json = std::fs::read_to_string(&inf_path).expect("read back");
    assert_eq!(
        json.matches("12345.5").count(),
        1,
        "sentinel must be unique"
    );
    std::fs::write(&inf_path, json.replace("12345.5", "1e39")).expect("rewrite");
    let err = handle
        .load_and_swap(&inf_path)
        .expect_err("an infinite weight must be refused");
    assert!(
        err.contains("parameter 3"),
        "error must name the parameter: {err}"
    );

    // Neither attempt swapped: same version, no swap counted, same bits.
    assert_eq!(handle.model_version(), 1);
    assert_eq!(handle.metrics().model_swaps, 0);
    let after = handle.predict_plan(Arc::clone(&plan)).expect("prediction");
    assert_eq!(bits(&before), bits(&after));
    for path in [nan_path, inf_path] {
        std::fs::remove_file(path).ok();
    }
    service.shutdown();
}

#[test]
fn qos_scenario_sent_to_an_extended_service_is_answered_without_its_queues() {
    // The extended model has no queue entity: it reads a two-class QoS
    // scenario's plan without the queue positions, exactly as it reads the
    // same scenario stripped of its QoS spec — and the worker never panics.
    let config = GeneratorConfig {
        sim: SimConfig {
            duration_s: 30.0,
            warmup_s: 5.0,
            ..SimConfig::default()
        },
        qos: Some(rn_dataset::QosGenConfig::two_class_mix()),
        ..GeneratorConfig::default()
    };
    let ds = generate(&topologies::toy5(), &config, 37, 1);
    let model = fitted_model(&ds, 1);
    let sample = &ds.samples[0];
    assert!(
        model.plan(sample).num_queues > 0,
        "scenario must have queues"
    );
    let mut legacy = sample.clone();
    legacy.qos = None;
    let expected = model.predict(&model.plan(&legacy));

    let service = Service::start(
        model,
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let handle = service.handle();
    let (delays, _) = handle.predict_sample(sample).expect("QoS predict");
    assert_eq!(bits(&delays), bits(&expected));
    assert!(delays.iter().all(|d| d.is_finite() && *d > 0.0));
    let m = handle.metrics();
    assert_eq!(m.worker_panics, 0);
    assert_eq!(m.errors, 0);
    service.shutdown();
}

#[test]
fn mixed_qos_and_legacy_batch_answers_both() {
    // A QoS plan cycles node/queue/link and a legacy plan node/link, so the
    // two cannot share one block-diagonal forward. A flush that carries
    // both runs one forward per step schedule and answers every request,
    // each bitwise as if it had been predicted alone.
    let qos_config = GeneratorConfig {
        sim: SimConfig {
            duration_s: 30.0,
            warmup_s: 5.0,
            ..SimConfig::default()
        },
        qos: Some(rn_dataset::QosGenConfig::two_class_mix()),
        ..GeneratorConfig::default()
    };
    let qos_ds = generate(&topologies::toy5(), &qos_config, 41, 1);
    let legacy_ds = toy_dataset(1, 42);
    let model = fitted_model(&legacy_ds, 1);
    let plans = [
        Arc::new(model.plan(&qos_ds.samples[0])),
        Arc::new(model.plan(&legacy_ds.samples[0])),
    ];
    assert!(plans[0].num_queues > 0, "scenario must have queues");
    assert_eq!(plans[1].num_queues, 0);
    let alone: Vec<Vec<u64>> = plans
        .iter()
        .map(|p| bits(&model.predict_batch(std::slice::from_ref(p.as_ref()))[0]))
        .collect();

    let service = Service::start(
        model,
        ServeConfig {
            workers: 1,
            max_batch: 2,
            flush_deadline: Duration::from_millis(250),
            ..ServeConfig::default()
        },
    );
    let handle = service.handle();
    let served: Vec<Result<Vec<f64>, ServeError>> = std::thread::scope(|s| {
        let riders: Vec<_> = plans
            .iter()
            .map(|plan| {
                let handle = handle.clone();
                let plan = Arc::clone(plan);
                s.spawn(move || handle.predict_plan(plan))
            })
            .collect();
        riders.into_iter().map(|r| r.join().unwrap()).collect()
    });
    for (i, (got, want)) in served.into_iter().zip(&alone).enumerate() {
        let got = got.unwrap_or_else(|e| panic!("request {i} failed: {e:?}"));
        assert_eq!(&bits(&got), want, "request {i}: served bits diverged");
    }
    let m = handle.metrics();
    assert_eq!(m.batches, 1, "both requests must ride one batch");
    assert_eq!(m.worker_panics, 0);
    assert_eq!(m.errors, 0);
    service.shutdown();
}

//! The `console` workload: an operator restarts against a durable
//! archive and queries it over TCP. The archive is produced once per
//! run, untimed, by pushing the `replay` input through the durable
//! pipeline; each set-up recovers a byte-identical copy of it. One
//! client then runs the query mix closed loop against the static
//! snapshot.

use crate::common::{copy_dir, dir_bytes, fnv1a, median, Input, Nanos, Scratch, Tracer, SETUPS};
use crate::layers;
use crate::queries::{self, QueryMix};
use crate::replay;
use crate::Outcome;
use mda_core::MaritimePipeline;
use mda_serve::client::ServeClient;
use mda_serve::server::{ServeConfig, ServeCore};
use mda_serve::transport::TcpTransport;
use mda_serve::wire::{encode_response, Request, Response};
use mda_store::DurableStore;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Recoveries a traced run times; `store.recover.busy_s` is their mean.
const RECOVERIES: usize = 15;

/// Every this many answers, the wire bytes are checked against the
/// in-process service.
const SAMPLE_EVERY: usize = 16;

/// Cache counters are read after exactly this many requests, so the
/// hit ratio is a pure function of the seed.
const CACHE_WINDOW: usize = 20_000;

/// Run the `console` workload.
pub fn run(seed: u64, seconds: f64, trace: bool) -> std::io::Result<Outcome> {
    let scratch = Scratch::new()?;
    let mut out = Outcome::default();
    let archive = scratch.fresh("archive");

    // Set-up: the input generated and encoded, then a restart from an
    // identical copy of the archive up to a listening server; `setup_s`
    // is the median generation plus the median restart. Generations run
    // back to back, each input dropped before the next, so no server's
    // allocations sit between them. The archive is produced once,
    // untimed, between the two; the last restart serves the run, and
    // each restart is timed after the previous one's server has shut
    // down.
    let mut generations = Vec::with_capacity(SETUPS);
    let mut input = None;
    for _ in 0..SETUPS {
        drop(input.take());
        let t = Instant::now();
        input = Some(Input::generate(seed, crate::common::VESSELS, crate::common::HOURS));
        generations.push(t.elapsed().as_secs_f64());
    }
    let input = input.ok_or_else(|| std::io::Error::other("no set-up ran"))?;
    {
        let mut p = MaritimePipeline::new(input.config().with_durability(&archive))
            .with_weather(input.sim.weather.clone());
        replay::drive(&mut p, &input.arrivals, &mut Tracer::new(false), None);
    }
    let mut restarts = Vec::with_capacity(SETUPS);
    let mut recovered = None;
    let mut serving = None;
    for k in 0..SETUPS {
        drop(serving.take());
        let dir = scratch.fresh(&format!("console-{k}"));
        copy_dir(&archive, &dir)?;
        let t = Instant::now();
        let mut p = MaritimePipeline::new(input.config().with_durability(&dir));
        let service = p.query_service();
        let core = Arc::new(ServeCore::new(service.clone(), ServeConfig::default()));
        let server = mda_serve::serve_tcp(Arc::clone(&core), "127.0.0.1:0")?;
        restarts.push(t.elapsed().as_secs_f64());
        let report = p.durable().map(|d| d.recovery().clone()).unwrap_or_default();
        match &recovered {
            None => recovered = Some(report),
            Some(first) if *first != report => {
                out.fail(format!("recovery {k} reconstructed {report:?}, the first {first:?}"))
            }
            Some(_) => {}
        }
        serving = Some((p, service, core, server));
    }
    let (pipeline, service, core, mut server) =
        serving.ok_or_else(|| std::io::Error::other("no set-up ran"))?;
    let recovery = recovered.unwrap_or_default();

    let stream = std::net::TcpStream::connect(server.addr())?;
    let mut client = ServeClient::new(TcpTransport::new(stream)?);
    let mut mix = QueryMix::new(&input, seed ^ 0xC0_2501E);
    // What the loop keeps: the latencies, in fixed memory; the first
    // CACHE_WINDOW requests (for the in-process replays); and, for
    // every SAMPLE_EVERY-th answer, its request and a digest of its
    // bytes. Only the samples grow with the answer rate.
    let mut latency = Nanos::default();
    let mut window: Vec<Request> = Vec::with_capacity(CACHE_WINDOW);
    let mut samples: Vec<(Request, u64)> = Vec::new();
    let mut window_stats = None;
    let mut sent = 0usize;
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    while sent < CACHE_WINDOW || (!trace && start.elapsed() < budget) {
        let request = mix.next(None);
        let t = Instant::now();
        let answer = client.request(&request);
        latency.record(t.elapsed());
        match answer {
            Ok(Response::Error { .. }) | Err(_) => out.failed += 1,
            Ok(resp) if sent.is_multiple_of(SAMPLE_EVERY) => {
                samples.push((request.clone(), fnv1a(encode_response(&resp))));
            }
            Ok(_) => {}
        }
        sent += 1;
        if sent <= CACHE_WINDOW {
            window.push(request);
        }
        if sent == CACHE_WINDOW {
            window_stats = Some(core.cache_stats());
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    drop(client);
    server.shutdown();
    out.attempted += sent as u64;

    // Sampled wire answers equal the in-process service's at the same
    // (static) stamp, byte for byte.
    for (request, digest) in &samples {
        if fnv1a(encode_response(&queries::oracle(&service, request))) != *digest {
            out.failed += 1;
            out.fail(format!("the answer to {request:?} differs from the in-process oracle"));
        }
    }
    if out.failed > 0 {
        out.fail(format!("{} failed requests", out.failed));
    }
    println!(
        "info {sent} requests in {elapsed:.3} s, {} answers checked, recovered {} segments and {} hot fixes",
        samples.len(),
        recovery.segments,
        recovery.hot_fixes
    );

    let m = &mut out.metrics;
    if !trace {
        m.set("setup_s", median(&generations) + median(&restarts), "s");
        m.set("throughput", sent as f64 / elapsed, "1/s");
        m.set("latency_p50_ms", latency.quantile_us(0.5) / 1e3, "ms");
        m.set("latency_p99_ms", latency.quantile_us(0.99) / 1e3, "ms");
        m.set("disk_bytes_per_record", dir_bytes(&archive) as f64 / input.records as f64, "B");
        return Ok(out);
    }
    m.set("serve.query.p50_us", latency.quantile_us(0.5), "us");
    m.set("serve.query.p99_us", latency.quantile_us(0.99), "us");

    let stats = window_stats.unwrap_or_default();
    m.set("serve.cache.hits", stats.hits as f64, "count");
    m.set("serve.cache.misses", stats.misses as f64, "count");
    m.set(
        "serve.cache.hit_ratio",
        stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64,
        "ratio",
    );
    m.set("store.recover.segments", recovery.segments as f64, "count");
    m.set("store.recover.hot_fixes", recovery.hot_fixes as f64, "count");
    m.set("store.segments", recovery.segments as f64, "count");
    m.set("store.disk_bytes", dir_bytes(&archive) as f64, "B");
    m.set("core.archive_fixes", pipeline.store().len() as f64, "count");
    queries::in_process_metrics(m, &service, &window);
    queries::serve_layer_metrics(m, &service, &window);

    // Recovery and cold-segment decode, timed on their own.
    let mut t = Tracer::new(true);
    let config = layers::store_config(&input.config());
    for k in 0..RECOVERIES {
        let dir = scratch.fresh("recover");
        copy_dir(&archive, &dir)?;
        let store = t.time("store.recover", || DurableStore::recover(&dir, config.clone()))?;
        if k == 0 {
            let mut bytes = 0u64;
            store.store().fold_tiers((), |(), _, cold| {
                for segment in cold.iter_segments() {
                    bytes += segment.to_bytes().len() as u64;
                    let decoded = t.time("store.segment.decode", || segment.try_decode());
                    if decoded.is_err() {
                        out.failed += 1;
                    }
                }
            });
            out.metrics.set("store.segment.decode.bytes", bytes as f64, "B");
        }
    }
    let m = &mut out.metrics;
    m.set("store.recover.busy_s", t.busy_s("store.recover") / RECOVERIES as f64, "s");
    m.set("store.segment.decode.busy_s", t.busy_s("store.segment.decode"), "s");
    Ok(out)
}

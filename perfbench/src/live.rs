//! The `live-watch` workload: the AIVDM stream offered open loop at a
//! fixed absolute rate to a durable pipeline with a reader attached
//! (every tick publishes), served by `serve_tcp` on loopback. One
//! connection carries only subscription sessions; a second sends an
//! open-loop query mix against the moving watermark.

use crate::common::{
    dir_bytes, median, quantile, record_count, Arrival, Decoder, Input, Scratch, Tracer, SETUPS,
};
use crate::layers;
use crate::queries::{self, QueryMix};
use crate::replay::{self, Frontend};
use crate::Outcome;
use mda_core::MaritimePipeline;
use mda_events::event::MaritimeEvent;
use mda_events::ring::{EventCursor, EventFilter};
use mda_serve::client::ServeClient;
use mda_serve::server::{ServeConfig, ServeCore};
use mda_serve::session::SessionConfig;
use mda_serve::transport::TcpTransport;
use mda_serve::wire::{Request, Response};
use mda_serve::{serve_tcp, TcpServer};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered ingest rate, input records per second. Fixed once, at about
/// a fifth of `replay`'s closed-loop capacity (about 90k records/s on a
/// 2-CPU x86-64 container), so ingest runs well below capacity with
/// publication on and the serving threads sharing its one CPU. At a
/// third (30k records/s) that CPU was about three quarters busy, and
/// queueing made the generator-lag tail of some seeds double.
pub const RATE: f64 = 20_000.0;

/// Offered query rate on the query connection, requests per second. An
/// assumption, as no source gives an operator's query rate: one request
/// a millisecond is a few percent of the `console` closed-loop rate, so
/// the connection never queues on itself, and a 30 s run still backs
/// the p99 with about 300 samples.
pub const QUERY_RATE: f64 = 1_000.0;

/// Subscription sessions on the push connection. An assumption: enough
/// that every filter kind of the c15 mix appears, few enough that
/// fan-out stays a small share of the CPU the writer needs. Fan-out at
/// scale (10k sessions) is c15's own measurement.
pub const SESSIONS: usize = 64;

/// Of the sessions after the first, every this many watches gap events
/// fleet-wide, as in c15 (`c15_serve.rs`, `subscriber_filter`).
const GAP_WATCHER_EVERY: usize = 25;

/// An input issued more than this after its scheduled time is late.
const LATE: Duration = Duration::from_millis(1);

/// How long subscribers may take to receive the last events after
/// `finish`, before the missing ones count as lost.
const DRAIN_GRACE: Duration = Duration::from_secs(10);

/// Serving knobs: per-session queues as deep as the event ring, so the
/// end-of-stream flush (every event still held back by the watermark,
/// released at once) fits in the fleet-wide session's queue and a
/// reading session never drops.
fn serve_config() -> ServeConfig {
    ServeConfig {
        session: SessionConfig {
            queue_capacity: 65_536,
            evict_after_dropped: 64,
            max_sessions: 1024,
        },
        ..ServeConfig::default()
    }
}

/// The filter of session `i`. Session 0 watches everything, so every
/// event is pushed at least once and timed; that session is an
/// assumption of this benchmark (in c15 only the stalled cohort
/// subscribes to everything). The others follow c15's healthy
/// subscribers: every 25th watches gap events fleet-wide, the rest
/// one vessel each.
pub fn session_filter(i: usize, vessels: &[u32]) -> EventFilter {
    match i {
        0 => EventFilter::all(),
        i if (i - 1) % GAP_WATCHER_EVERY == 0 => EventFilter::for_kinds(["gap-start", "gap-end"]),
        i => EventFilter::for_vessels([vessels[(i - 1) % vessels.len()]]),
    }
}

/// The scenario for `seconds` of offered load: enough event time that
/// the stream outlasts the run, cut to the records the run offers.
pub fn input_for(seed: u64, seconds: f64) -> (Input, usize) {
    let target = (RATE * seconds).ceil() as u64;
    let per_hour = 25_000.0 * crate::common::VESSELS as f64 / 80.0;
    let hours = (target as f64 / per_hour).ceil() as i64 + 1;
    let input = Input::generate(seed, crate::common::VESSELS, hours);
    let mut offered = 0u64;
    let n = input
        .arrivals
        .iter()
        .take_while(|a| {
            offered += record_count(a);
            offered <= target
        })
        .count();
    (input, n)
}

/// One received event: session, ring sequence, receipt time.
type Receipt = (u64, u64, Instant);

/// What the subscriber connection saw.
struct Subscribed {
    receipts: Vec<Receipt>,
    evicted: u64,
    dropped: u64,
    errors: u64,
}

/// Read pushes until `expected` (set after `finish`) events arrived or
/// the grace period ran out.
fn subscriber(mut client: ServeClient<TcpTransport>, expected: Arc<AtomicU64>) -> Subscribed {
    let mut out = Subscribed { receipts: Vec::new(), evicted: 0, dropped: 0, errors: 0 };
    let mut finished_at: Option<Instant> = None;
    loop {
        match client.next_push(false) {
            Ok(Some(Response::Events(batch))) => {
                let now = Instant::now();
                out.dropped = out.dropped.max(batch.dropped + batch.missed);
                out.receipts.extend(batch.events.iter().map(|(seq, _)| (batch.session, *seq, now)));
            }
            Ok(Some(Response::Evicted { .. })) => out.evicted += 1,
            Ok(Some(_)) => out.errors += 1,
            Ok(None) => {}
            Err(_) => {
                out.errors += 1;
                break;
            }
        }
        let want = expected.load(Ordering::SeqCst);
        if want != u64::MAX {
            if out.receipts.len() as u64 >= want {
                break;
            }
            let since = *finished_at.get_or_insert_with(Instant::now);
            if since.elapsed() > DRAIN_GRACE {
                break;
            }
        }
    }
    out
}

/// What the query connection saw.
struct Queried {
    requests: Vec<Request>,
    /// Latencies from the scheduled send, µs.
    latencies_us: Vec<f64>,
    errors: u64,
}

/// Send the query mix open loop at [`QUERY_RATE`] until `stop`, each
/// request's instants relative to the last answer's stamp; latency runs
/// from the scheduled send.
fn querier(
    mut client: ServeClient<TcpTransport>,
    mut mix: QueryMix,
    start: Instant,
    stop: Arc<AtomicBool>,
) -> Queried {
    let mut out = Queried { requests: Vec::new(), latencies_us: Vec::new(), errors: 0 };
    let mut wm = mda_geo::Timestamp::MIN;
    let mut i = 0u64;
    while !stop.load(Ordering::SeqCst) {
        let due = start + Duration::from_secs_f64(i as f64 / QUERY_RATE);
        queries::wait_until(due);
        let request = mix.next(Some(wm));
        let answer = client.request(&request);
        out.latencies_us.push(due.elapsed().as_secs_f64() * 1e6);
        match answer {
            Ok(Response::Error { .. }) | Err(_) => out.errors += 1,
            Ok(resp) => {
                if let Some(w) = queries::stamp_of(&resp) {
                    wm = w;
                }
            }
        }
        out.requests.push(request);
        i += 1;
    }
    out
}

fn connect(server: &TcpServer) -> std::io::Result<ServeClient<TcpTransport>> {
    let stream = std::net::TcpStream::connect(server.addr())?;
    Ok(ServeClient::new(TcpTransport::new(stream)?))
}

/// Per push call that returned events: ring sequence one past its last
/// event, scheduled time, return time.
type PushLog = Vec<(u64, Instant, Instant)>;

/// Run the `live-watch` workload.
pub fn run(seed: u64, seconds: f64, trace: bool) -> std::io::Result<Outcome> {
    let scratch = Scratch::new()?;
    let mut out = Outcome::default();

    // Set-up: the input generated and encoded, then pipeline, reader
    // handle, serving core and listening server on a fresh data
    // directory. The last set-up serves the run; each earlier server
    // shuts down before the next set-up is timed.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut built = None;
    for k in 0..SETUPS {
        drop(built.take());
        let dir = scratch.fresh(&format!("live-{k}"));
        let t = Instant::now();
        let (input, n) = input_for(seed, seconds);
        let mut pipeline = MaritimePipeline::new(input.config().with_durability(&dir))
            .with_weather(input.sim.weather.clone());
        let service = pipeline.query_service();
        let core = Arc::new(ServeCore::new(service.clone(), serve_config()));
        let server = serve_tcp(Arc::clone(&core), "127.0.0.1:0")?;
        setups.push(t.elapsed().as_secs_f64());
        built = Some((input, n, dir, pipeline, service, core, server));
    }
    let (input, n, dir, mut pipeline, service, core, mut server) =
        built.ok_or_else(|| std::io::Error::other("no set-up ran"))?;
    let arrivals = &input.arrivals[..n];
    let mut vessels: Vec<u32> = input.sim.vessels.iter().map(|v| v.mmsi).collect();
    vessels.sort_unstable();
    let filters: Vec<EventFilter> = (0..SESSIONS).map(|i| session_filter(i, &vessels)).collect();

    let mut sub = connect(&server)?;
    let mut session_ids = Vec::with_capacity(filters.len());
    for f in &filters {
        match sub.subscribe(f.clone(), Some(0)) {
            Ok((session, _)) => session_ids.push(session),
            Err(e) => {
                out.failed += 1;
                out.fail(format!("subscription refused: {e}"));
            }
        }
    }
    let expected = Arc::new(AtomicU64::new(u64::MAX));
    let stop = Arc::new(AtomicBool::new(false));
    // One schedule origin for the writer and the query connection.
    let start = Instant::now();
    let sub_thread = std::thread::spawn({
        let expected = Arc::clone(&expected);
        move || subscriber(sub, expected)
    });
    let query_thread = std::thread::spawn({
        let client = connect(&server)?;
        let mix = QueryMix::new(&input, seed ^ 0x51_7E);
        let stop = Arc::clone(&stop);
        move || querier(client, mix, start, stop)
    });

    // The open-loop writer: arrival i is due when the records before it
    // have been offered at RATE.
    let mut tracer = Tracer::new(trace);
    let mut decoder = Decoder::default();
    let mut log: PushLog = Vec::new();
    let mut lags_ms: Vec<f64> = Vec::with_capacity(n);
    let mut push_us: Vec<f64> = Vec::new();
    let mut seq = 0u64;
    let mut offered = 0u64;
    let mut note = |events: Vec<MaritimeEvent>, due: Instant, log: &mut PushLog| {
        if !events.is_empty() {
            seq += events.len() as u64;
            log.push((seq, due, Instant::now()));
        }
    };
    for a in arrivals {
        let due = start + Duration::from_secs_f64(offered as f64 / RATE);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let issued = Instant::now();
        lags_ms.push((issued - due).as_secs_f64() * 1e3);
        let events = match a {
            Arrival::Ais { t_sent, t_received, sentences } => {
                match tracer.time("ais.decode", || decoder.decode(*t_sent, *t_received, sentences))
                {
                    Some(obs) => tracer.time("core.push", || pipeline.ais(&obs)),
                    None => Vec::new(),
                }
            }
            Arrival::Radar(p) => tracer.time("core.push", || pipeline.radar(p)),
            Arrival::Vms(v) => tracer.time("core.push", || pipeline.vms(v)),
        };
        if trace {
            push_us.push(issued.elapsed().as_secs_f64() * 1e6);
        }
        note(events, due, &mut log);
        offered += record_count(a);
    }
    // Events `finish` flushes at end of stream are checked like any
    // other, but are not live alerts: they stay out of the latencies.
    let live_events = log.last().map_or(0, |e| e.0);
    let due = Instant::now();
    let events = tracer.time("core.finish", || Frontend::finish(&mut pipeline));
    note(events, due, &mut log);
    let ingest_s = start.elapsed().as_secs_f64();

    // The oracle: what each session's filter selects from the ring.
    let oracle: Vec<Vec<u64>> = filters
        .iter()
        .map(|f| {
            service
                .poll_filtered(EventCursor::at_seq(0), f)
                .events
                .iter()
                .map(|(s, _)| *s)
                .collect()
        })
        .collect();
    let want: u64 = oracle.iter().map(|o| o.len() as u64).sum();
    expected.store(want, Ordering::SeqCst);
    let got = sub_thread.join().map_err(|_| std::io::Error::other("subscriber thread panicked"))?;
    stop.store(true, Ordering::SeqCst);
    let asked = query_thread.join().map_err(|_| std::io::Error::other("query thread panicked"))?;
    server.shutdown();

    // Output checks: every session's stream equals its oracle; no
    // healthy session dropped or was evicted; no decode or query error.
    let ring_dropped = service.with_event_ring(|r| r.dropped());
    if ring_dropped > 0 {
        out.fail(format!("event ring aged out {ring_dropped} events; the oracle is incomplete"));
    }
    let mut per_session: Vec<Vec<u64>> = vec![Vec::new(); SESSIONS];
    for (s, q, _) in &got.receipts {
        if let Some(i) = session_ids.iter().position(|id| id == s) {
            per_session[i].push(*q);
        }
    }
    let mut missing = 0u64;
    for (i, (o, g)) in oracle.iter().zip(&per_session).enumerate() {
        if o != g {
            missing += (o.len() as u64).saturating_sub(g.len() as u64).max(1);
            out.fail(format!("session {i}: received {} events, oracle has {}", g.len(), o.len()));
        }
    }
    out.attempted += offered + asked.requests.len() as u64 + want;
    out.failed += decoder.errors + asked.errors + got.evicted + got.errors + missing;
    if got.dropped > 0 || got.evicted > 0 {
        out.fail(format!(
            "healthy sessions dropped {} events, {} evicted",
            got.dropped, got.evicted
        ));
    }
    if decoder.errors + asked.errors + got.errors > 0 {
        out.fail(format!(
            "{} decode errors, {} query errors, {} push-stream errors",
            decoder.errors, asked.errors, got.errors
        ));
    }

    let mut alert_ms = Vec::with_capacity(got.receipts.len());
    let mut pipeline_ms = Vec::with_capacity(got.receipts.len());
    let mut serve_ms = Vec::with_capacity(got.receipts.len());
    for (_, q, at) in got.receipts.iter().filter(|r| r.1 < live_events) {
        let k = log.partition_point(|(end, _, _)| *end <= *q).min(log.len().saturating_sub(1));
        let (_, due, ret) = log[k];
        alert_ms.push(at.saturating_duration_since(due).as_secs_f64() * 1e3);
        pipeline_ms.push((ret - due).as_secs_f64() * 1e3);
        serve_ms.push(at.saturating_duration_since(ret).as_secs_f64() * 1e3);
    }
    if alert_ms.is_empty() {
        out.fail("no event was pushed before end of stream: the run is too short to time alerts");
    }
    let late = lags_ms.iter().filter(|l| **l > LATE.as_secs_f64() * 1e3).count();
    println!(
        "info offered {offered} records in {ingest_s:.3} s ({:.0}/s offered {RATE}/s), {late} late, \
         {} queries, {} alert samples",
        offered as f64 / ingest_s,
        asked.requests.len(),
        alert_ms.len()
    );
    let m = &mut out.metrics;
    if !trace {
        // Percentiles over every sample of the run.
        m.set("setup_s", median(&setups), "s");
        m.set("throughput", offered as f64 / ingest_s, "1/s");
        m.set("latency_p50_ms", quantile(&mut alert_ms, 0.5), "ms");
        m.set("latency_p99_ms", quantile(&mut alert_ms, 0.99), "ms");
        m.set("disk_bytes_per_record", dir_bytes(&dir) as f64 / offered as f64, "B");
        return Ok(out);
    }
    let mut q = asked.latencies_us;
    m.set("gen.lag_p99_ms", quantile(&mut lags_ms, 0.99), "ms");
    m.set("serve.query.p50_us", quantile(&mut q, 0.5), "us");
    m.set("serve.query.p99_us", quantile(&mut q, 0.99), "us");

    m.set("gen.late_inputs", late as f64, "count");
    m.set("alert.pipeline_p99_ms", quantile(&mut pipeline_ms, 0.99), "ms");
    m.set("alert.serve_p99_ms", quantile(&mut serve_ms, 0.99), "ms");
    m.set("ais.decode.calls", tracer.calls("ais.decode") as f64, "count");
    m.set("ais.decode.busy_s", tracer.busy_s("ais.decode"), "s");
    m.set("core.push.calls", tracer.calls("core.push") as f64, "count");
    m.set("core.push.busy_s", tracer.busy_s("core.push"), "s");
    m.set("core.push.p99_us", quantile(&mut push_us, 0.99), "us");
    m.set("core.finish.busy_s", tracer.busy_s("core.finish"), "s");
    let report = Frontend::report(&pipeline);
    replay::report_metrics(m, &report);
    m.set("core.records", offered as f64, "count");
    m.set("core.late_drops", report.dropped_late as f64, "count");
    m.set("core.events", seq as f64, "count");
    m.set("core.seal_sweeps", report.seal_sweeps as f64, "count");
    m.set("core.evicted_vessels", report.evicted_vessels as f64, "count");
    m.set("core.archive_fixes", pipeline.store().len() as f64, "count");
    m.set("store.segments", report.cold_segments as f64, "count");
    m.set("store.disk_bytes", dir_bytes(&dir) as f64, "B");
    m.set("ais.decode.errors", decoder.errors as f64, "count");
    let cache = core.cache_stats();
    m.set("serve.cache.hits", cache.hits as f64, "count");
    m.set("serve.cache.misses", cache.misses as f64, "count");
    m.set(
        "serve.cache.hit_ratio",
        cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
        "ratio",
    );
    queries::in_process_metrics(m, &service, &asked.requests);
    queries::serve_layer_metrics(m, &service, &asked.requests);
    pump_metrics(&mut out, &service, &filters);
    let live_calls = tracer;
    let cut = Input { sim: input.sim.clone(), arrivals: arrivals.to_vec(), records: offered };
    let mut components = Tracer::new(true);
    let replayed = layers::replay_components(&cut, &scratch, true, &mut components)?;
    layers::component_metrics(&mut out.metrics, &components, &live_calls, replayed.kept);
    if replayed.events != seq {
        out.fail(format!(
            "component replay emitted {} events, the pipeline {seq}",
            replayed.events
        ));
    }
    // Tracing overhead: one closed-loop pass over the offered stream
    // with a reader attached, spans off, then one with spans on. Each
    // pass must also reproduce the live run's work counters exactly:
    // pacing and readers never change what the pipeline computes.
    let mut walls = [0.0; 2];
    let live_counters = (seq, report.dropped_late, report.seal_sweeps, pipeline.store().len());
    for (k, on) in [false, true].into_iter().enumerate() {
        let d = scratch.fresh("overhead");
        let mut p = MaritimePipeline::new(cut.config().with_durability(&d))
            .with_weather(cut.sim.weather.clone());
        let _reader = p.query_service();
        let started = Instant::now();
        let (events, _) = replay::drive(&mut p, &cut.arrivals, &mut Tracer::new(on), None);
        walls[k] = started.elapsed().as_secs_f64();
        let r = p.report();
        let again = (events.len() as u64, r.dropped_late, r.seal_sweeps, p.store().len());
        if again != live_counters {
            out.fail(format!(
                "closed-loop pass counters {again:?} differ from live {live_counters:?}"
            ));
        }
    }
    out.metrics.set("trace.overhead", walls[1] / walls[0], "ratio");
    Ok(out)
}

/// Replay the session set through `ServeCore::pump`/`drain_session` on
/// the finished ring: `serve.pump.*`, `serve.push.*`,
/// `serve.sessions.evicted`.
fn pump_metrics(out: &mut Outcome, service: &mda_core::QueryService, filters: &[EventFilter]) {
    let config = ServeConfig {
        session: SessionConfig {
            queue_capacity: 1 << 20,
            evict_after_dropped: 64,
            max_sessions: 1024,
        },
        ..ServeConfig::default()
    };
    let core = ServeCore::new(service.clone(), config);
    let sessions: Vec<u64> = filters
        .iter()
        .filter_map(|f| {
            match core.handle(&Request::Subscribe { filter: f.clone(), resume_at: Some(0) }) {
                Response::Subscribed { session, .. } => Some(session),
                _ => None,
            }
        })
        .collect();
    let mut t = Tracer::new(true);
    let (mut delivered, mut filtered, mut evicted) = (0u64, 0u64, 0u64);
    let mut last_filtered = vec![0u64; sessions.len()];
    loop {
        t.time("serve.pump", || core.pump());
        let mut moved = 0u64;
        for (i, s) in sessions.iter().enumerate() {
            while let Some(r) = core.drain_session(*s) {
                match r {
                    Ok(batch) if !batch.events.is_empty() => {
                        moved += batch.events.len() as u64;
                        last_filtered[i] = batch.filtered;
                    }
                    Ok(_) => break,
                    Err(_) => {
                        evicted += 1;
                        break;
                    }
                }
            }
        }
        delivered += moved;
        if moved == 0 {
            break;
        }
    }
    filtered += last_filtered.iter().sum::<u64>();
    let m = &mut out.metrics;
    m.set("serve.pump.busy_s", t.busy_s("serve.pump"), "s");
    m.set("serve.pump.calls", t.calls("serve.pump") as f64, "count");
    m.set("serve.push.delivered", delivered as f64, "count");
    m.set(
        "serve.push.filtered_ratio",
        filtered as f64 / (filtered + delivered).max(1) as f64,
        "ratio",
    );
    m.set("serve.sessions.evicted", evicted as f64, "count");
}

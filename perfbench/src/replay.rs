//! The `replay` and `replay-2w` workloads: the seeded AIVDM stream,
//! decoded and pushed in arrival order, closed loop, through a durable
//! pipeline with no reader attached. Each run repeats whole passes
//! (fresh data directory, fresh pipeline) until the run time is spent
//! and reports per-pass medians.

use crate::common::{
    dir_bytes, event_digest, median, Arrival, Decoder, Input, Metrics, Nanos, Scratch, Tracer,
    SETUPS,
};
use crate::layers;
use crate::Outcome;
use mda_core::{MaritimePipeline, MultiWriterPipeline, PipelineConfig, PipelineReport};
use mda_events::event::MaritimeEvent;
use std::time::{Duration, Instant};

/// The two ingest frontends behind one push interface.
pub trait Frontend {
    /// Push one decoded AIS observation.
    fn ais(&mut self, obs: &mda_sim::scenario::AisObservation) -> Vec<MaritimeEvent>;
    /// Push one radar plot.
    fn radar(&mut self, plot: &mda_sim::receivers::RadarPlot) -> Vec<MaritimeEvent>;
    /// Push one VMS report.
    fn vms(&mut self, report: &mda_sim::receivers::VmsReport) -> Vec<MaritimeEvent>;
    /// Drain at end of stream.
    fn finish(&mut self) -> Vec<MaritimeEvent>;
    /// The stage report after the run.
    fn report(&self) -> PipelineReport;
    /// The archive.
    fn archive(&self) -> &mda_store::SharedTrajectoryStore;
}

impl Frontend for MaritimePipeline {
    fn ais(&mut self, obs: &mda_sim::scenario::AisObservation) -> Vec<MaritimeEvent> {
        self.push_ais(obs)
    }
    fn radar(&mut self, plot: &mda_sim::receivers::RadarPlot) -> Vec<MaritimeEvent> {
        self.push_radar(plot)
    }
    fn vms(&mut self, report: &mda_sim::receivers::VmsReport) -> Vec<MaritimeEvent> {
        self.push_vms(report)
    }
    fn finish(&mut self) -> Vec<MaritimeEvent> {
        MaritimePipeline::finish(self)
    }
    fn report(&self) -> PipelineReport {
        MaritimePipeline::report(self).clone()
    }
    fn archive(&self) -> &mda_store::SharedTrajectoryStore {
        self.store()
    }
}

impl Frontend for MultiWriterPipeline {
    fn ais(&mut self, obs: &mda_sim::scenario::AisObservation) -> Vec<MaritimeEvent> {
        self.push_ais(obs)
    }
    fn radar(&mut self, plot: &mda_sim::receivers::RadarPlot) -> Vec<MaritimeEvent> {
        self.push_radar(plot)
    }
    fn vms(&mut self, report: &mda_sim::receivers::VmsReport) -> Vec<MaritimeEvent> {
        self.push_vms(report)
    }
    fn finish(&mut self) -> Vec<MaritimeEvent> {
        MultiWriterPipeline::finish(self)
    }
    fn report(&self) -> PipelineReport {
        MultiWriterPipeline::report(self)
    }
    fn archive(&self) -> &mda_store::SharedTrajectoryStore {
        self.store()
    }
}

/// Deterministic work counters of one pass: for one seed they repeat
/// exactly, run after run and pass after pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counters {
    /// Input records pushed (sentences, plots, reports).
    pub records: u64,
    /// Observations dropped behind the watermark (scenario-designed).
    pub late_drops: u64,
    /// Events finalised.
    pub events: u64,
    /// Order-independent digest of those events.
    pub digest: u64,
    /// Watermark-driven seal sweeps.
    pub seal_sweeps: u64,
    /// Vessels evicted from live detector state.
    pub evicted_vessels: u64,
    /// Fixes in the archive after `finish`.
    pub archive_fixes: u64,
    /// Sealed cold segments.
    pub segments: u64,
    /// Bytes in the data directory after `finish`.
    pub disk_bytes: u64,
    /// Decode failures on well-formed sentences.
    pub decode_errors: u64,
}

/// One replay pass: timings, counters, and the stage report.
pub struct Pass {
    /// First decode to `finish` returning, seconds.
    pub ingest_s: f64,
    /// The pass's work counters.
    pub counters: Counters,
    /// The pipeline's own stage timers.
    pub report: PipelineReport,
    /// The events, rendered and sorted (a multiset in canonical order).
    pub events: Vec<String>,
}

/// What passes record of their arrivals' decode-and-push times.
#[derive(Default)]
pub struct Latencies {
    /// Every arrival's time.
    pub arrival: Nanos,
    /// Per event a push call emits, that call's arrival time: from the
    /// deciding input's arrival to the event. Events `finish` flushes at
    /// end of stream are not recorded.
    pub event: Nanos,
}

/// Decode and push the whole stream through `p`, closed loop, with the
/// decode and push calls inside the tracer's spans. With `latency`,
/// the arrivals' times are recorded there.
pub fn drive<P: Frontend>(
    p: &mut P,
    arrivals: &[Arrival],
    tracer: &mut Tracer,
    mut latency: Option<&mut Latencies>,
) -> (Vec<MaritimeEvent>, u64) {
    let mut decoder = Decoder::default();
    let mut events = Vec::new();
    for a in arrivals {
        let start = latency.is_some().then(Instant::now);
        let out = match a {
            Arrival::Ais { t_sent, t_received, sentences } => {
                let obs =
                    tracer.time("ais.decode", || decoder.decode(*t_sent, *t_received, sentences));
                match obs {
                    Some(obs) => tracer.time("core.push", || p.ais(&obs)),
                    None => Vec::new(),
                }
            }
            Arrival::Radar(plot) => tracer.time("core.push", || p.radar(plot)),
            Arrival::Vms(v) => tracer.time("core.push", || p.vms(v)),
        };
        if let (Some(start), Some(l)) = (start, latency.as_deref_mut()) {
            let took = start.elapsed();
            l.arrival.record(took);
            for _ in 0..out.len() {
                l.event.record(took);
            }
        }
        events.extend(out);
    }
    events.extend(tracer.time("core.finish", || p.finish()));
    (events, decoder.errors)
}

/// Run one pass on a fresh data directory: through `MaritimePipeline`
/// for `lanes == None`, else through `MultiWriterPipeline` with that
/// many writer lanes. The arrivals' times go into `latency`.
pub fn pass(
    input: &Input,
    scratch: &Scratch,
    lanes: Option<usize>,
    tracer: &mut Tracer,
    latency: &mut Latencies,
) -> std::io::Result<Pass> {
    let dir = scratch.fresh("replay");
    let config: PipelineConfig = input.config().with_durability(&dir);
    let (ingest_s, events, errors, report, archive_fixes) = if let Some(lanes) = lanes {
        let mut p = MultiWriterPipeline::new(config, lanes);
        let t1 = Instant::now();
        let (events, errors) = drive(&mut p, &input.arrivals, tracer, Some(latency));
        let ingest_s = t1.elapsed().as_secs_f64();
        (ingest_s, events, errors, Frontend::report(&p), p.archive().len())
    } else {
        let mut p = MaritimePipeline::new(config).with_weather(input.sim.weather.clone());
        let t1 = Instant::now();
        let (events, errors) = drive(&mut p, &input.arrivals, tracer, Some(latency));
        let ingest_s = t1.elapsed().as_secs_f64();
        (ingest_s, events, errors, Frontend::report(&p), p.archive().len())
    };
    let mut lines: Vec<String> = events.iter().map(|e| format!("{e:?}")).collect();
    lines.sort();
    let counters = Counters {
        records: input.records,
        late_drops: report.dropped_late,
        events: events.len() as u64,
        digest: event_digest(&lines),
        seal_sweeps: report.seal_sweeps,
        evicted_vessels: report.evicted_vessels,
        archive_fixes: archive_fixes as u64,
        segments: report.cold_segments,
        disk_bytes: dir_bytes(&dir),
        decode_errors: errors,
    };
    std::fs::remove_dir_all(&dir)?;
    Ok(Pass { ingest_s, counters, report, events: lines })
}

/// Record the deterministic counters of a pass as metrics.
pub fn counter_metrics(m: &mut Metrics, c: &Counters) {
    m.set("core.records", c.records as f64, "count");
    m.set("core.late_drops", c.late_drops as f64, "count");
    m.set("core.events", c.events as f64, "count");
    m.set("core.seal_sweeps", c.seal_sweeps as f64, "count");
    m.set("core.evicted_vessels", c.evicted_vessels as f64, "count");
    m.set("core.archive_fixes", c.archive_fixes as f64, "count");
    m.set("store.segments", c.segments as f64, "count");
    m.set("store.disk_bytes", c.disk_bytes as f64, "B");
    m.set("ais.decode.errors", c.decode_errors as f64, "count");
}

/// Record the pipeline's in-program stage timers.
pub fn report_metrics(m: &mut Metrics, r: &PipelineReport) {
    let s = |x: &mda_core::report::StageMetric| x.busy_nanos as f64 / 1e9;
    m.set("core.report.ingest_s", s(&r.ingest), "s");
    m.set("core.report.reorder_s", s(&r.reorder), "s");
    m.set("core.report.fusion_s", s(&r.fusion), "s");
    m.set("core.report.events_s", s(&r.events), "s");
    m.set("core.report.synopses_s", s(&r.synopses), "s");
    m.set("core.report.analytics_s", s(&r.analytics), "s");
    m.set("core.report.storage_s", s(&r.storage), "s");
}

/// Run the `replay` (`lanes == None`) or `replay-2w` workload.
pub fn run(seed: u64, seconds: f64, trace: bool, lanes: Option<usize>) -> std::io::Result<Outcome> {
    let scratch = Scratch::new()?;
    let mut out = Outcome::default();
    // Set-up: the input generated and encoded, and the frontend opened
    // on a fresh data directory, ready for its first push. The last
    // set-up's input feeds the run.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut input = None;
    for _ in 0..SETUPS {
        drop(input.take());
        let dir = scratch.fresh("setup");
        let t = Instant::now();
        let generated = Input::generate(seed, crate::common::VESSELS, crate::common::HOURS);
        let config = generated.config().with_durability(&dir);
        let frontend: Box<dyn Frontend> = match lanes {
            Some(lanes) => Box::new(MultiWriterPipeline::new(config, lanes)),
            None => {
                Box::new(MaritimePipeline::new(config).with_weather(generated.sim.weather.clone()))
            }
        };
        setups.push(t.elapsed().as_secs_f64());
        drop(frontend);
        input = Some(generated);
    }
    let input = input.ok_or_else(|| std::io::Error::other("no set-up ran"))?;
    let mut rates = Vec::new();
    let mut latency = Latencies::default();
    let mut disk_per_record = Vec::new();
    let mut first: Option<Counters> = None;
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    // Untraced: at least three passes, so every figure is a median.
    // Traced: one, for the counters the traced pass must reproduce.
    let min_passes = if trace { 1 } else { 3 };
    let mut passes = 0;
    while passes < min_passes || (!trace && started.elapsed() < budget) {
        passes += 1;
        let mut untraced = Tracer::new(false);
        let p = pass(&input, &scratch, lanes, &mut untraced, &mut latency)?;
        out.attempted += p.counters.records;
        rates.push(p.counters.records as f64 / p.ingest_s);
        disk_per_record.push(p.counters.disk_bytes as f64 / p.counters.records as f64);
        check_pass(&mut out, &p.counters, &mut first);
    }
    let first = first.unwrap_or_else(|| unreachable!("at least one pass ran"));
    // Writer-count invariance. Against one lane of the same frontend
    // everything is exact; against the classic single writer, event and
    // archive counts are exact, while the two frontends may resolve
    // same-timestamp duplicate payloads (cloned identities) differently,
    // so the events that differ are counted, not failed.
    let mut frontend_diff = 0u64;
    if lanes.is_some() {
        let mut aside = Latencies::default();
        let one_lane = pass(&input, &scratch, Some(1), &mut Tracer::new(false), &mut aside)?;
        let classic = pass(&input, &scratch, None, &mut Tracer::new(false), &mut aside)?;
        for (what, a, b) in [
            ("1-lane event digest", one_lane.counters.digest, first.digest),
            ("1-lane archive fixes", one_lane.counters.archive_fixes, first.archive_fixes),
            ("single-writer events", classic.counters.events, first.events),
            ("single-writer archive fixes", classic.counters.archive_fixes, first.archive_fixes),
        ] {
            if a != b {
                out.fail(format!("replay-2w {what}: {b} against {a}"));
            }
        }
        frontend_diff = multiset_difference(&classic.events, &one_lane.events);
    }
    let m = &mut out.metrics;
    if !trace {
        m.set("setup_s", median(&setups), "s");
        m.set("throughput", median(&rates), "1/s");
        m.set("latency_p50_ms", latency.event.quantile_us(0.5) / 1e3, "ms");
        m.set("latency_p99_ms", latency.event.quantile_us(0.99) / 1e3, "ms");
        m.set("disk_bytes_per_record", median(&disk_per_record), "B");
        return Ok(out);
    }
    // Traced: one untraced and one traced pass back to back give the
    // tracing overhead; the traced pass gives the pipeline-call spans.
    let mut plain = Tracer::new(false);
    let base = pass(&input, &scratch, lanes, &mut plain, &mut Latencies::default())?;
    let mut tracer = Tracer::new(true);
    let mut push = Latencies::default();
    let traced = pass(&input, &scratch, lanes, &mut tracer, &mut push)?;
    check_pass(&mut out, &traced.counters, &mut Some(first.clone()));
    let m = &mut out.metrics;
    m.set("trace.overhead", traced.ingest_s / base.ingest_s, "ratio");
    counter_metrics(m, &traced.counters);
    m.set("core.frontend_event_diff", frontend_diff as f64, "count");
    report_metrics(m, &traced.report);
    m.set("ais.decode.calls", tracer.calls("ais.decode") as f64, "count");
    m.set("ais.decode.busy_s", tracer.busy_s("ais.decode"), "s");
    m.set("core.push.calls", tracer.calls("core.push") as f64, "count");
    m.set("core.push.busy_s", tracer.busy_s("core.push"), "s");
    m.set("core.push.p99_us", push.arrival.quantile_us(0.99), "us");
    m.set("core.finish.busy_s", tracer.busy_s("core.finish"), "s");
    let mut components = Tracer::new(true);
    let replayed = layers::replay_components(&input, &scratch, false, &mut components)?;
    layers::component_metrics(m, &components, &tracer, replayed.kept);
    if replayed.events != traced.counters.events {
        out.fail(format!(
            "component replay emitted {} events, the pipeline {}",
            replayed.events, traced.counters.events
        ));
    }
    Ok(out)
}

/// Elements in exactly one of two sorted multisets.
fn multiset_difference(a: &[String], b: &[String]) -> u64 {
    let (mut i, mut j, mut diff) = (0, 0, 0u64);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                diff += 1;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                diff += 1;
                j += 1;
            }
        }
    }
    diff + (a.len() - i + b.len() - j) as u64
}

/// Check one pass: no decode errors, and counters equal to the first
/// pass's (the in-run determinism self-check).
fn check_pass(out: &mut Outcome, c: &Counters, first: &mut Option<Counters>) {
    if c.decode_errors > 0 {
        out.failed += c.decode_errors;
        out.fail(format!("{} decode errors on well-formed sentences", c.decode_errors));
    }
    match first {
        None => *first = Some(c.clone()),
        Some(f) if f != c => out.fail(format!("pass counters {c:?} differ from {f:?}")),
        Some(_) => {}
    }
}

//! Component replays for the traced run: the workload's stream, fed to
//! each layer's public entry point in the pipeline's order, with one
//! span per layer call (or per fix batch, for per-fix layers).
//!
//! The replay takes the arrivals one at a time, as the pipeline's push
//! calls do: each arrival goes into the reorder buffer, the watermark
//! releases a segment, and [`TickSchedule`] cuts that segment at tick
//! boundaries. Within a cut, consecutive AIS fixes form one batch and
//! a radar plot or VMS report flushes it, so every batch is one the
//! pipeline itself forms. Analytics and enrichment are not replayed.

use crate::common::{Arrival, Decoder, Input, Metrics, Scratch, Tracer};
use mda_core::PipelineConfig;
use mda_events::engine::{EngineConfig, EventEngine};
use mda_events::gap::GapDetector;
use mda_events::loiter::LoiterDetector;
use mda_events::veracity::VeracityDetector;
use mda_events::zone::ZoneDetector;
use mda_forecast::routenet::{RouteNetPredictor, RouteNetwork};
use mda_geo::{Fix, Timestamp, VesselId};
use mda_sim::receivers::{RadarPlot, VmsReport};
use mda_store::segment::SegmentConfig;
use mda_store::shards::{StIndexConfig, StoreConfig};
use mda_store::{DurabilityConfig, DurableStore};
use mda_stream::reorder::ReorderBuffer;
use mda_stream::watermark::{BoundedOutOfOrderness, SealSchedule, TickSchedule};
use mda_synopses::compress::ThresholdCompressor;
use mda_track::fusion::Fuser;
use mda_track::sensor::{SensorKind, SensorReport};
use std::collections::HashMap;
use std::time::Instant;

/// An item of the reorder stage.
#[derive(Debug, Clone, Copy)]
enum Item {
    Ais(Fix),
    Radar(RadarPlot),
    Vms(VmsReport),
}

/// The archive configuration the pipeline derives from its own
/// configuration (sharded, grid-indexed, sealing at the retention
/// tolerance).
pub fn store_config(config: &PipelineConfig) -> StoreConfig {
    StoreConfig {
        shards: config.store_shards,
        st_index: Some(StIndexConfig {
            bounds: config.bounds,
            cell_deg: 0.1,
            slice: 30 * mda_geo::time::MINUTE,
        }),
        knn: None,
        seal: SegmentConfig {
            tolerance_m: config.retention.cold_tolerance_m,
            max_silence: config.synopsis.max_silence,
            ..SegmentConfig::default()
        },
    }
}

/// The engine configuration the pipeline derives (retention owns the
/// live-state TTL unless the engine's was customised).
fn engine_config(config: &PipelineConfig) -> EngineConfig {
    let default_ttl = EngineConfig::default().vessel_ttl;
    let vessel_ttl = if config.events.vessel_ttl == default_ttl {
        config.retention.detector_ttl
    } else {
        config.events.vessel_ttl
    };
    EngineConfig { vessel_ttl, ..config.events.clone() }
}

/// The fusion report the pipeline builds for one released item.
fn fuse_report(item: &Item) -> SensorReport {
    match item {
        Item::Ais(fix) => SensorReport::from_fix(SensorKind::AisTerrestrial, fix),
        Item::Radar(p) => SensorReport {
            kind: SensorKind::Radar,
            t: p.t,
            pos: p.pos,
            claimed_id: None,
            sog_kn: None,
            cog_deg: None,
            accuracy_m: None,
        },
        Item::Vms(v) => SensorReport {
            kind: SensorKind::Vms,
            t: v.t,
            pos: v.pos,
            claimed_id: Some(v.id),
            sog_kn: None,
            cog_deg: None,
            accuracy_m: None,
        },
    }
}

/// What a component replay produced besides its spans.
pub struct Replayed {
    /// Fixes the synopsis compressors kept.
    pub kept: u64,
    /// Events the replayed engine emitted; equal to the pipeline's, or
    /// the replay did not follow the pipeline's order.
    pub events: u64,
}

/// Replay the workload's stream through every ingest-side layer, one
/// arrival at a time as the pipeline's push calls take it. With
/// `publish`, each tick also takes an incremental store snapshot and
/// the route predictor is rebuilt at the pipeline's refresh cadence, as
/// when a reader handle is attached.
pub fn replay_components(
    input: &Input,
    scratch: &Scratch,
    publish: bool,
    t: &mut Tracer,
) -> std::io::Result<Replayed> {
    let config = input.config();
    // Decoded, untimed: decode has its own span in the workload pass.
    let mut decoder = Decoder::default();
    let items: Vec<(Timestamp, Item)> = input
        .arrivals
        .iter()
        .filter_map(|a| match a {
            Arrival::Ais { t_sent, t_received, sentences } => decoder
                .decode(*t_sent, *t_received, sentences)
                .and_then(|obs| obs.msg.to_fix(obs.t_sent))
                .map(|fix| (fix.t, Item::Ais(fix))),
            Arrival::Radar(p) => Some((p.t, Item::Radar(*p))),
            Arrival::Vms(v) => Some((v.t, Item::Vms(*v))),
        })
        .collect();

    let dir = scratch.fresh("components");
    let mut c = Components::new(&config, &dir)?;
    let mut wm = BoundedOutOfOrderness::new(config.watermark_delay);
    let mut reorder = ReorderBuffer::new();
    // One push call per item: reorder, watermark, release; the release
    // segment is cut at tick boundaries; then a due seal sweep.
    for (ts, item) in items {
        let (released, w) = t.time("stream.reorder", || {
            reorder.push(ts, item);
            let w = wm.observe(ts);
            (reorder.release(w), w)
        });
        c.advance(released, w, publish, t)?;
        if let Some(cut) = c.seals.due(w) {
            let durable = &c.durable;
            t.time("store.seal", || durable.seal_before(cut))?;
        }
    }
    // `finish`: drain the buffer, sweep to the newest event time, and
    // refresh the predictor on every publication while draining.
    let remaining = t.time("stream.reorder", || reorder.drain_all());
    let now = wm.current().saturating_add(wm.max_delay());
    c.draining = true;
    c.advance(remaining, now, publish, t)?;
    if c.ticks.anchored() && now > c.ticks.last_boundary() {
        c.tick(now, publish, t)?;
    }
    if publish {
        c.publish(now, t);
    }
    let replayed = Replayed { kept: c.kept, events: c.events };
    drop(c);
    std::fs::remove_dir_all(&dir)?;
    Ok(replayed)
}

/// Every ingest-side layer's state, fed by the component replay.
struct Components {
    config: PipelineConfig,
    ticks: TickSchedule,
    fuser: Fuser,
    engine: EventEngine,
    loiter: LoiterDetector,
    gap: GapDetector,
    veracity: VeracityDetector,
    zone: ZoneDetector,
    compressors: HashMap<VesselId, ThresholdCompressor>,
    durable: DurableStore,
    seals: SealSchedule,
    snapshot: mda_store::StoreSnapshot,
    route: RouteNetwork,
    last_published: Timestamp,
    ticks_since_refresh: u32,
    draining: bool,
    kept: u64,
    events: u64,
}

impl Components {
    fn new(config: &PipelineConfig, dir: &std::path::Path) -> std::io::Result<Self> {
        let engine_cfg = engine_config(config);
        let durable = DurableStore::open(store_config(config), &DurabilityConfig::new(dir))?;
        let snapshot = durable.store().snapshot(None);
        Ok(Self {
            ticks: TickSchedule::new(config.tick_interval),
            fuser: Fuser::new(config.fusion),
            engine: EventEngine::new(engine_cfg.clone()),
            loiter: LoiterDetector::new(engine_cfg.loiter),
            gap: GapDetector::new(engine_cfg.gap_threshold),
            veracity: VeracityDetector::new(engine_cfg.veracity),
            zone: ZoneDetector::new(engine_cfg.zones.clone()),
            compressors: HashMap::new(),
            durable,
            seals: SealSchedule::new(config.retention.seal_every, config.retention.hot_horizon),
            snapshot,
            route: RouteNetwork::new(config.bounds, config.model_cell_deg),
            last_published: Timestamp::MIN,
            ticks_since_refresh: 0,
            draining: false,
            kept: 0,
            events: 0,
            config: config.clone(),
        })
    }

    /// One release segment at watermark `wm`, as the pipeline advances
    /// event time: each tick boundary fires after exactly the items
    /// before it, then the boundaries the watermark completes.
    fn advance(
        &mut self,
        released: Vec<(Timestamp, Item)>,
        wm: Timestamp,
        publish: bool,
        t: &mut Tracer,
    ) -> std::io::Result<()> {
        let mut pending: Vec<Item> = Vec::new();
        for (ts, item) in released {
            while let Some(boundary) = self.ticks.before_observation(ts) {
                self.process(std::mem::take(&mut pending), publish, t)?;
                self.tick(boundary, publish, t)?;
            }
            pending.push(item);
        }
        self.process(pending, publish, t)?;
        while let Some(boundary) = self.ticks.at_watermark(wm) {
            self.tick(boundary, publish, t)?;
        }
        Ok(())
    }

    /// Items between two tick boundaries: consecutive AIS fixes form one
    /// batch; a radar plot or VMS report flushes it and goes to fusion.
    fn process(&mut self, items: Vec<Item>, publish: bool, t: &mut Tracer) -> std::io::Result<()> {
        let mut batch: Vec<Fix> = Vec::new();
        for item in items {
            match item {
                Item::Ais(fix) => batch.push(fix),
                other => {
                    self.process_fix_batch(&mut batch, publish, t)?;
                    let report = fuse_report(&other);
                    t.time("track.fuse", || self.fuser.ingest(&report));
                }
            }
        }
        self.process_fix_batch(&mut batch, publish, t)
    }

    /// One fix batch: canonical order, fusion, engine, standalone
    /// detectors, synopses, archive append and WAL record.
    fn process_fix_batch(
        &mut self,
        batch: &mut Vec<Fix>,
        publish: bool,
        t: &mut Tracer,
    ) -> std::io::Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        mda_events::canonical_sort(batch);
        let n = batch.len() as u64;
        let start = Instant::now();
        for fix in batch.iter() {
            self.fuser.ingest(&SensorReport::from_fix(SensorKind::AisTerrestrial, fix));
        }
        if t.on() {
            t.add("track.fuse", n, start.elapsed());
        }
        let events = t.time("events.observe", || self.engine.observe_batch(batch));
        self.events += events.len() as u64;
        detector(t, "events.loiter", batch, |x| self.loiter.observe(x).len());
        detector(t, "events.gap", batch, |x| self.gap.observe(x).len());
        detector(t, "events.veracity", batch, |x| self.veracity.observe(x).len());
        detector(t, "events.zone", batch, |x| self.zone.observe(x).len());
        let start = Instant::now();
        let synopsis = self.config.synopsis;
        let compressors = &mut self.compressors;
        let kept: Vec<Fix> = batch
            .iter()
            .filter_map(|fix| {
                compressors
                    .entry(fix.id)
                    .or_insert_with(|| ThresholdCompressor::new(synopsis))
                    .observe(*fix)
            })
            .collect();
        if t.on() {
            t.add("synopses.observe", n, start.elapsed());
        }
        self.kept += kept.len() as u64;
        if publish {
            for fix in batch.iter() {
                self.route.learn(fix);
            }
        }
        let durable = &self.durable;
        if !kept.is_empty() {
            t.time("store.append", || durable.store().append_batch(kept.iter().copied()));
        }
        t.time("store.wal", || durable.log_batch(&kept))?;
        batch.clear();
        Ok(())
    }

    /// One tick boundary: engine sweep (evicted vessels drop their
    /// compressors), gap sweep, track sweep, durability mark, and (with
    /// `publish`) the publication.
    fn tick(&mut self, boundary: Timestamp, publish: bool, t: &mut Tracer) -> std::io::Result<()> {
        let events = t.time("events.tick", || self.engine.tick(boundary));
        self.events += events.len() as u64;
        for id in self.engine.take_evicted() {
            self.compressors.remove(&id);
        }
        let start = Instant::now();
        self.gap.check_silent(boundary);
        if t.on() {
            t.add("events.gap", 0, start.elapsed());
        }
        t.time("track.fuse", || self.fuser.sweep(boundary));
        let durable = &self.durable;
        t.time("store.wal", || durable.mark(boundary))?;
        if publish {
            self.publish(boundary, t);
        }
        Ok(())
    }

    /// A publication at stamp `wm`, at most once per stamp: the route
    /// predictor at the refresh cadence (every time while draining) and
    /// an incremental store snapshot.
    fn publish(&mut self, wm: Timestamp, t: &mut Tracer) {
        if wm <= self.last_published {
            return;
        }
        self.last_published = wm;
        self.ticks_since_refresh += 1;
        let cadence = self.config.query.predictor_refresh_ticks.max(1);
        if self.draining || self.ticks_since_refresh >= cadence {
            self.ticks_since_refresh = 0;
            let route = &self.route;
            t.time("forecast.predictor", || RouteNetPredictor::new(route.clone()));
        }
        let prev = &self.snapshot;
        let durable = &self.durable;
        self.snapshot = t.time("store.snapshot", || durable.store().snapshot(Some(prev)));
    }
}

/// Run one standalone detector over a batch inside one span whose call
/// count is the fixes observed.
fn detector(t: &mut Tracer, name: &'static str, batch: &[Fix], mut f: impl FnMut(&Fix) -> usize) {
    let start = Instant::now();
    let mut emitted = 0usize;
    for fix in batch {
        emitted += f(fix);
    }
    std::hint::black_box(emitted);
    if t.on() {
        t.add(name, batch.len() as u64, start.elapsed());
    }
}

/// Spans of the component replays that partition the pipeline's push
/// and finish work; their sum over the pipeline-call spans is
/// `trace.coverage`.
const COVERED: [&str; 10] = [
    "stream.reorder",
    "track.fuse",
    "events.observe",
    "events.tick",
    "synopses.observe",
    "store.append",
    "store.wal",
    "store.seal",
    "store.snapshot",
    "forecast.predictor",
];

/// Record the component-replay metrics and `trace.coverage` against the
/// workload's pipeline-call spans in `calls`.
pub fn component_metrics(m: &mut Metrics, c: &Tracer, calls: &Tracer, kept: u64) {
    m.set("stream.reorder.busy_s", c.busy_s("stream.reorder"), "s");
    m.set("track.fuse.busy_s", c.busy_s("track.fuse"), "s");
    m.set("track.fuse.calls", c.calls("track.fuse") as f64, "count");
    m.set("events.observe.busy_s", c.busy_s("events.observe"), "s");
    m.set("events.tick.busy_s", c.busy_s("events.tick"), "s");
    m.set("events.tick.calls", c.calls("events.tick") as f64, "count");
    for d in ["loiter", "gap", "veracity", "zone"] {
        let name = format!("events.{d}");
        m.set(format!("{name}.busy_s"), c.busy_s(&name), "s");
        m.set(format!("{name}.calls"), c.calls(&name) as f64, "count");
    }
    m.set("synopses.observe.busy_s", c.busy_s("synopses.observe"), "s");
    m.set("synopses.kept", kept as f64, "count");
    m.set("store.append.busy_s", c.busy_s("store.append"), "s");
    m.set("store.wal.busy_s", c.busy_s("store.wal"), "s");
    m.set("store.seal.busy_s", c.busy_s("store.seal"), "s");
    m.set("store.snapshot.busy_s", c.busy_s("store.snapshot"), "s");
    m.set("store.snapshot.calls", c.calls("store.snapshot") as f64, "count");
    m.set("forecast.predictor.busy_s", c.busy_s("forecast.predictor"), "s");
    let covered: f64 = COVERED.iter().map(|s| c.busy_s(s)).sum();
    let pipeline = calls.busy_s("core.push") + calls.busy_s("core.finish");
    m.set("trace.coverage", covered / pipeline, "ratio");
}

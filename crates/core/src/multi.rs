//! The ingest write path: N shard-owning writer lanes, one tick barrier.
//!
//! [`MultiWriterPipeline`] is the system's one write path. It splits
//! ingest into `writers` lanes that each own a **disjoint shard set
//! end-to-end** — reorder buffer → fuser → engine shards
//! ([`mda_events::EngineLane`]) → store shards
//! ([`mda_store::shards::StoreLane`]) — routed by the same
//! [`mda_geo::vessel_shard`] hash every layer already uses (lane `w` of
//! `n` owns the shards `s` with `s % n == w`). Lane state is touched by
//! exactly one thread, so lanes never contend on a lock for their own
//! data. [`MaritimePipeline`](crate::pipeline::MaritimePipeline) is the
//! one-lane case, pushed per arrival; its lane runs inline on the
//! caller's thread.
//!
//! ## The barrier protocol
//!
//! Per-vessel work parallelises trivially; the cross-shard points do
//! not. Exactly two operations need the whole fleet at one event time:
//! the pairwise sweeps (rendezvous/collision read a merged
//! [`FleetIndex`]) and the publication of a [`SystemSnapshot`] stamp.
//! Both happen only at aligned tick boundaries `T`, so the lanes run an
//! explicit two-phase barrier ([`mda_stream::barrier::TickBarrier`],
//! panic-safe like `run_with_readers`) at every boundary:
//!
//! 1. every lane processes exactly its accepted data with `t <= T`,
//!    deposits its per-shard detector events and live-index clones,
//!    then quiesces; the elected leader merges the deposits in global
//!    shard order (the engine's canonical event sort) and builds the
//!    fleet view;
//! 2. every lane sweeps its own shards against the shared fleet view
//!    and deposits tick events and evictions; the leader merges,
//!    seals, marks and publishes the stamp `T`, then the lanes fan the
//!    eviction union out to their pair state and resume.
//!
//! ## Batches and seals
//!
//! Two rules keep every layout on the same function of the event-time
//! stream:
//!
//! - **Batch rule.** A lane cuts its canonical fix batch only at tick
//!   boundaries and at the end of a release, never at a radar or VMS
//!   item. A plot is routed to one lane, so cutting there would split
//!   a same-timestamp duplicate pair in one layout and not in another,
//!   and [`canonical_sort`] would then order the pair differently.
//!   Radar and VMS still reach the lane's fuser in event-time order.
//! - **Seal rule.** The seal schedule is consulted once per tick
//!   boundary, before that boundary's mark and publication, and never
//!   while `finish` drains the stream past the watermark.
//!
//! Because the router accepts/drops arrivals and fires boundaries on
//! one schedule, everything observable — emitted events, archive
//! contents, published stamps and their snapshot answers, report
//! counters — is a pure function of the arrival stream and **invariant
//! under the writer count** (`tests/scenario_determinism.rs`,
//! `tests/query_consistency.rs` and `tests/multi_writer.rs` hold it to
//! that for 1/2/4/8 writers). Events, archives and counters also equal
//! the one-lane `MaritimePipeline`'s, whose epochs are single arrivals.
//!
//! ## Scope
//!
//! The lanes carry reorder, fusion, event recognition, synopsis
//! compression, archive appends and route-network learning (lane parts
//! merge exactly; see [`RouteNetwork::merge_from`]). The console
//! models — density raster, live kNN engine, normalcy model and the
//! semantic graph with weather enrichment — live in one post-release
//! sink, fed after each epoch with the canonical merge of the lanes'
//! fixes, so they are available at any writer count.

use crate::config::PipelineConfig;
use crate::query::{QueryService, QueryShared, SystemSnapshot};
use crate::report::{PipelineReport, StageMetric, StageTimer};
use crate::sink::AnalyticsSink;
use mda_ais::messages::AisMessage;
use mda_ais::quality;
use mda_events::engine::{canonical_sort, EngineConfig, EngineLane};
use mda_events::event::MaritimeEvent;
use mda_events::proximity::{FleetIndex, LiveIndex};
use mda_forecast::normalcy::NormalcyModel;
use mda_forecast::routenet::{RouteNetPredictor, RouteNetwork};
use mda_geo::{vessel_shard, Fix, Position, Timestamp, VesselId};
use mda_semantics::store::TripleStore;
use mda_semantics::term::Interner;
use mda_sim::receivers::{RadarPlot, VmsReport};
use mda_sim::scenario::{AisObservation, SimOutput};
use mda_sim::weather::WeatherField;
use mda_store::segment::SegmentConfig;
use mda_store::shards::{StIndexConfig, StoreConfig, StoreLane};
use mda_store::shared::SharedTrajectoryStore;
use mda_store::DurableStore;
use mda_stream::barrier::{run_lanes, LaneRole};
use mda_stream::control::{AdaptiveController, ArrivalWindow, Knobs};
use mda_stream::reorder::ReorderBuffer;
use mda_stream::watermark::{BoundedOutOfOrderness, SealSchedule, TickSchedule};
use mda_synopses::compress::ThresholdCompressor;
use mda_track::fusion::Fuser;
use mda_track::sensor::{SensorKind, SensorReport};
use mda_viz::raster::DensityRaster;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// An observation routed to a writer lane's reorder buffer.
#[derive(Debug)]
enum LaneItem {
    Ais(Fix),
    Radar(RadarPlot),
    Vms(VmsReport),
}

/// Per-lane stage timings, folded into the report after each epoch.
#[derive(Debug, Default)]
struct LaneMetrics {
    reorder: StageMetric,
    fusion: StageMetric,
    events: StageMetric,
    synopses: StageMetric,
    analytics: StageMetric,
    storage: StageMetric,
}

impl LaneMetrics {
    /// Add the timings into `r` and reset them.
    fn drain_into(&mut self, r: &mut PipelineReport) {
        let m = std::mem::take(self);
        r.reorder.absorb(&m.reorder);
        r.fusion.absorb(&m.fusion);
        r.events.absorb(&m.events);
        r.synopses.absorb(&m.synopses);
        r.analytics.absorb(&m.analytics);
        r.storage.absorb(&m.storage);
    }
}

/// One writer lane: the full per-shard pipeline for a disjoint shard
/// set, owned by exactly one thread during an epoch.
pub(crate) struct WriterLane {
    reorder: ReorderBuffer<LaneItem>,
    pub(crate) fuser: Fuser,
    pub(crate) engine: EngineLane,
    compressors: HashMap<VesselId, ThresholdCompressor>,
    /// This lane's additive slice of the learned route network; the
    /// published predictor merges all slices (exact under the cell
    /// statistics' integer quantization).
    route_part: RouteNetwork,
    store: StoreLane,
    metrics: LaneMetrics,
    /// This epoch's fixes and the synopsis fixes they released, each
    /// in canonical order: the lane's hand-over to the sink.
    processed: Vec<Fix>,
    kept: Vec<Fix>,
    /// Tick boundaries this lane has crossed (fault-injection seam).
    boundaries_crossed: u64,
}

/// Deposit area for one epoch, reused across boundaries: each slot is
/// written by exactly one lane before a barrier and consumed by the
/// leader behind it.
struct EpochScratch {
    /// Per global engine shard: detector events from the interval
    /// batches.
    batch_events: Vec<Vec<MaritimeEvent>>,
    /// Per global engine shard: detector events from the boundary
    /// sweep.
    tick_events: Vec<Vec<MaritimeEvent>>,
    /// Per global engine shard: live-index clone at the boundary.
    indexes: Vec<Option<LiveIndex>>,
    /// Leader-built fleet view the lanes sweep against.
    fleet: Option<Arc<FleetIndex>>,
    /// Per lane: vessels TTL-evicted by this boundary's sweep.
    gone: Vec<Vec<VesselId>>,
    /// Leader-built union of `gone`, fanned out to every lane's pair
    /// state.
    gone_all: Arc<HashSet<VesselId>>,
    /// Per lane: live vessels after the sweep.
    live_counts: Vec<usize>,
    /// Per lane: route-network slice clone (only when a predictor
    /// refresh is due).
    route_parts: Vec<Option<RouteNetwork>>,
    /// Leader decision: publish a snapshot at this boundary?
    publish: bool,
    /// Leader decision: rebuild the published predictor at this
    /// boundary?
    want_route: bool,
}

/// Serving/publication state shared between the lanes (under one
/// mutex; held only for deposits and leader sections while every other
/// lane is parked at the barrier).
struct SharedState {
    seals: SealSchedule,
    store_snapshot: mda_store::StoreSnapshot,
    published_route: Arc<RouteNetPredictor>,
    ticks_since_refresh: u32,
    last_published: Timestamp,
    draining: bool,
    /// Snapshot of `Arc::strong_count(&query) > 1`, taken once per
    /// epoch on the router thread (handles are created through
    /// `&mut self`, so the count cannot change mid-epoch).
    has_readers: bool,
    emitted: u64,
    live: u64,
    seal_sweeps: u64,
    detector_counts: HashMap<&'static str, u64>,
    /// Vessels TTL-evicted this epoch, for the sink's term cache.
    evicted: Vec<VesselId>,
    /// Events finalised this epoch, in emission order (flush's return).
    out: Vec<MaritimeEvent>,
    scratch: EpochScratch,
}

fn lock(shared: &Mutex<SharedState>) -> MutexGuard<'_, SharedState> {
    shared.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The shared state, reached from the router thread between epochs
/// (no lane running, so no lock is needed).
fn unshared(shared: &mut Mutex<SharedState>) -> &mut SharedState {
    shared.get_mut().unwrap_or_else(PoisonError::into_inner)
}

/// Concatenate per-shard deposits in global shard order and stable-sort
/// by the canonical event key — byte-for-byte the single engine's
/// emission order.
fn merge_deposits(lists: &mut [Vec<MaritimeEvent>]) -> Vec<MaritimeEvent> {
    let mut all = Vec::new();
    for list in lists {
        all.append(list);
    }
    all.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
    all
}

/// The k-way merge of the lanes' canonically sorted lists by
/// [`canonical_sort`]'s key: lanes own disjoint vessels, so `(t,
/// vessel)` settles every cross-lane comparison, and the stable sort
/// keeps each lane's own order. The lists are taken, not drained, so
/// no lane keeps an epoch-sized allocation.
fn merge_canonical(lists: impl Iterator<Item = Vec<Fix>>) -> Vec<Fix> {
    let mut merged = Vec::new();
    for list in lists {
        if merged.is_empty() {
            merged = list;
        } else {
            merged.extend(list);
        }
    }
    merged.sort_by_key(|f| (f.t, f.id));
    merged
}

/// One route network from the lanes' slices.
fn merge_routes<'a>(
    config: &PipelineConfig,
    parts: impl IntoIterator<Item = &'a RouteNetwork>,
) -> RouteNetwork {
    let mut net = RouteNetwork::new(config.bounds, config.model_cell_deg);
    for part in parts {
        net.merge_from(part);
    }
    net
}

impl SharedState {
    /// Account merged events (tally, gauge, ring, epoch output).
    fn emit(&mut self, events: Vec<MaritimeEvent>, query: &QueryShared) {
        if events.is_empty() {
            return;
        }
        for e in &events {
            *self.detector_counts.entry(e.kind.label()).or_insert(0) += 1;
        }
        self.emitted += events.len() as u64;
        query.append_events(&events);
        self.out.extend(events);
    }

    /// Decide whether stamp `wm` publishes, and whether that
    /// publication rebuilds the route predictor (every
    /// `predictor_refresh_ticks` publications; every one while `finish`
    /// drains, so each final stamp carries the route state as of that
    /// stamp). A write-only pipeline (no outstanding handle) publishes
    /// nothing, and each stamp publishes at most once, so equal stamps
    /// always mean identical state.
    fn plan_publish(&mut self, wm: Timestamp, config: &PipelineConfig) {
        self.scratch.publish = self.has_readers && wm > self.last_published;
        self.scratch.want_route = false;
        if self.scratch.publish {
            self.ticks_since_refresh += 1;
            let cadence = config.query.predictor_refresh_ticks.max(1);
            if self.draining || self.ticks_since_refresh >= cadence {
                self.scratch.want_route = true;
                self.ticks_since_refresh = 0;
            }
        }
    }

    /// Publish the snapshot stamped `wm`, with `route` as the new
    /// predictor's network when a refresh was planned. The store side
    /// reuses unchanged shards from the previous publication.
    fn publish(
        &mut self,
        wm: Timestamp,
        route: Option<RouteNetwork>,
        store: &SharedTrajectoryStore,
        query: &QueryShared,
    ) {
        self.last_published = wm;
        if let Some(net) = route {
            self.published_route = Arc::new(RouteNetPredictor::new(net));
        }
        let snap = store.snapshot(Some(&self.store_snapshot));
        self.store_snapshot = snap.clone();
        let route = Arc::clone(&self.published_route);
        query.publish(SystemSnapshot::new(wm, snap, route, self.live, self.emitted));
    }
}

/// The ingest pipeline over `writers` shard-owning lanes.
///
/// Arrivals are routed to lanes by vessel shard, buffered per lane, and
/// processed in **epochs**: every `ingest_batch` arrivals the router
/// computes the due tick boundaries and runs all lanes to the current
/// watermark under the barrier protocol described in the
/// [module docs](self). Everything observable is writer-count
/// invariant.
///
/// ```
/// use mda_core::multi::MultiWriterPipeline;
/// use mda_core::PipelineConfig;
/// use mda_geo::{BoundingBox, Fix, Position, Timestamp};
///
/// let bounds = BoundingBox::new(42.0, 3.0, 44.0, 6.0);
/// let mut pipeline = MultiWriterPipeline::new(PipelineConfig::regional(bounds), 4);
/// let service = pipeline.query_service();
/// for i in 0..120i64 {
///     for v in 1..=8u32 {
///         let pos = Position::new(42.5 + 0.1 * f64::from(v), 5.0 + 0.002 * i as f64);
///         pipeline.push_fix(Fix::new(v, Timestamp::from_mins(i), pos, 10.0, 90.0));
///     }
/// }
/// pipeline.finish();
/// assert_eq!(service.fleet().value.archived_vessels, 8);
/// ```
pub struct MultiWriterPipeline {
    config: PipelineConfig,
    writers: usize,
    store_shards: usize,
    ingest_batch: usize,
    arrivals_since_flush: usize,
    watermark: BoundedOutOfOrderness,
    /// The late-drop frontier: the watermark as of the previous
    /// arrival. Arrivals at or behind it are dropped as late, exactly
    /// as a reorder buffer released at every arrival would. Starts at
    /// a recovered run's published watermark, so replays of data it
    /// already holds are dropped and the WAL mark discipline holds
    /// across restarts.
    drop_frontier: Timestamp,
    /// Watermark of the last epoch: every accepted observation with
    /// `t <=` this has been fully processed, so it is the
    /// content-correct stamp for catch-up publications.
    released_frontier: Timestamp,
    /// Distinct event times of accepted, not-yet-processed
    /// observations — the router's mirror of the lane buffers, driving
    /// the tick schedule with the globally sorted stream.
    pending_ts: BTreeSet<Timestamp>,
    ticks: TickSchedule,
    pub(crate) lanes: Vec<WriterLane>,
    store: SharedTrajectoryStore,
    /// Durable backing of the archive, when configured. Lanes log
    /// their fix batches through it; the phase-2 barrier leader seals
    /// and marks through it (every other lane parked — exactly the
    /// append quiescence a durable seal requires).
    durable: Option<Arc<DurableStore>>,
    query: Arc<QueryShared>,
    shared: Mutex<SharedState>,
    sink: AnalyticsSink,
    /// Router counters plus, after every epoch, the lanes' timings and
    /// the leader's gauges.
    pub(crate) report: PipelineReport,
    /// Arrival-side observation window of the adaptive controller
    /// (`None` when static). Lives on the router thread — the one
    /// thread that sees every arrival — so observing never takes a
    /// lock.
    arrivals: Option<ArrivalWindow>,
    /// The adaptive controller: absorbs the window and commits knob
    /// moves (watermark delay, seal cadence, event-ring capacity).
    pub(crate) control: Option<AdaptiveController>,
    /// The aligned frontier boundary of the last knob commit — the
    /// gate keeping the commit schedule one-per-boundary.
    last_control_commit: Timestamp,
    /// Test seam: `(lane, crossing)` at which that lane panics.
    inject: Option<(usize, u64)>,
}

impl MultiWriterPipeline {
    /// Build a pipeline with `writers` lanes (clamped to
    /// `1..=store_shards`). Zones for the event engine and the
    /// enricher come from `config.events.zones`.
    ///
    /// With [`PipelineConfig::durability`] set, the archive opens (or
    /// recovers) a [`DurableStore`] in the configured directory: a
    /// directory holding a previous run restores its cold segments,
    /// hot tier and published watermark before any new observation is
    /// accepted, and the first published stamp continues monotonically
    /// from the recovered one.
    ///
    /// # Panics
    ///
    /// Panics if more than one writer is asked for while
    /// `config.events.shards != config.store_shards` — lane ownership
    /// is defined over the one shared shard space
    /// ([`PipelineConfig::regional`] guarantees this). Panics if the
    /// durable data directory cannot be opened or recovered (I/O error
    /// or corrupt manifest) — a pipeline asked for durability must not
    /// silently run without it.
    pub fn new(config: PipelineConfig, writers: usize) -> Self {
        let store_shards = config.store_shards.max(1);
        let writers = writers.clamp(1, store_shards);
        assert!(
            writers == 1 || config.events.shards.max(1) == store_shards,
            "writer lanes need engine and store sharding aligned"
        );
        // The retention policy owns the live-state TTL so the detector
        // layer and the per-vessel maps (compressors, term cache) evict
        // together — but an explicitly customised `events.vessel_ttl`
        // wins over the retention default.
        let default_ttl = EngineConfig::default().vessel_ttl;
        let vessel_ttl = if config.events.vessel_ttl == default_ttl {
            config.retention.detector_ttl
        } else {
            config.events.vessel_ttl
        };
        let events_config = EngineConfig { vessel_ttl, ..config.events.clone() };
        let engine_shards = events_config.shards.max(1);
        // The archive is lock-striped by vessel hash; its per-shard
        // grid index is maintained at ingest time, and fixes older than
        // the retention hot horizon are sealed into compressed cold
        // segments as the watermark advances.
        let store_config = StoreConfig {
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
        };
        // A configured data directory is opened (or recovered) before
        // any lane exists, and the lanes share the durable store's
        // in-memory face.
        let (store, durable) = match &config.durability {
            Some(d) => {
                let durable = DurableStore::open(store_config, d)
                    .expect("open/recover the durable data directory");
                (durable.store().clone(), Some(Arc::new(durable)))
            }
            None => (SharedTrajectoryStore::with_config(store_config), None),
        };
        let durable_floor = durable.as_ref().map_or(Timestamp::MIN, |d| d.watermark());
        // Adaptive control: the static knobs seed the controller,
        // clamped into its bounds, and the clamped values are what
        // actually gets applied.
        let static_knobs = Knobs {
            delay: config.watermark_delay,
            seal_every: config.retention.seal_every,
            ring_capacity: config.query.event_capacity,
        };
        let control = config.adaptive.map(|ctl| AdaptiveController::new(ctl, static_knobs));
        let arrivals = config
            .adaptive
            .map(|ctl| ArrivalWindow::new(store_shards, ctl.fast_alpha, ctl.slow_alpha));
        let knobs0 = control.as_ref().map_or(static_knobs, |c| c.knobs());
        let route_net = RouteNetwork::new(config.bounds, config.model_cell_deg);
        // The serving layer starts on an empty snapshot stamped MIN, or
        // with a recovered run's watermark so stamps continue
        // monotonically.
        let published_route = Arc::new(RouteNetPredictor::new(route_net.clone()));
        let store_snapshot = store.snapshot(None);
        let query = Arc::new(QueryShared::new(
            knobs0.ring_capacity,
            SystemSnapshot::new(
                durable_floor,
                store_snapshot.clone(),
                Arc::clone(&published_route),
                0,
                0,
            ),
        ));
        let lanes = (0..writers)
            .map(|w| WriterLane {
                reorder: ReorderBuffer::new(),
                fuser: Fuser::new(config.fusion),
                engine: EngineLane::new(&events_config, w, writers),
                compressors: HashMap::new(),
                route_part: route_net.clone(),
                store: store.lane(w, writers),
                metrics: LaneMetrics::default(),
                processed: Vec::new(),
                kept: Vec::new(),
                boundaries_crossed: 0,
            })
            .collect();
        let shared = Mutex::new(SharedState {
            seals: SealSchedule::new(knobs0.seal_every, config.retention.hot_horizon),
            store_snapshot,
            published_route,
            ticks_since_refresh: 0,
            last_published: durable_floor,
            draining: false,
            has_readers: false,
            emitted: 0,
            live: 0,
            seal_sweeps: 0,
            detector_counts: HashMap::new(),
            evicted: Vec::new(),
            out: Vec::new(),
            scratch: EpochScratch {
                batch_events: (0..engine_shards).map(|_| Vec::new()).collect(),
                tick_events: (0..engine_shards).map(|_| Vec::new()).collect(),
                indexes: (0..engine_shards).map(|_| None).collect(),
                fleet: None,
                gone: (0..writers).map(|_| Vec::new()).collect(),
                gone_all: Arc::new(HashSet::new()),
                live_counts: vec![0; writers],
                route_parts: (0..writers).map(|_| None).collect(),
                publish: false,
                want_route: false,
            },
        });
        Self {
            writers,
            store_shards,
            ingest_batch: 256,
            arrivals_since_flush: 0,
            watermark: BoundedOutOfOrderness::new(knobs0.delay),
            drop_frontier: durable_floor,
            released_frontier: durable_floor,
            pending_ts: BTreeSet::new(),
            ticks: TickSchedule::new(config.tick_interval),
            lanes,
            store,
            durable,
            query,
            shared,
            sink: AnalyticsSink::new(&config),
            report: PipelineReport::default(),
            arrivals,
            control,
            last_control_commit: Timestamp::MIN,
            inject: None,
            config,
        }
    }

    /// Set how many arrivals the router buffers between epochs (min 1;
    /// default 256). Smaller batches publish stamps with less arrival
    /// lag; larger batches amortise the barrier.
    pub fn with_ingest_batch(mut self, arrivals: usize) -> Self {
        self.ingest_batch = arrivals.max(1);
        self
    }

    /// Attach a weather field for the semantic enrichment.
    pub fn with_weather(mut self, field: WeatherField) -> Self {
        self.sink.weather = Some(field);
        self
    }

    /// Number of writer lanes.
    pub fn writers(&self) -> usize {
        self.writers
    }

    /// Test seam: make lane `lane` panic just before it arrives at its
    /// `crossing`-th tick boundary (1-based). Exercises the barrier's
    /// abandon path; see `tests/multi_writer.rs`.
    pub fn inject_lane_panic(&mut self, lane: usize, crossing: u64) {
        self.inject = Some((lane, crossing));
    }

    /// Push one received AIS observation (arrival order). Returns the
    /// events finalised by the epoch this arrival completed (with
    /// epochs of many arrivals, usually none).
    pub fn push_ais(&mut self, obs: &AisObservation) -> Vec<MaritimeEvent> {
        let _t = StageTimer::new(&mut self.report.ingest);
        self.report.ais_messages += 1;
        match &obs.msg {
            AisMessage::StaticVoyage(sv) => {
                self.report.static_messages += 1;
                if !quality::validate_static(sv).is_clean() {
                    self.report.static_flagged += 1;
                }
                drop(_t);
                Vec::new()
            }
            msg => {
                let Some(fix) = msg.to_fix(obs.t_sent) else {
                    self.report.invalid_messages += 1;
                    drop(_t);
                    return Vec::new();
                };
                drop(_t);
                self.enqueue(fix.t, LaneItem::Ais(fix))
            }
        }
    }

    /// Push one already-decoded AIS position fix (arrival order) — the
    /// raw-fix ingest path for feeds that bypass AIVDM decoding.
    pub fn push_fix(&mut self, fix: Fix) -> Vec<MaritimeEvent> {
        self.enqueue(fix.t, LaneItem::Ais(fix))
    }

    /// Push a radar plot.
    pub fn push_radar(&mut self, plot: &RadarPlot) -> Vec<MaritimeEvent> {
        self.report.radar_plots += 1;
        self.enqueue(plot.t, LaneItem::Radar(*plot))
    }

    /// Push a VMS report.
    pub fn push_vms(&mut self, report: &VmsReport) -> Vec<MaritimeEvent> {
        self.report.vms_reports += 1;
        self.enqueue(report.t, LaneItem::Vms(*report))
    }

    /// Which lane an item belongs to. Identity-bearing items go by
    /// vessel shard (ownership); anonymous radar plots have no shard,
    /// so any deterministic function of their content will do — they
    /// only feed the owning lane's fuser.
    fn route(&self, item: &LaneItem) -> usize {
        let id = match item {
            LaneItem::Ais(fix) => fix.id,
            LaneItem::Vms(v) => v.id,
            LaneItem::Radar(plot) => {
                let mut h = plot.t.millis() as u64;
                h ^= plot.pos.lat.to_bits().rotate_left(17);
                h ^= plot.pos.lon.to_bits().rotate_left(43);
                return (h.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % self.writers;
            }
        };
        vessel_shard(id, self.store_shards) % self.writers
    }

    fn enqueue(&mut self, t: Timestamp, item: LaneItem) -> Vec<MaritimeEvent> {
        // Adaptive control observes every AIS arrival — including ones
        // about to be dropped as late, since lateness pressure is
        // exactly the signal — keyed by the *store* shard of the
        // vessel, which is writer-count invariant. Radar/VMS routing
        // depends on the writer layout, so those streams are not
        // observed: the controller's inputs must be a pure function of
        // the event-time stream.
        if let (Some(w), LaneItem::Ais(fix)) = (self.arrivals.as_mut(), &item) {
            w.observe(t, vessel_shard(fix.id, self.store_shards));
        }
        let lane = self.route(&item);
        {
            let _t = StageTimer::new(&mut self.report.reorder);
            if t <= self.drop_frontier && self.drop_frontier != Timestamp::MIN {
                self.report.dropped_late += 1;
                self.watermark.observe(t);
            } else {
                let wm = self.watermark.observe(t);
                self.drop_frontier = self.drop_frontier.max(wm);
                self.pending_ts.insert(t);
                let accepted = self.lanes[lane].reorder.push(t, item);
                debug_assert!(accepted, "router accepted an item its lane rejected");
            }
        }
        self.arrivals_since_flush += 1;
        if self.arrivals_since_flush < self.ingest_batch {
            return Vec::new();
        }
        self.arrivals_since_flush = 0;
        let wm = self.watermark.current();
        self.run_epoch(wm, false)
    }

    /// Release the mirror up to `wm` and fire the tick schedule with
    /// the released stream. Tick boundaries are aligned to
    /// `tick_interval` and a boundary `T` fires after exactly the
    /// observations with `t <= T`, so the whole tick/sweep/eviction
    /// schedule is a pure function of the event-time stream.
    fn due_boundaries(&mut self, wm: Timestamp, draining: bool) -> (Vec<Timestamp>, bool) {
        let mut any_released = false;
        let mut boundaries = Vec::new();
        while let Some(t) = self.pending_ts.first().copied().filter(|t| *t <= wm) {
            self.pending_ts.pop_first();
            any_released = true;
            while let Some(b) = self.ticks.before_observation(t) {
                boundaries.push(b);
            }
        }
        // Boundaries between the newest released item and the aligned
        // watermark: nothing at or before them can still be accepted.
        while let Some(b) = self.ticks.at_watermark(wm) {
            boundaries.push(b);
        }
        // End-of-stream: one trailing sweep at the final (unaligned)
        // watermark.
        if draining
            && self.ticks.anchored()
            && wm > self.ticks.last_boundary()
            && boundaries.last() != Some(&wm)
        {
            boundaries.push(wm);
        }
        (boundaries, any_released)
    }

    /// Frontier-clocked knob commit at the epoch start, before any
    /// lane runs: absorb the arrival window and retune once per aligned
    /// `tick_interval` boundary *of the arrival frontier*. The frontier
    /// — not the watermark — is the controller's clock: widening the
    /// delay by Δ stalls the watermark (and the next watermark-aligned
    /// boundary) for exactly Δ of frontier time, so a watermark-clocked
    /// schedule would black out control precisely while lateness is
    /// ramping. Epochs fire every `ingest_batch` arrivals, and the
    /// frontier, the hot backlog and the emitted count at an epoch
    /// start are pure functions of the event-time stream, so the
    /// committed trajectory is identical at any writer count.
    fn commit_control(&mut self) {
        let (Some(window), Some(ctl)) = (self.arrivals.as_mut(), self.control.as_mut()) else {
            return;
        };
        let Some(frontier) = self.watermark.frontier() else {
            return;
        };
        let tick = self.config.tick_interval.max(1);
        let aligned = Timestamp(frontier.millis().div_euclid(tick) * tick);
        if aligned <= self.last_control_commit {
            return;
        }
        self.last_control_commit = aligned;
        ctl.absorb(window);
        let knobs = ctl.commit(aligned, self.store.hot_len() as u64, self.report.events_emitted);
        // The watermark floor keeps the watermark monotone even when
        // the delay contracts.
        self.watermark.set_max_delay(knobs.delay);
        unshared(&mut self.shared).seals.set_every(knobs.seal_every);
        self.query.set_event_capacity(knobs.ring_capacity);
        self.report.record_control(ctl.gauges(), knobs);
    }

    fn run_epoch(&mut self, wm: Timestamp, draining: bool) -> Vec<MaritimeEvent> {
        self.commit_control();
        let (boundaries, any_released) = self.due_boundaries(wm, draining);
        if boundaries.is_empty() && !any_released {
            self.released_frontier = self.released_frontier.max(wm);
            return Vec::new();
        }
        unshared(&mut self.shared).has_readers = Arc::strong_count(&self.query) > 1;
        let shared = &self.shared;
        let store = &self.store;
        let durable = self.durable.as_deref();
        let query: &QueryShared = &self.query;
        let config = &self.config;
        let inject = self.inject;
        let boundaries = &boundaries[..];
        run_lanes(&mut self.lanes, move |w, lane, barrier| {
            let mut released = {
                let _t = StageTimer::new(&mut lane.metrics.reorder);
                lane.reorder.release(wm).into_iter().peekable()
            };
            for &b in boundaries {
                let interval = std::iter::from_fn(|| released.next_if(|(t, _)| *t <= b));
                process_interval(lane, interval, shared, durable, config);
                {
                    let mut s = lock(shared);
                    for (shard, idx) in lane.engine.index_clones() {
                        s.scratch.indexes[shard] = Some(idx);
                    }
                }
                lane.boundaries_crossed += 1;
                if inject == Some((w, lane.boundaries_crossed)) {
                    panic!("injected lane fault");
                }
                // Phase 1: the leader merges interval events and builds
                // the fleet view while every other lane stays parked.
                if barrier.wait() == LaneRole::Leader {
                    let mut s = lock(shared);
                    let events = merge_deposits(&mut s.scratch.batch_events);
                    s.emit(events, query);
                    let indexes: Vec<LiveIndex> = s
                        .scratch
                        .indexes
                        .iter_mut()
                        .map(|i| i.take().unwrap_or_default())
                        .collect();
                    s.scratch.fleet = Some(Arc::new(FleetIndex::snapshot(&indexes)));
                    s.plan_publish(b, config);
                    drop(s);
                    barrier.release();
                }
                let (fleet, want_route) = {
                    let s = lock(shared);
                    let fleet = Arc::clone(s.scratch.fleet.as_ref().expect("leader built fleet"));
                    (fleet, s.scratch.want_route)
                };
                let (per_shard, gone) = {
                    let _t = StageTimer::new(&mut lane.metrics.events);
                    lane.engine.sweep(b, &fleet)
                };
                // Dead vessels must not pin lane compressors.
                for id in &gone {
                    lane.compressors.remove(id);
                }
                {
                    let mut s = lock(shared);
                    for (shard, events) in per_shard {
                        s.scratch.tick_events[shard] = events;
                    }
                    s.scratch.gone[w] = gone;
                    s.scratch.live_counts[w] = lane.engine.live_count();
                    if want_route {
                        s.scratch.route_parts[w] = Some(lane.route_part.clone());
                    }
                }
                // Phase 2: the leader merges sweep results, seals, marks
                // and publishes the stamp `b`, all lanes parked.
                if barrier.wait() == LaneRole::Leader {
                    let mut guard = lock(shared);
                    let s = &mut *guard;
                    let events = merge_deposits(&mut s.scratch.tick_events);
                    s.emit(events, query);
                    let start = s.evicted.len();
                    for g in &mut s.scratch.gone {
                        s.evicted.append(g);
                    }
                    s.scratch.gone_all = Arc::new(s.evicted[start..].iter().copied().collect());
                    s.live = s.scratch.live_counts.iter().sum::<usize>() as u64;
                    // Seal rule: once per boundary, never in the drain.
                    // Durable seals persist the segments and rotate the
                    // WAL; every other lane is parked, so the store is
                    // append-quiescent.
                    let cut = if s.draining { None } else { s.seals.due(b) };
                    if let Some(cut) = cut {
                        match durable {
                            Some(d) => {
                                d.seal_before(cut).expect("persist seal sweep");
                            }
                            None => {
                                store.seal_before(cut);
                            }
                        }
                        s.seal_sweeps += 1;
                    }
                    // Record the durability boundary whether or not a
                    // snapshot is published: every lane has processed
                    // (and logged) exactly its data with `t <= b`, so
                    // durability never starves because nobody reads.
                    if let Some(d) = durable {
                        d.mark(b).expect("record durability mark");
                    }
                    if s.scratch.publish {
                        let route = s.scratch.want_route.then(|| {
                            let parts: Vec<RouteNetwork> =
                                s.scratch.route_parts.iter_mut().filter_map(Option::take).collect();
                            merge_routes(config, &parts)
                        });
                        s.publish(b, route, store, query);
                    }
                    drop(guard);
                    barrier.release();
                }
                let gone_all = Arc::clone(&lock(shared).scratch.gone_all);
                lane.engine.evict_pairs(&gone_all);
                lane.fuser.sweep(b);
            }
            // Tail interval: released data past the last boundary.
            process_interval(lane, released, shared, durable, config);
            if barrier.wait() == LaneRole::Leader {
                let mut s = lock(shared);
                let events = merge_deposits(&mut s.scratch.batch_events);
                s.emit(events, query);
                drop(s);
                barrier.release();
            }
        });
        self.released_frontier = self.released_frontier.max(wm);
        self.close_epoch()
    }

    /// Close an epoch on the router thread: feed the sink the lanes'
    /// fixes in canonical order, fold the lanes' timings and the
    /// leader's gauges into the report, and return the epoch's events.
    fn close_epoch(&mut self) -> Vec<MaritimeEvent> {
        let fixes =
            merge_canonical(self.lanes.iter_mut().map(|l| std::mem::take(&mut l.processed)));
        let kept = merge_canonical(self.lanes.iter_mut().map(|l| std::mem::take(&mut l.kept)));
        for lane in &mut self.lanes {
            lane.metrics.drain_into(&mut self.report);
        }
        self.sink.observe(&fixes, &kept, &mut self.report);
        let s = unshared(&mut self.shared);
        let r = &mut self.report;
        self.sink.forget(&s.evicted);
        r.evicted_vessels += s.evicted.len() as u64;
        s.evicted.clear();
        if r.events_emitted != s.emitted {
            r.events_emitted = s.emitted;
            r.record_detectors(&s.detector_counts);
        }
        r.live_vessels = s.live;
        let sealed = r.seal_sweeps != s.seal_sweeps;
        r.seal_sweeps = s.seal_sweeps;
        let out = std::mem::take(&mut s.out);
        if sealed {
            let stats = self.tier_stats();
            self.report.record_tiers(&stats);
        }
        out
    }

    /// Publish a catch-up snapshot at `wm` from the router thread
    /// (lanes idle), merging the lanes' route slices directly.
    fn publish_inline(&mut self, wm: Timestamp) {
        let s = unshared(&mut self.shared);
        s.has_readers = Arc::strong_count(&self.query) > 1;
        s.plan_publish(wm, &self.config);
        if s.scratch.publish {
            let route = s
                .scratch
                .want_route
                .then(|| merge_routes(&self.config, self.lanes.iter().map(|l| &l.route_part)));
            s.publish(wm, route, &self.store, &self.query);
        }
    }

    /// Drain everything buffered (end of stream); returns the remaining
    /// events.
    ///
    /// `finish` is terminal for the data plane: observations pushed
    /// afterwards are dropped as late (counted in `dropped_late`) —
    /// they can no longer be emitted in order. The published serving
    /// stamp runs ahead of the tick grid to the final watermark and
    /// never regresses.
    pub fn finish(&mut self) -> Vec<MaritimeEvent> {
        // `now` is the maximum event time seen (watermark + delay),
        // independent of arrival order. The *current* delay, not the
        // configured one — adaptive control may have retuned it.
        let wm = self.watermark.current();
        let now = wm.saturating_add(self.watermark.max_delay());
        self.drop_frontier = Timestamp::MAX;
        // Close the open epoch first, so that at every epoch size the
        // boundaries up to the watermark run (and seal) as regular ones
        // and the drain covers exactly what lies past the watermark.
        let mut events = self.run_epoch(wm, false);
        unshared(&mut self.shared).draining = true;
        events.extend(self.run_epoch(now, true));
        // End-of-stream publication (dedupes against a trailing tick).
        self.publish_inline(now);
        unshared(&mut self.shared).draining = false;
        self.arrivals_since_flush = 0;
        // Leave the tier counters fresh for whoever reads the report.
        let stats = self.tier_stats();
        self.report.record_tiers(&stats);
        events
    }

    /// Run a whole simulated scenario (AIS + radar + VMS merged by
    /// arrival time). Returns all recognised events.
    pub fn run_scenario(&mut self, sim: &SimOutput) -> Vec<MaritimeEvent> {
        enum Arrival<'a> {
            Ais(&'a AisObservation),
            Radar(&'a RadarPlot),
            Vms(&'a VmsReport),
        }
        let mut merged: Vec<(Timestamp, Arrival)> =
            Vec::with_capacity(sim.ais.len() + sim.radar.len() + sim.vms.len());
        merged.extend(sim.ais.iter().map(|o| (o.t_received, Arrival::Ais(o))));
        merged.extend(sim.radar.iter().map(|p| (p.t, Arrival::Radar(p))));
        merged.extend(sim.vms.iter().map(|v| (v.t, Arrival::Vms(v))));
        merged.sort_by_key(|(t, _)| *t);

        let mut events = Vec::new();
        for (_, item) in merged {
            match item {
                Arrival::Ais(o) => events.extend(self.push_ais(o)),
                Arrival::Radar(p) => events.extend(self.push_radar(p)),
                Arrival::Vms(v) => events.extend(self.push_vms(v)),
            }
        }
        events.extend(self.finish());
        events
    }

    /// A cloneable, thread-safe read front-end over this pipeline.
    ///
    /// Hand clones to as many reader threads as you like: they serve
    /// point/window/kNN/predictive queries and event subscriptions
    /// against consistent watermark-stamped snapshots, published at
    /// every tick boundary, while this pipeline keeps ingesting. See
    /// [`QueryService`] for the vocabulary and the isolation contract.
    ///
    /// Publication is skipped while no handle exists (write-only
    /// pipelines pay nothing), so a new handle is caught up to the
    /// released frontier: the stamp at which every accepted
    /// observation has been processed.
    ///
    /// ```
    /// use mda_core::{MaritimePipeline, PipelineConfig};
    /// use mda_geo::{BoundingBox, Fix, Position, Timestamp};
    ///
    /// let bounds = BoundingBox::new(42.0, 3.0, 44.0, 6.0);
    /// let mut pipeline = MaritimePipeline::new(PipelineConfig::regional(bounds));
    /// let service = pipeline.query_service();
    /// let reader = std::thread::spawn({
    ///     let service = service.clone();
    ///     move || service.fleet().watermark
    /// });
    /// reader.join().unwrap();
    /// for i in 0..60i64 {
    ///     let pos = Position::new(43.0, 5.0 + 0.002 * i as f64);
    ///     pipeline.push_fix(Fix::new(1, Timestamp::from_mins(i), pos, 10.0, 90.0));
    /// }
    /// pipeline.finish();
    /// assert!(service.latest(1).value.is_some());
    /// ```
    pub fn query_service(&mut self) -> QueryService {
        let service = QueryService::new(Arc::clone(&self.query));
        self.publish_inline(self.released_frontier);
        service
    }

    /// The pipeline report: counters, gauges and stage timings summed
    /// across lanes. Counters and gauges are writer-count invariant;
    /// timing sums are not (they add busy time across lanes). Tier
    /// counters are refreshed at every seal sweep and at `finish`.
    pub fn report(&self) -> PipelineReport {
        self.report.clone()
    }

    /// The adaptive controller's committed knob trajectory —
    /// `(boundary, knobs)` per commit, in boundary order. Empty for a
    /// pipeline running static knobs. Identical arrival streams produce
    /// identical traces at any writer count: every controller input is
    /// a writer-count-invariant function of the event-time stream.
    pub fn control_trace(&self) -> Vec<(Timestamp, Knobs)> {
        self.control.as_ref().map_or_else(Vec::new, |c| c.trace().to_vec())
    }

    /// The archival (synopsis) store, shared with all lane handles.
    pub fn store(&self) -> &SharedTrajectoryStore {
        &self.store
    }

    /// Per-tier archive accounting: hot/cold fix counts, approximate
    /// bytes and segment count, fresh from the store. With durability
    /// configured, `disk_bytes` reports the real on-disk footprint
    /// (segment files + WAL + manifest); otherwise it is zero.
    pub fn tier_stats(&self) -> mda_store::TierStats {
        match &self.durable {
            Some(d) => d.tier_stats(),
            None => self.store.tier_stats(),
        }
    }

    /// The durable backing store, when durability is configured — for
    /// inspecting the [`mda_store::RecoveryReport`] or the durable
    /// watermark.
    pub fn durable(&self) -> Option<&DurableStore> {
        self.durable.as_deref()
    }

    /// Archived fixes inside a spatial window and time range, served by
    /// the store's incrementally-maintained per-shard grid indexes for
    /// the hot tier and fence-filtered segment decodes for the cold
    /// tier.
    pub fn archive_window(
        &self,
        area: &mda_geo::BoundingBox,
        from: Timestamp,
        to: Timestamp,
    ) -> Vec<Fix> {
        self.store.window(area, from, to)
    }

    /// Bulk-load historical fixes into the archive with `workers` ingest
    /// threads routed shard-affine: each worker exclusively owns a set
    /// of store shards, so workers never contend on a shard lock. Fixes
    /// bypass the streaming stages (no compression, events or model
    /// learning) — this is the archive backfill path. Per-vessel input
    /// order is preserved. Returns the number of fixes loaded.
    pub fn backfill_archive(&self, fixes: Vec<Fix>, workers: usize) -> usize {
        let n = fixes.len();
        let shards = self.store.shard_count();
        mda_stream::runner::run_shard_affine(
            fixes,
            workers.max(1),
            shards,
            |f: &Fix| self.store.shard_of(f.id),
            || {
                let store = self.store.clone();
                let durable = self.durable.clone();
                move |batch: Vec<Fix>| {
                    if let Some(d) = &durable {
                        d.log_batch(&batch).expect("write-ahead-log backfill batch");
                    }
                    store.append_batch(batch);
                    Vec::<()>::new()
                }
            },
        );
        n
    }

    /// Snapshot kNN over the live fleet.
    pub fn knn(&self, query: Position, t: Timestamp, k: usize) -> Vec<mda_store::knn::KnnResult> {
        self.sink.knn.knn(query, t, k)
    }

    /// The live knowledge graph and its interner.
    pub fn graph(&self) -> (&TripleStore, &Interner) {
        (&self.sink.graph, &self.sink.interner)
    }

    /// A predictor over the route network learned so far.
    pub fn route_predictor(&self) -> RouteNetPredictor {
        RouteNetPredictor::new(merge_routes(&self.config, self.lanes.iter().map(|l| &l.route_part)))
    }

    /// The learned normalcy model.
    pub fn normalcy(&self) -> &NormalcyModel {
        &self.sink.normalcy
    }

    /// The traffic-density raster accumulated so far.
    pub fn raster(&self) -> &DensityRaster {
        &self.sink.raster
    }

    /// Overall synopsis compression ratio across vessels.
    pub fn compression_ratio(&self) -> f64 {
        // lint:allow(deterministic-iteration): commutative sum over
        // per-vessel counters; the fold result is order-free.
        let (seen, kept) = self.lanes.iter().flat_map(|l| l.compressors.values()).fold(
            (0u64, 0u64),
            |(s, k), c| {
                let (cs, ck) = c.counts();
                (s + cs, k + ck)
            },
        );
        if seen == 0 {
            0.0
        } else {
            1.0 - kept as f64 / seen as f64
        }
    }

    /// Current event-time watermark.
    pub fn watermark(&self) -> Timestamp {
        self.watermark.current()
    }
}

/// Process one lane's released items up to a boundary (or the end of
/// the release) as one canonical batch: fuse, recognise, compress,
/// archive, learn. Per-shard detector events are deposited into the
/// epoch scratch; the fixes are kept for the sink.
fn process_interval(
    lane: &mut WriterLane,
    items: impl Iterator<Item = (Timestamp, LaneItem)>,
    shared: &Mutex<SharedState>,
    durable: Option<&DurableStore>,
    config: &PipelineConfig,
) {
    let mut fixes: Vec<Fix> = Vec::new();
    let mut sensors: Vec<SensorReport> = Vec::new();
    for (_, item) in items {
        let (kind, t, pos, claimed_id) = match item {
            LaneItem::Ais(fix) => {
                fixes.push(fix);
                continue;
            }
            LaneItem::Radar(plot) => (SensorKind::Radar, plot.t, plot.pos, None),
            LaneItem::Vms(v) => (SensorKind::Vms, v.t, v.pos, Some(v.id)),
        };
        sensors.push(SensorReport {
            kind,
            t,
            pos,
            claimed_id,
            sog_kn: None,
            cog_deg: None,
            accuracy_m: None,
        });
    }
    if fixes.is_empty() && sensors.is_empty() {
        return;
    }
    // Canonical content order: the synopsis and archive paths see
    // same-timestamp duplicates in a content order too, so no arrival
    // shuffle within the watermark delay changes which fix a
    // compressor keeps. A lane subset sorted by the same total order
    // yields the same per-shard subsequences a global sort would.
    canonical_sort(&mut fixes);
    {
        // Fixes and sensor reports reach the fuser in event-time order,
        // fixes first at equal times.
        let _t = StageTimer::new(&mut lane.metrics.fusion);
        let mut sensors = sensors.iter().peekable();
        for fix in &fixes {
            while let Some(report) = sensors.next_if(|r| r.t < fix.t) {
                lane.fuser.ingest(report);
            }
            lane.fuser.ingest(&SensorReport::from_fix(SensorKind::AisTerrestrial, fix));
        }
        for report in sensors {
            lane.fuser.ingest(report);
        }
    }
    if fixes.is_empty() {
        return;
    }
    let per_shard = {
        let _t = StageTimer::new(&mut lane.metrics.events);
        lane.engine.observe_sorted(&fixes)
    };
    let mut kept_batch: Vec<Fix> = Vec::new();
    for &fix in &fixes {
        let kept = {
            let _t = StageTimer::new(&mut lane.metrics.synopses);
            lane.compressors
                .entry(fix.id)
                .or_insert_with(|| ThresholdCompressor::new(config.synopsis))
                .observe(fix)
        };
        {
            let _t = StageTimer::new(&mut lane.metrics.analytics);
            lane.route_part.learn(&fix);
        }
        kept_batch.extend(kept);
    }
    lane.processed.extend_from_slice(&fixes);
    // One batched store append: one writer-lock acquisition per touched
    // shard and one amortised per-vessel merge, instead of a per-fix
    // lock + sorted insert.
    if !kept_batch.is_empty() {
        let _t = StageTimer::new(&mut lane.metrics.storage);
        lane.store.append_batch(kept_batch.iter().copied());
    }
    // One WAL record per lane batch, before the lane reaches the next
    // barrier: the leader's mark for any boundary covering these fixes
    // fires behind that barrier, so the log never trails a durable
    // mark. (The WAL writer serializes concurrent lanes internally.)
    if let Some(d) = durable {
        let _t = StageTimer::new(&mut lane.metrics.storage);
        d.log_batch(&kept_batch).expect("write-ahead-log lane batch");
    }
    lane.kept.extend(kept_batch);
    if per_shard.iter().any(|(_, events)| !events.is_empty()) {
        let mut s = lock(shared);
        for (shard, events) in per_shard {
            s.scratch.batch_events[shard].extend(events);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mda_geo::{BoundingBox, Position};

    fn bounds() -> BoundingBox {
        BoundingBox::new(42.0, 3.0, 44.0, 6.5)
    }

    /// A small mixed fleet with enough structure to light up several
    /// detectors and the seal schedule.
    fn drive(pipeline: &mut MultiWriterPipeline) -> Vec<MaritimeEvent> {
        let mut events = Vec::new();
        for i in 0..240i64 {
            let t = Timestamp::from_mins(i);
            for v in 1..=12u32 {
                // Every 4th vessel goes dark after 2 h.
                if v % 4 == 0 && i >= 120 {
                    continue;
                }
                let lat = 42.3 + 0.12 * f64::from(v);
                let pos = Position::new(lat, 4.0 + 0.004 * i as f64);
                events.extend(pipeline.push_fix(Fix::new(v, t, pos, 11.0, 90.0)));
            }
        }
        events.extend(pipeline.finish());
        events
    }

    #[test]
    fn writer_count_is_clamped_to_shards() {
        let config = PipelineConfig::regional(bounds());
        let shards = config.store_shards;
        let p = MultiWriterPipeline::new(config, 64);
        assert_eq!(p.writers(), shards);
        let p = MultiWriterPipeline::new(PipelineConfig::regional(bounds()), 0);
        assert_eq!(p.writers(), 1);
    }

    #[test]
    fn single_and_multi_writer_reports_agree() {
        let mut one =
            MultiWriterPipeline::new(PipelineConfig::regional(bounds()), 1).with_ingest_batch(64);
        let mut four =
            MultiWriterPipeline::new(PipelineConfig::regional(bounds()), 4).with_ingest_batch(64);
        let e1 = drive(&mut one);
        let e4 = drive(&mut four);
        assert_eq!(e1, e4, "event streams must be writer-count invariant");
        let (r1, r4) = (one.report(), four.report());
        assert_eq!(r1.events_emitted, r4.events_emitted);
        assert!(r1.events_emitted > 0, "scenario should emit events");
        assert_eq!(r1.detector_counts, r4.detector_counts);
        assert_eq!(r1.live_vessels, r4.live_vessels);
        assert_eq!(r1.evicted_vessels, r4.evicted_vessels);
        assert!(r1.evicted_vessels > 0, "dark vessels should age out");
        assert_eq!(r1.seal_sweeps, r4.seal_sweeps);
        assert!(r1.seal_sweeps > 0, "4 h of data crosses seal boundaries");
        assert_eq!(r1.hot_fixes, r4.hot_fixes);
        assert_eq!(r1.cold_fixes, r4.cold_fixes);
        assert_eq!(r1.cold_segments, r4.cold_segments);
        assert_eq!(r1.dropped_late, r4.dropped_late);
        assert_eq!(r1.ais_messages, r4.ais_messages);
        // Stage timings aggregate across lanes: every stage that ran
        // shows up with calls.
        assert!(r4.events.calls > 0 && r4.synopses.calls > 0 && r4.storage.calls > 0);
    }

    #[test]
    fn archives_match_across_writer_counts() {
        let mut one =
            MultiWriterPipeline::new(PipelineConfig::regional(bounds()), 1).with_ingest_batch(32);
        let mut eight =
            MultiWriterPipeline::new(PipelineConfig::regional(bounds()), 8).with_ingest_batch(32);
        drive(&mut one);
        drive(&mut eight);
        assert_eq!(one.store().len(), eight.store().len());
        for v in 1..=12u32 {
            assert_eq!(
                one.store().trajectory(v),
                eight.store().trajectory(v),
                "vessel {v} archive must be writer-count invariant"
            );
        }
    }

    #[test]
    fn late_arrivals_drop_like_the_single_writer() {
        let mut p =
            MultiWriterPipeline::new(PipelineConfig::regional(bounds()), 2).with_ingest_batch(8);
        let delay = p.config.watermark_delay;
        for i in 0..60i64 {
            p.push_fix(Fix::new(1, Timestamp::from_mins(i), Position::new(43.0, 5.0), 9.0, 90.0));
        }
        // Far behind the watermark: must be counted, not processed.
        let stale = Timestamp::from_mins(59).saturating_add(-delay - 1);
        p.push_fix(Fix::new(2, stale, Position::new(43.0, 5.0), 9.0, 90.0));
        p.finish();
        assert_eq!(p.report().dropped_late, 1);
        assert!(p.store().trajectory(2).is_none(), "late vessel never archived");
    }

    #[test]
    fn adaptive_knob_trajectory_is_writer_count_invariant() {
        let traces: Vec<_> = [1usize, 2, 4, 8]
            .iter()
            .map(|&w| {
                let mut p = MultiWriterPipeline::new(PipelineConfig::adaptive(bounds()), w)
                    .with_ingest_batch(32);
                drive(&mut p);
                p.control_trace()
            })
            .collect();
        assert!(!traces[0].is_empty(), "the scenario must commit knob moves");
        for (i, t) in traces.iter().enumerate().skip(1) {
            assert_eq!(
                &traces[0],
                t,
                "knob trajectory at {} writers diverged from 1 writer",
                [1, 2, 4, 8][i]
            );
        }
        // Events, archive and reports stay writer-count invariant with
        // the controller retuning live knobs mid-run.
        let mut one =
            MultiWriterPipeline::new(PipelineConfig::adaptive(bounds()), 1).with_ingest_batch(32);
        let mut eight =
            MultiWriterPipeline::new(PipelineConfig::adaptive(bounds()), 8).with_ingest_batch(32);
        let e1 = drive(&mut one);
        let e8 = drive(&mut eight);
        assert_eq!(e1, e8, "adaptive event streams must be writer-count invariant");
        assert_eq!(one.store().len(), eight.store().len());
        let (r1, r8) = (one.report(), eight.report());
        assert_eq!(r1.seal_sweeps, r8.seal_sweeps);
        assert_eq!(r1.control, r8.control);
        assert!(r1.control.is_some(), "adaptive run must record control status");
    }

    #[test]
    fn catch_up_publication_stamps_the_released_frontier() {
        let mut p =
            MultiWriterPipeline::new(PipelineConfig::regional(bounds()), 4).with_ingest_batch(16);
        for i in 0..120i64 {
            for v in 1..=4u32 {
                let pos = Position::new(42.5 + 0.2 * f64::from(v), 5.0 + 0.002 * i as f64);
                p.push_fix(Fix::new(v, Timestamp::from_mins(i), pos, 10.0, 90.0));
            }
        }
        // Handle created mid-stream: stamped at the released frontier,
        // where snapshot contents are complete.
        let service = p.query_service();
        let stamp = service.watermark();
        assert_eq!(stamp, p.released_frontier);
        let snap = service.snapshot();
        for v in 1..=4u32 {
            if let Some(traj) = snap.trajectory(v).value {
                assert!(traj.iter().all(|f| f.t <= stamp), "no future data behind the stamp");
            }
        }
        p.finish();
        assert!(service.watermark() > stamp, "finish publishes the final stamp");
    }
}

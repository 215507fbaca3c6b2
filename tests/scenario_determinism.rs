//! End-to-end determinism: the simulator → streaming pipeline → event
//! engine chain must be a pure function of the scenario seed.
//!
//! This locks the concurrency refactors (sharded store, shard-affine
//! ingest, sharded event engine, multi-writer lanes) down against
//! nondeterminism: two identical runs must produce identical event
//! sets, identical archives, parallel backfill must be agnostic to the
//! worker count, the event layer must emit identically for any
//! detector shard count, and the multi-writer pipeline must be exactly
//! invariant in the writer count (and agree with the classic
//! single-writer frontend).

use maritime::core::{MaritimePipeline, MultiWriterPipeline, PipelineConfig};
use maritime::events::event::MaritimeEvent;
use maritime::geo::time::HOUR;
use maritime::geo::Fix;
use maritime::sim::{Scenario, ScenarioConfig, SimOutput};

fn build_pipeline(sim: &SimOutput) -> MaritimePipeline {
    let mut config = PipelineConfig::regional(sim.world.bounds);
    config.events.zones = maritime::zones_of_world(&sim.world);
    MaritimePipeline::new(config).with_weather(sim.weather.clone())
}

/// One full run: scenario generation, pipeline, event recognition.
/// Returns the recognised events plus an archive fingerprint.
fn run_once(seed: u64) -> (Vec<MaritimeEvent>, usize, Vec<(u32, usize)>) {
    let sim = Scenario::generate(ScenarioConfig::regional(seed, 20, 2 * HOUR));
    let mut pipeline = build_pipeline(&sim);
    let events = pipeline.run_scenario(&sim);
    let store = pipeline.store();
    let per_vessel: Vec<(u32, usize)> =
        store.vessels().iter().map(|&id| (id, store.trajectory(id).unwrap().len())).collect();
    (events, store.len(), per_vessel)
}

#[test]
fn same_seed_same_events_and_archive() {
    let (events_a, len_a, vessels_a) = run_once(11);
    let (events_b, len_b, vessels_b) = run_once(11);
    assert!(!events_a.is_empty(), "scenario must produce events");
    assert_eq!(events_a, events_b, "event sets diverged between identical runs");
    assert_eq!(len_a, len_b);
    assert_eq!(vessels_a, vessels_b);
}

#[test]
fn different_seeds_differ() {
    // Sanity check that the fingerprint is actually sensitive.
    let (events_a, _, _) = run_once(11);
    let (events_b, _, _) = run_once(12);
    assert_ne!(events_a, events_b, "distinct seeds should not collide");
}

#[test]
fn scenario_generation_is_seed_pure() {
    let a = Scenario::generate(ScenarioConfig::regional(31, 15, HOUR));
    let b = Scenario::generate(ScenarioConfig::regional(31, 15, HOUR));
    assert_eq!(a.ais.len(), b.ais.len());
    assert_eq!(a.radar.len(), b.radar.len());
    assert_eq!(a.vms.len(), b.vms.len());
    assert!(a
        .ais
        .iter()
        .zip(&b.ais)
        .all(|(x, y)| x.t_sent == y.t_sent && x.t_received == y.t_received));
}

#[test]
fn event_layer_is_shard_count_invariant() {
    // The sharded engine merges per-shard emission with a stable
    // (t, vessel, kind) sort, so the *exact* event sequence — not just
    // the multiset — must be independent of the detector shard count.
    let sim = Scenario::generate(ScenarioConfig::regional(23, 20, 2 * HOUR));
    let run = |shards: usize| {
        let mut config = PipelineConfig::regional(sim.world.bounds);
        config.events.zones = maritime::zones_of_world(&sim.world);
        config.events.shards = shards;
        let mut pipeline = MaritimePipeline::new(config).with_weather(sim.weather.clone());
        pipeline.run_scenario(&sim)
    };
    let reference = run(1);
    assert!(!reference.is_empty(), "scenario must produce events");
    for shards in [2usize, 4, 8] {
        assert_eq!(run(shards), reference, "{shards} detector shards diverged");
    }
}

#[test]
fn multi_writer_ingest_is_writer_count_invariant() {
    // Writer lanes + tick barrier: the whole observable output of the
    // multi-writer pipeline — event sequence, archive, counters — must
    // be *exactly* invariant in the writer count, and must agree with
    // the classic single-writer pipeline (event multiset + archive;
    // only release batching, and therefore emission order, differs
    // between the two frontends).
    let sim = Scenario::generate(ScenarioConfig::regional(23, 20, 2 * HOUR));
    let multi_config = || {
        let mut config = PipelineConfig::regional(sim.world.bounds);
        config.events.zones = maritime::zones_of_world(&sim.world);
        config
    };
    let run = |writers: usize| {
        let mut pipeline = MultiWriterPipeline::new(multi_config(), writers).with_ingest_batch(128);
        let events = pipeline.run_scenario(&sim);
        let store = pipeline.store();
        let per_vessel: Vec<(u32, Option<Vec<Fix>>)> =
            store.vessels().iter().map(|&id| (id, store.trajectory(id))).collect();
        let report = pipeline.report();
        (
            events,
            store.len(),
            per_vessel,
            report.events_emitted,
            report.detector_counts,
            report.evicted_vessels,
            report.seal_sweeps,
            report.dropped_late,
        )
    };
    let reference = run(1);
    assert!(!reference.0.is_empty(), "scenario must produce events");
    for writers in [2usize, 4, 8] {
        assert_eq!(run(writers), reference, "{writers} writer lanes diverged");
    }

    // Cross-check the classic frontend over the same scenario.
    let mut classic = build_pipeline(&sim);
    let classic_events = classic.run_scenario(&sim);
    let canon = |mut events: Vec<MaritimeEvent>| {
        events.sort_by(|a, b| {
            a.sort_key().cmp(&b.sort_key()).then_with(|| format!("{a:?}").cmp(&format!("{b:?}")))
        });
        events
    };
    assert_eq!(
        canon(reference.0.clone()),
        canon(classic_events),
        "multi-writer event multiset diverged from the classic pipeline"
    );
    let classic_store = classic.store();
    assert_eq!(reference.1, classic_store.len(), "archive size diverged from classic");
    // Archives are exactly equal, positions included: both frontends
    // cut canonical fix batches only at tick boundaries and release
    // ends, so same-timestamp duplicates resolve identically.
    for (id, trajectory) in &reference.2 {
        assert_eq!(
            trajectory.as_ref(),
            classic_store.trajectory(*id).as_ref(),
            "vessel {id} archive diverged from classic"
        );
    }
}

#[test]
fn detector_ttl_evicts_dead_vessel_state() {
    // A dark-heavy scenario with an aggressive TTL: vessels that stay
    // silent past the TTL must be dropped from live detector state
    // (and counted), while the archive keeps their history.
    let sim = Scenario::generate(ScenarioConfig::regional(29, 20, 3 * HOUR));
    let mut config = PipelineConfig::regional(sim.world.bounds);
    config.events.zones = maritime::zones_of_world(&sim.world);
    config.retention.detector_ttl = 20 * maritime::geo::time::MINUTE;
    let mut pipeline = MaritimePipeline::new(config).with_weather(sim.weather.clone());
    pipeline.run_scenario(&sim);
    let report = pipeline.report();
    assert!(report.evicted_vessels > 0, "27% dark ships over 3 h must trip a 20-min TTL");
    let stats = pipeline.engine().state_stats();
    assert!(
        stats.live_vessels as u64 + report.evicted_vessels >= 20,
        "every vessel is either live or was evicted at least once"
    );
    // Eviction is about *live* state only: archived trajectories stay.
    assert!(!pipeline.store().is_empty());
}

#[test]
fn parallel_backfill_is_worker_count_agnostic() {
    let sim = Scenario::generate(ScenarioConfig::regional_honest(47, 20, 2 * HOUR));
    let fixes: Vec<Fix> = sim.ais.iter().filter_map(|o| o.msg.to_fix(o.t_sent)).collect();
    assert!(fixes.len() > 1_000);

    let fingerprint = |p: &MaritimePipeline| {
        let store = p.store();
        (
            store.len(),
            store.vessels(),
            store.vessels().iter().map(|&v| store.trajectory(v)).collect::<Vec<_>>(),
        )
    };

    let reference = build_pipeline(&sim);
    reference.backfill_archive(fixes.clone(), 1);
    for workers in [2usize, 4, 8] {
        let p = build_pipeline(&sim);
        p.backfill_archive(fixes.clone(), workers);
        assert_eq!(fingerprint(&p), fingerprint(&reference), "{workers} workers diverged");
    }
}

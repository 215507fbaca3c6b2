//! The post-release analytics sink: the operator-console models fed
//! the canonical fix stream once per ingest epoch.
//!
//! Writer lanes hand over every processed fix and every synopsis fix
//! their compressors released. The sink sees each list in one canonical
//! order — the k-way merge of the lanes' canonically sorted lists by
//! [`mda_events::canonical_sort`]'s key — so its state is identical at
//! every writer count. With one lane the order is the lane's own batch
//! order.

use crate::config::PipelineConfig;
use crate::report::{PipelineReport, StageTimer};
use mda_forecast::normalcy::NormalcyModel;
use mda_geo::{Fix, VesselId};
use mda_semantics::enrich::Enricher;
use mda_semantics::store::TripleStore;
use mda_semantics::term::{Interner, TermId};
use mda_sim::weather::WeatherField;
use mda_store::knn::KnnEngine;
use mda_viz::raster::DensityRaster;
use std::collections::HashMap;

/// Density raster, live kNN, normalcy model and the semantic graph
/// with its weather enrichment.
pub(crate) struct AnalyticsSink {
    pub(crate) raster: DensityRaster,
    pub(crate) knn: KnnEngine,
    pub(crate) normalcy: NormalcyModel,
    pub(crate) interner: Interner,
    pub(crate) graph: TripleStore,
    enricher: Enricher,
    /// Term cache per live vessel; TTL evictions drop entries
    /// (re-interning a returning vessel yields the same term id).
    vessel_terms: HashMap<VesselId, TermId>,
    pub(crate) weather: Option<WeatherField>,
}

impl AnalyticsSink {
    pub(crate) fn new(config: &PipelineConfig) -> Self {
        let mut interner = Interner::new();
        let zones = config.events.zones.iter().map(|z| (z.name.clone(), z.area.clone())).collect();
        let enricher = Enricher::new(&mut interner, zones);
        let (rows, cols) = config.raster_shape;
        Self {
            raster: DensityRaster::new(config.bounds, rows, cols),
            // The kNN horizon covers the watermark lag plus a coasting
            // margin, so queries anywhere in the freshness band still
            // see the fleet. Under adaptive control the lag can grow
            // to the delay clamp ceiling, so the horizon covers that.
            knn: KnnEngine::new(
                0.05,
                config.adaptive.map_or(config.watermark_delay, |c| c.delay_bounds.1)
                    + 15 * mda_geo::time::MINUTE,
            ),
            normalcy: NormalcyModel::new(config.bounds, config.model_cell_deg),
            interner,
            graph: TripleStore::new(),
            enricher,
            vessel_terms: HashMap::new(),
            weather: None,
        }
    }

    /// Feed one epoch's fixes and the synopsis fixes they released,
    /// each list in canonical order.
    pub(crate) fn observe(&mut self, fixes: &[Fix], kept: &[Fix], report: &mut PipelineReport) {
        if !fixes.is_empty() {
            let _t = StageTimer::new(&mut report.analytics);
            for fix in fixes {
                self.raster.add(fix.pos);
                self.knn.update(*fix);
                self.normalcy.learn(fix);
            }
        }
        if !kept.is_empty() {
            let _t = StageTimer::new(&mut report.storage);
            for fix in kept {
                let wind = self.weather.as_ref().map_or(5.0, |w| w.sample(fix.pos, fix.t).wind_mps);
                let interner = &mut self.interner;
                let term = *self
                    .vessel_terms
                    .entry(fix.id)
                    .or_insert_with(|| interner.intern(&format!(":vessel/{}", fix.id)));
                self.enricher.enrich(&mut self.graph, term, fix, wind);
            }
        }
    }

    /// Drop the term cache entries of TTL-evicted vessels.
    pub(crate) fn forget(&mut self, gone: &[VesselId]) {
        for id in gone {
            self.vessel_terms.remove(id);
        }
    }
}

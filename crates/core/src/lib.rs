//! The integrated maritime information infrastructure (paper Figure 2).
//!
//! This crate wires every substrate into the architecture the paper
//! sketches: in-situ processing of streaming data, trajectory
//! reconstruction and synopses, multi-source fusion, complex event
//! recognition, semantic enrichment, forecasting, archival storage, and
//! decision support with explicit uncertainty.
//!
//! ```text
//!  AIS/radar/VMS ─▶ validate ─▶ reorder (watermarks) ─▶ fuse ─▶ events
//!                      │             │                    │       │
//!                      ▼             ▼                    ▼       ▼
//!                   quality      synopses ─▶ archive   forecast  alerts
//!                   metrics      enrichment ─▶ knowledge graph    │
//!                                                                 ▼
//!                                                       operator picture
//! ```
//!
//! - [`config`] — one configuration struct for the whole pipeline.
//! - [`pipeline`] — [`pipeline::MaritimePipeline`]: push observations
//!   in arrival order, get events and an updated picture out.
//! - [`multi`] — [`multi::MultiWriterPipeline`]: the same contract
//!   over N shard-owning writer lanes synchronised by a tick-boundary
//!   barrier; everything observable is writer-count invariant.
//! - [`query`] — the serving layer: [`query::QueryService`], a
//!   cloneable read front-end answering point/window/kNN/predictive
//!   queries and event subscriptions from consistent watermark-stamped
//!   snapshots while ingest runs.
//! - [`decision`] — decision support (paper §4): severity filtering,
//!   explanation strings, interval-valued confidence, and the
//!   [`decision::OperatorPicture`].
//! - [`report`] — the per-stage metrics the E2 experiment prints.

pub mod config;
pub mod decision;
pub mod multi;
pub mod pipeline;
pub mod query;
pub mod report;
mod sink;

pub use config::{PipelineConfig, QueryConfig, RetentionPolicy};
pub use decision::{Alert, DecisionSupport, OperatorPicture};
pub use multi::MultiWriterPipeline;
pub use pipeline::MaritimePipeline;
pub use query::{FleetSummary, PredictedPosition, QueryService, Stamped, SystemSnapshot};
pub use report::PipelineReport;

//! Shared machinery: seeded inputs, AIVDM decode, the pipeline
//! configuration, the span/count tracer and the statistics helpers.

use mda_ais::messages::AisMessage;
use mda_ais::nmea::{parse_sentence, SentenceAssembler};
use mda_core::PipelineConfig;
use mda_events::zone::NamedZone;
use mda_geo::Timestamp;
use mda_sim::corruption::CorruptionLabel;
use mda_sim::receivers::{RadarPlot, VmsReport};
use mda_sim::scenario::{AisObservation, Scenario, ScenarioConfig, SimOutput};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Vessels in the regional scenario every workload replays. Large
/// enough that per-seed differences in fleet make-up (dark, spoofing,
/// fraudulent vessels) mostly average out; below the 512 live vessels
/// at which the engine's pairwise sweeps go parallel, so the single
/// writer stays single-threaded.
pub const VESSELS: usize = 400;

/// Event-time span of the scenario, in hours: past the one-hour hot
/// horizon, so the archive seals; one replay pass is about five
/// seconds.
pub const HOURS: i64 = 3;

/// Set-ups per run; `setup_s` is their median. A set-up generates the
/// seeded input, encodes it to AIVDM and constructs the system the run
/// measures. Generation is most of it, about a second of CPU work, so
/// the median is steady; the first set-up also pays the page faults of
/// the process's first large allocations, and the median leaves that
/// out.
pub const SETUPS: usize = 3;

/// One input record in arrival order: an AIS message as the AIVDM
/// sentences a receiver delivers (tagged with transmit time, as NMEA
/// tag blocks carry it), or a radar plot, or a VMS report.
#[derive(Debug, Clone)]
pub enum Arrival {
    /// One AIS message: transmit time and its one or two sentences.
    Ais {
        /// Transmission (event) time from the receiver tag block.
        t_sent: Timestamp,
        /// Reception time (arrival order).
        t_received: Timestamp,
        /// The `!AIVDM` sentences carrying the message.
        sentences: Vec<String>,
    },
    /// A coastal radar plot.
    Radar(RadarPlot),
    /// A VMS position report.
    Vms(VmsReport),
}

/// A workload's input: the scenario (zones, bounds, weather) and its
/// arrival stream, pre-encoded before the run measures.
pub struct Input {
    /// The simulated scenario the stream came from.
    pub sim: SimOutput,
    /// Arrivals in reception order.
    pub arrivals: Vec<Arrival>,
    /// Input records: AIVDM sentences plus radar plots plus VMS reports.
    pub records: u64,
}

impl Input {
    /// Generate the seeded regional scenario (AIS with deception, radar,
    /// VMS) and encode every AIS message to AIVDM sentences.
    pub fn generate(seed: u64, vessels: usize, hours: i64) -> Self {
        let sim = Scenario::generate(ScenarioConfig::regional(
            seed,
            vessels,
            hours * mda_geo::time::HOUR,
        ));
        let mut merged: Vec<(Timestamp, u8, Arrival)> =
            Vec::with_capacity(sim.ais.len() + sim.radar.len() + sim.vms.len());
        for (i, obs) in sim.ais.iter().enumerate() {
            let (bits, fill) = mda_ais::codec::encode_payload(&obs.msg);
            let sentences = mda_ais::nmea::to_sentences(&bits, fill, 'A', (i % 9) as u8 + 1);
            merged.push((
                obs.t_received,
                0,
                Arrival::Ais { t_sent: obs.t_sent, t_received: obs.t_received, sentences },
            ));
        }
        merged.extend(sim.radar.iter().map(|p| (p.t, 1, Arrival::Radar(*p))));
        merged.extend(sim.vms.iter().map(|v| (v.t, 2, Arrival::Vms(*v))));
        // Stable by reception time, sources in a fixed order: the same
        // merge `MaritimePipeline::run_scenario` performs.
        merged.sort_by_key(|(t, source, _)| (*t, *source));
        let arrivals: Vec<Arrival> = merged.into_iter().map(|(_, _, a)| a).collect();
        let records = arrivals.iter().map(record_count).sum();
        Self { sim, arrivals, records }
    }

    /// The pipeline configuration for this scenario: regional defaults
    /// with the scenario's zones installed.
    pub fn config(&self) -> PipelineConfig {
        let mut config = PipelineConfig::regional(self.sim.world.bounds);
        config.events.zones = self
            .sim
            .world
            .zones
            .iter()
            .map(|z| NamedZone {
                name: z.name.clone(),
                area: z.area.clone(),
                protected: z.kind == mda_sim::world::ZoneKind::ProtectedArea,
            })
            .collect();
        config
    }
}

/// Records one arrival carries.
pub fn record_count(a: &Arrival) -> u64 {
    match a {
        Arrival::Ais { sentences, .. } => sentences.len() as u64,
        _ => 1,
    }
}

/// A receiver-side AIVDM decoder: sentence parse, multi-part assembly,
/// payload decode. Counts decode failures, which on these well-formed
/// sentences are errors.
#[derive(Default)]
pub struct Decoder {
    assembler: SentenceAssembler,
    /// Sentences or payloads that failed to decode.
    pub errors: u64,
}

impl Decoder {
    /// Decode one AIS arrival into the observation the pipeline takes;
    /// `None` for a failed decode (counted).
    pub fn decode(
        &mut self,
        t_sent: Timestamp,
        t_received: Timestamp,
        sentences: &[String],
    ) -> Option<AisObservation> {
        let mut msg: Option<AisMessage> = None;
        for line in sentences {
            let Ok(sentence) = parse_sentence(line) else {
                self.errors += 1;
                return None;
            };
            match self.assembler.push(sentence) {
                Ok(Some(bits)) => match mda_ais::codec::decode_payload(&bits) {
                    Ok(m) => msg = Some(m),
                    Err(_) => {
                        self.errors += 1;
                        return None;
                    }
                },
                Ok(None) => {}
                Err(_) => {
                    self.errors += 1;
                    return None;
                }
            }
        }
        let Some(msg) = msg else {
            self.errors += 1;
            return None;
        };
        let truth_id = msg.mmsi();
        Some(AisObservation {
            t_sent,
            t_received,
            via_satellite: false,
            msg,
            label: CorruptionLabel::Clean,
            truth_id,
        })
    }
}

/// Aggregated spans (calls, busy time) and counts, recorded by the
/// benchmark around its calls into the crates' public functions. With
/// tracing off, [`Tracer::time`] is a plain call.
#[derive(Default)]
pub struct Tracer {
    on: bool,
    spans: BTreeMap<&'static str, (u64, Duration)>,
}

impl Tracer {
    /// A tracer; `on` false makes every span a plain call.
    pub fn new(on: bool) -> Self {
        Self { on, spans: BTreeMap::new() }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Run `f` inside span `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let r = f();
        self.add(name, 1, start.elapsed());
        r
    }

    /// Add `calls` calls and `busy` time to span `name`.
    pub fn add(&mut self, name: &'static str, calls: u64, busy: Duration) {
        let e = self.spans.entry(name).or_default();
        e.0 += calls;
        e.1 += busy;
    }

    /// Busy seconds of span `name` (0 when never entered).
    pub fn busy_s(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, |s| s.1.as_secs_f64())
    }

    /// Calls of span `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.spans.get(name).map_or(0, |s| s.0)
    }
}

/// Named metrics with units, printed one per line and as the result.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<String, (f64, &'static str)>,
}

impl Metrics {
    /// Set metric `name`.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.values.insert(name.into(), (value, unit));
    }

    /// A metric's value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| v.0)
    }

    /// All metrics in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &(f64, &'static str))> {
        self.values.iter()
    }
}

/// Durations counted exactly, in whole nanoseconds: one counter per
/// nanosecond below [`Nanos::EXACT`], the rare longer ones kept as
/// samples. Its memory does not grow with the number of samples, so a
/// faster run does not report a larger `peak_rss_mb`.
pub struct Nanos {
    counts: Vec<u64>,
    longer: Vec<u64>,
    n: u64,
}

impl Default for Nanos {
    fn default() -> Self {
        Self { counts: vec![0; Self::EXACT], longer: Vec::new(), n: 0 }
    }
}

impl Nanos {
    /// Durations below this many nanoseconds are counted, not kept.
    pub const EXACT: usize = 100_000;

    /// Record one duration.
    pub fn record(&mut self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        match usize::try_from(ns) {
            Ok(i) if i < Self::EXACT => self.counts[i] += 1,
            _ => self.longer.push(ns),
        }
        self.n += 1;
    }

    /// The `q`-quantile (0..=1) by nearest rank, in microseconds, as
    /// [`quantile`] takes it; 0 for no samples.
    pub fn quantile_us(&mut self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0u64;
        for (ns, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return ns as f64 / 1e3;
            }
        }
        self.longer.sort_unstable();
        let k = usize::try_from(rank - seen - 1).unwrap_or(usize::MAX);
        self.longer.get(k).map_or(0.0, |ns| *ns as f64 / 1e3)
    }
}

/// The `q`-quantile (0..=1) of `v` by nearest rank; 0 for no samples.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of `v`; 0 for no samples.
pub fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident memory of this process in MB (`VmHWM`), 0 when the
/// platform does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over a byte stream.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// FNV-1a over sorted event renderings: equal digests mean the same
/// event multiset, however the events were grouped into calls.
pub fn event_digest(lines: &[String]) -> u64 {
    fnv1a(lines.iter().flat_map(|l| l.bytes().chain(std::iter::once(b'\n'))))
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Copy the regular files of `from` into a fresh `to`.
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.metadata()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// A scratch directory for data directories, inside the build
/// directory of the checkout and unique to this process. Removed on
/// drop.
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    /// Create the scratch root.
    pub fn new() -> std::io::Result<Self> {
        let base = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from);
        let root = base.join(format!("perfbench-data-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(Self { root })
    }

    /// A fresh, empty subdirectory `name`.
    pub fn fresh(&self, name: &str) -> PathBuf {
        let dir = self.root.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

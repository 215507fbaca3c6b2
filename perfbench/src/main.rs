//! The repository benchmark. Usage:
//!
//! ```text
//! perfbench --workload <replay|replay-2w|live-watch|console> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one `name value unit` line per metric, then the result as
//! one JSON object on the last line. See `README.md` beside this
//! package for the workloads, the metrics and the layer map.

mod common;
mod console;
mod layers;
mod live;
mod queries;
mod replay;

use common::{peak_rss_mb, Metrics};
use std::process::ExitCode;

/// What one run produced: operation accounting, the correctness
/// verdict, and its metrics.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (records pushed, queries sent, ...).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Failed output checks, one line each.
    pub problems: Vec<String>,
    /// Metrics by name.
    pub metrics: Metrics,
}

impl Outcome {
    /// Record a failed output check.
    pub fn fail(&mut self, problem: impl Into<String>) {
        self.problems.push(problem.into());
    }
}

/// End-to-end metrics, reported by every untraced run: name and unit.
/// Each workload measures each of them on its own operation; see the
/// README beside this package for what each means per workload.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("disk_bytes_per_record", "B"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by traced runs; every workload reports
/// all of them, 0 where the layer does no work in that workload. The
/// third field names the workloads on which the value repeats exactly
/// for a seed (`*` for all, empty for none); such lines end in `det`.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("ais.decode.calls", "count", "*"),
    ("ais.decode.busy_s", "s", ""),
    ("ais.decode.errors", "count", "*"),
    ("core.push.calls", "count", "*"),
    ("core.push.busy_s", "s", ""),
    ("core.push.p99_us", "us", ""),
    ("core.finish.busy_s", "s", ""),
    ("core.report.ingest_s", "s", ""),
    ("core.report.reorder_s", "s", ""),
    ("core.report.fusion_s", "s", ""),
    ("core.report.events_s", "s", ""),
    ("core.report.synopses_s", "s", ""),
    ("core.report.analytics_s", "s", ""),
    ("core.report.storage_s", "s", ""),
    ("core.records", "count", "*"),
    ("core.late_drops", "count", "*"),
    ("core.events", "count", "*"),
    ("core.seal_sweeps", "count", "*"),
    ("core.evicted_vessels", "count", "*"),
    ("core.archive_fixes", "count", "*"),
    ("core.frontend_event_diff", "count", "*"),
    ("stream.reorder.busy_s", "s", ""),
    ("track.fuse.busy_s", "s", ""),
    ("track.fuse.calls", "count", "*"),
    ("events.observe.busy_s", "s", ""),
    ("events.tick.busy_s", "s", ""),
    ("events.tick.calls", "count", "*"),
    ("events.loiter.busy_s", "s", ""),
    ("events.loiter.calls", "count", "*"),
    ("events.gap.busy_s", "s", ""),
    ("events.gap.calls", "count", "*"),
    ("events.veracity.busy_s", "s", ""),
    ("events.veracity.calls", "count", "*"),
    ("events.zone.busy_s", "s", ""),
    ("events.zone.calls", "count", "*"),
    ("synopses.observe.busy_s", "s", ""),
    ("synopses.kept", "count", "*"),
    ("store.append.busy_s", "s", ""),
    ("store.wal.busy_s", "s", ""),
    ("store.seal.busy_s", "s", ""),
    ("store.segments", "count", "*"),
    ("store.disk_bytes", "B", "*"),
    ("store.snapshot.busy_s", "s", ""),
    ("store.snapshot.calls", "count", "*"),
    ("store.recover.busy_s", "s", ""),
    ("store.recover.segments", "count", "*"),
    ("store.recover.hot_fixes", "count", "*"),
    ("store.segment.decode.busy_s", "s", ""),
    ("store.segment.decode.bytes", "B", "*"),
    ("forecast.predictor.busy_s", "s", ""),
    ("core.query.latest.p50_us", "us", ""),
    ("core.query.latest.p99_us", "us", ""),
    ("core.query.position_at.p50_us", "us", ""),
    ("core.query.position_at.p99_us", "us", ""),
    ("core.query.trajectory.p50_us", "us", ""),
    ("core.query.trajectory.p99_us", "us", ""),
    ("core.query.window.p50_us", "us", ""),
    ("core.query.window.p99_us", "us", ""),
    ("core.query.knn.p50_us", "us", ""),
    ("core.query.knn.p99_us", "us", ""),
    ("core.query.where_at.p50_us", "us", ""),
    ("core.query.where_at.p99_us", "us", ""),
    ("core.query.eta.p50_us", "us", ""),
    ("core.query.eta.p99_us", "us", ""),
    ("core.query.fleet.p50_us", "us", ""),
    ("core.query.fleet.p99_us", "us", ""),
    ("serve.handle.busy_s", "s", ""),
    ("serve.cache.hits", "count", "console"),
    ("serve.cache.misses", "count", "console"),
    ("serve.cache.hit_ratio", "ratio", "console"),
    ("serve.wire.encode.busy_s", "s", ""),
    ("serve.wire.decode.busy_s", "s", ""),
    ("serve.wire.bytes", "B", "console"),
    ("serve.frame.crc.busy_s", "s", ""),
    ("serve.frame.crc.bytes", "B", "console"),
    ("serve.pump.busy_s", "s", ""),
    ("serve.pump.calls", "count", ""),
    ("serve.push.delivered", "count", "*"),
    ("serve.push.filtered_ratio", "ratio", "*"),
    ("serve.sessions.evicted", "count", "*"),
    ("alert.pipeline_p99_ms", "ms", ""),
    ("alert.serve_p99_ms", "ms", ""),
    ("gen.late_inputs", "count", ""),
    ("gen.lag_p99_ms", "ms", ""),
    ("serve.query.p50_us", "us", ""),
    ("serve.query.p99_us", "us", ""),
    ("trace.coverage", "ratio", ""),
    ("trace.overhead", "ratio", ""),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "replay" => replay::run(args.seed, args.seconds, args.trace, None),
        "replay-2w" => replay::run(args.seed, args.seconds, args.trace, Some(2)),
        "live-watch" => live::run(args.seed, args.seconds, args.trace),
        "console" => console::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    if args.trace {
        for (name, unit, _) in PER_LAYER {
            if out.metrics.get(name).is_none() {
                out.metrics.set(*name, 0.0, unit);
            }
        }
    } else {
        out.metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
    }
    let listed: Vec<&str> = if args.trace {
        PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.0).collect()
    };
    if let Some(name) = listed.iter().find(|n| out.metrics.get(n).is_none()) {
        eprintln!("perfbench: workload {} did not measure {name}", args.workload);
        return ExitCode::from(1);
    }
    for problem in &out.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
    println!("error_rate {error_rate} ratio (failed {} of {})", out.failed, out.attempted);
    let mut json = String::new();
    for (name, (value, unit)) in out.metrics.iter() {
        let det = PER_LAYER
            .iter()
            .any(|m| args.trace && m.0 == name && (m.2 == "*" || m.2 == args.workload));
        println!("{name} {value} {unit}{}", if det { " det" } else { "" });
        if !listed.contains(&name.as_str()) {
            continue;
        }
        if !json.is_empty() {
            json.push_str(", ");
        }
        let value = if value.is_finite() { *value } else { 0.0 };
        json.push_str(&format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    let correct = out.problems.is_empty() && out.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        out.attempted.max(1),
        out.failed
    );
    ExitCode::SUCCESS
}

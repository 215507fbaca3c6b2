//! The query mix both serving workloads send, the in-process replays
//! that split a wire answer into its layers, and the open-loop clock.

use crate::common::{quantile, Input, Metrics, Tracer};
use mda_core::{QueryService, Stamped};
use mda_geo::{BoundingBox, Position, Timestamp, VesselId};
use mda_serve::server::ServeCore;
use mda_serve::wire::{decode_response, encode_request, encode_response, Request, Response};
use std::time::{Duration, Instant};

/// Query kinds in mix order, with their weight: requests of that kind
/// per [`ROUND`] requests. The c13 reader battery (`c13_query.rs`)
/// gives eight rounds of latest, position_at, window, knn and where_at
/// with one eta; trajectory and fleet, which c13 does not send, get
/// eta's single request so that every query kind is measured.
pub const KINDS: [(&str, u32); 8] = [
    ("latest", 8),
    ("position_at", 8),
    ("trajectory", 1),
    ("window", 8),
    ("knn", 8),
    ("where_at", 8),
    ("eta", 1),
    ("fleet", 1),
];

/// The sum of the [`KINDS`] weights.
const ROUND: u32 = 43;

/// Time slots the mix draws instants from, across the archive span.
const SLOTS: i64 = 48;

/// Zipf exponent of vessel choice. An assumption: the workload calls
/// for skewed vessel choice but no source gives an exponent. At 1.1
/// over 400 vessels the most-requested vessel draws a fifth of the
/// vessel requests and the ten most-requested about half.
const ZIPF_S: f64 = 1.1;

/// A seeded generator of requests: kind by [`KINDS`] weight, vessel by
/// a Zipf law over the scenario fleet, instants and points on fixed
/// grids, so the distinct-request set is a few thousand — larger than
/// the serving cache's 1,024 entries. Offsets, box size and `k` follow
/// the c13 battery.
pub struct QueryMix {
    state: u64,
    vessels: Vec<VesselId>,
    cdf: Vec<f64>,
    bounds: BoundingBox,
    span: (Timestamp, Timestamp),
}

impl QueryMix {
    /// A mix over `input`'s fleet, region and event-time span.
    pub fn new(input: &Input, seed: u64) -> Self {
        let mut vessels: Vec<VesselId> = input.sim.vessels.iter().map(|v| v.mmsi).collect();
        vessels.sort_unstable();
        let weights: Vec<f64> =
            (1..=vessels.len()).map(|r| 1.0 / (r as f64).powf(ZIPF_S)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        let t0 = Timestamp(0);
        let t1 = Timestamp(input.sim.config.duration);
        Self {
            state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
            vessels,
            cdf,
            bounds: input.sim.world.bounds,
            span: (t0, t1),
        }
    }

    fn next_u64(&mut self) -> u64 {
        // xorshift64*
        self.state ^= self.state >> 12;
        self.state ^= self.state << 25;
        self.state ^= self.state >> 27;
        self.state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    fn vessel(&mut self) -> VesselId {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let i = self.cdf.partition_point(|&c| c < u).min(self.vessels.len() - 1);
        self.vessels[i]
    }

    fn slot(&mut self) -> Timestamp {
        let (a, b) = self.span;
        Timestamp(a.0 + (b.0 - a.0) * (1 + self.below(SLOTS as u64) as i64) / SLOTS)
    }

    fn grid_point(&mut self, cells: u64) -> Position {
        let b = self.bounds;
        let (i, j) = (self.below(cells), self.below(cells));
        let f = |k: u64| (k as f64 + 0.5) / cells as f64;
        Position::new(
            b.min_lat + (b.max_lat - b.min_lat) * f(i),
            b.min_lon + (b.max_lon - b.min_lon) * f(j),
        )
    }

    /// The next request. With `live`, instants sit relative to the
    /// moving watermark `wm` (the stamp of the last answer); otherwise
    /// they come from the fixed grid over the archive span.
    pub fn next(&mut self, live: Option<Timestamp>) -> Request {
        let mut pick = self.below(u64::from(ROUND)) as u32;
        let mut kind = KINDS.len() - 1;
        for (k, (_, share)) in KINDS.iter().enumerate() {
            if pick < *share {
                kind = k;
                break;
            }
            pick -= share;
        }
        let at = |mix: &mut Self, back_min: i64| match live {
            Some(wm) => wm.saturating_add(-back_min * mda_geo::time::MINUTE),
            None => mix.slot(),
        };
        match kind {
            0 => Request::Latest { id: self.vessel() },
            1 => {
                let id = self.vessel();
                let back = 5 * self.below(6) as i64;
                Request::PositionAt { id, t: at(self, back) }
            }
            2 => Request::Trajectory { id: self.vessel() },
            3 => {
                let c = self.grid_point(6);
                let to = at(self, 0);
                Request::Window {
                    area: BoundingBox::new(c.lat - 0.25, c.lon - 0.25, c.lat + 0.25, c.lon + 0.25),
                    from: to.saturating_add(-20 * mda_geo::time::MINUTE),
                    to,
                }
            }
            4 => {
                let query = self.grid_point(10);
                Request::Knn { query, t: at(self, 0), k: 5 }
            }
            5 => {
                let id = self.vessel();
                Request::WhereAt { id, t: at(self, -15) }
            }
            6 => {
                let id = self.vessel();
                let dest = self.grid_point(4);
                Request::Eta { id, dest }
            }
            _ => Request::Fleet,
        }
    }
}

/// The mix kind of a request (`None` for session operations).
pub fn kind_of(r: &Request) -> Option<&'static str> {
    Some(match r {
        Request::Latest { .. } => "latest",
        Request::PositionAt { .. } => "position_at",
        Request::Trajectory { .. } => "trajectory",
        Request::Window { .. } => "window",
        Request::Knn { .. } => "knn",
        Request::WhereAt { .. } => "where_at",
        Request::Eta { .. } => "eta",
        Request::Fleet => "fleet",
        _ => return None,
    })
}

/// The watermark an answer is stamped with.
pub fn stamp_of(r: &Response) -> Option<Timestamp> {
    fn w<T>(s: &Stamped<T>) -> Option<Timestamp> {
        Some(s.watermark)
    }
    match r {
        Response::Watermark { watermark } => Some(*watermark),
        Response::Latest(s) => w(s),
        Response::PositionAt(s) => w(s),
        Response::Trajectory(s) => w(s),
        Response::Window(s) => w(s),
        Response::Knn(s) => w(s),
        Response::Fleet(s) => w(s),
        Response::WhereAt(s) => w(s),
        Response::Eta(s) => w(s),
        _ => None,
    }
}

/// What the in-process service answers to a query on the current
/// snapshot — the oracle wire answers must equal byte for byte.
pub fn oracle(service: &QueryService, request: &Request) -> Response {
    let snap = service.snapshot();
    match request {
        Request::Watermark => Response::Watermark { watermark: snap.watermark() },
        Request::Latest { id } => Response::Latest(snap.latest(*id)),
        Request::PositionAt { id, t } => Response::PositionAt(snap.position_at(*id, *t)),
        Request::Trajectory { id } => Response::Trajectory(snap.trajectory(*id)),
        Request::Window { area, from, to } => Response::Window(snap.window(area, *from, *to)),
        Request::Knn { query, t, k } => Response::Knn(snap.knn(*query, *t, *k)),
        Request::Fleet => {
            Response::Fleet(Stamped { watermark: snap.watermark(), value: snap.fleet() })
        }
        Request::WhereAt { id, t } => Response::WhereAt(snap.where_at(*id, *t)),
        Request::Eta { id, dest } => Response::Eta(snap.eta(*id, *dest)),
        _ => Response::Error { message: "not a query".to_owned() },
    }
}

/// Time every request in process on the [`QueryService`], per kind,
/// and report `core.query.<kind>.{p50_us,p99_us}`.
pub fn in_process_metrics(m: &mut Metrics, service: &QueryService, requests: &[Request]) {
    for (kind, _) in KINDS {
        let mut us: Vec<f64> = Vec::new();
        for r in requests.iter().filter(|r| kind_of(r) == Some(kind)) {
            let start = Instant::now();
            let answer = match r {
                Request::Latest { id } => keep(service.latest(*id)),
                Request::PositionAt { id, t } => keep(service.position_at(*id, *t)),
                Request::Trajectory { id } => keep(service.trajectory(*id)),
                Request::Window { area, from, to } => keep(service.window(area, *from, *to)),
                Request::Knn { query, t, k } => keep(service.knn(*query, *t, *k)),
                Request::WhereAt { id, t } => keep(service.where_at(*id, *t)),
                Request::Eta { id, dest } => keep(service.eta(*id, *dest)),
                _ => keep(service.fleet()),
            };
            std::hint::black_box(answer);
            us.push(start.elapsed().as_secs_f64() * 1e6);
        }
        let mut p99 = us.clone();
        m.set(format!("core.query.{kind}.p50_us"), quantile(&mut us, 0.5), "us");
        m.set(format!("core.query.{kind}.p99_us"), quantile(&mut p99, 0.99), "us");
    }
}

/// Keep an answer alive past the timer.
fn keep<T>(s: Stamped<T>) -> Timestamp {
    std::hint::black_box(&s.value);
    s.watermark
}

/// Replay `requests` through a fresh [`ServeCore`] over `service`
/// (handle, with its own cache) and time the wire codec and frame CRC
/// over every request and answer: `serve.handle.busy_s`,
/// `serve.wire.{encode,decode}.busy_s`, `serve.wire.bytes`,
/// `serve.frame.crc.{busy_s,bytes}`.
pub fn serve_layer_metrics(m: &mut Metrics, service: &QueryService, requests: &[Request]) {
    let core = ServeCore::new(service.clone(), mda_serve::ServeConfig::default());
    let mut t = Tracer::new(true);
    let mut bytes = 0u64;
    let mut crc_bytes = 0u64;
    for r in requests {
        let req = t.time("serve.wire.encode", || encode_request(r));
        let answer = t.time("serve.handle", || core.handle_bytes(&req));
        let resp = t.time("serve.wire.decode", || decode_response(&answer));
        let re = t.time("serve.wire.encode", || resp.as_ref().map(encode_response));
        let _ = std::hint::black_box(re);
        let _ = t.time("serve.wire.decode", || mda_serve::wire::decode_request(&req));
        bytes += (req.len() + answer.len()) as u64;
        t.time("serve.frame.crc", || {
            std::hint::black_box(mda_serve::frame::crc32(&req));
            std::hint::black_box(mda_serve::frame::crc32(&answer));
        });
        crc_bytes += (req.len() + answer.len()) as u64;
    }
    m.set("serve.handle.busy_s", t.busy_s("serve.handle"), "s");
    m.set("serve.wire.encode.busy_s", t.busy_s("serve.wire.encode"), "s");
    m.set("serve.wire.decode.busy_s", t.busy_s("serve.wire.decode"), "s");
    m.set("serve.wire.bytes", bytes as f64, "B");
    m.set("serve.frame.crc.busy_s", t.busy_s("serve.frame.crc"), "s");
    m.set("serve.frame.crc.bytes", crc_bytes as f64, "B");
}

/// Wait until `due`: sleep while far ahead, then spin the last stretch
/// so the send is not late by the sleep's overshoot.
pub fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(150);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

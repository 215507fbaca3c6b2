//! Tick-boundary barrier protocol for multi-writer shard-affine ingest.
//!
//! N writer lanes each own a disjoint shard set end-to-end; the only
//! cross-shard points left (fleet-index merge, snapshot publication)
//! happen at aligned tick boundaries. [`TickBarrier`] turns each
//! boundary into an explicit quiesce-merge-resume protocol:
//!
//! 1. every lane deposits its per-shard contribution and calls
//!    [`TickBarrier::wait`];
//! 2. the **leader** (the last lane to arrive) runs the serialized
//!    merge/publish step while every follower stays parked;
//! 3. the leader calls [`TickBarrier::release`] and all lanes resume.
//!
//! The barrier is generation-counted and reusable, so one barrier
//! serves every boundary of a run. It is panic-safe the same way
//! [`run_with_readers`](crate::runner::run_with_readers) is: a lane
//! that unwinds mid-protocol [abandons](TickBarrier::abandon) the
//! barrier, waking every parked sibling into a panic instead of a
//! deadlocked [`std::thread::scope`] join. [`run_lanes`] packages the
//! spawn/guard/join choreography.

use std::sync::{Condvar, Mutex, PoisonError};
use std::thread;

/// Panic message used when a lane finds the barrier abandoned. Kept as
/// a constant so [`run_lanes`] can prefer re-raising the *original*
/// panic over the secondary ones it provokes in sibling lanes.
const ABANDONED: &str = "tick barrier abandoned by a panicking writer lane";

/// What a lane is, for the phase it just entered, after
/// [`TickBarrier::wait`] returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneRole {
    /// Last to arrive: run the serialized merge step, then call
    /// [`TickBarrier::release`]. Exactly one lane per phase.
    Leader,
    /// Parked until the leader released the phase; resume lane-local
    /// work.
    Follower,
}

#[derive(Debug)]
struct BarrierState {
    arrived: usize,
    generation: u64,
    /// A leader has been elected for the current phase and has not yet
    /// released it.
    leader_pending: bool,
    broken: bool,
}

/// A reusable, leader-electing, poisonable barrier over a fixed number
/// of writer lanes. See the [module docs](self) for the protocol.
#[derive(Debug)]
pub struct TickBarrier {
    state: Mutex<BarrierState>,
    cvar: Condvar,
    parties: usize,
}

impl TickBarrier {
    /// Barrier over `parties` lanes (`parties >= 1`).
    pub fn new(parties: usize) -> Self {
        assert!(parties >= 1, "a barrier needs at least one lane");
        Self {
            state: Mutex::new(BarrierState {
                arrived: 0,
                generation: 0,
                leader_pending: false,
                broken: false,
            }),
            cvar: Condvar::new(),
            parties,
        }
    }

    /// Number of lanes the barrier synchronizes.
    pub fn parties(&self) -> usize {
        self.parties
    }

    /// Arrive at the phase boundary. The last lane to arrive returns
    /// [`LaneRole::Leader`] *while every other lane stays parked*; the
    /// leader must call [`TickBarrier::release`] to let them through.
    ///
    /// # Panics
    ///
    /// Panics (with a fixed message) if the barrier was
    /// [abandoned](TickBarrier::abandon) — the lane should unwind so
    /// its scope can observe the original failure instead of
    /// deadlocking.
    pub fn wait(&self) -> LaneRole {
        let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if s.broken {
            drop(s);
            panic!("{ABANDONED}");
        }
        debug_assert!(!s.leader_pending, "wait() re-entered while a leader phase is open");
        s.arrived += 1;
        if s.arrived == self.parties {
            s.leader_pending = true;
            return LaneRole::Leader;
        }
        let gen = s.generation;
        while s.generation == gen && !s.broken {
            s = self.cvar.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
        // A generation bump doubles as the all-clear: if the break
        // happened in a *later* phase this lane already got through.
        if s.broken && s.generation == gen {
            drop(s);
            panic!("{ABANDONED}");
        }
        LaneRole::Follower
    }

    /// Close the current phase (leader only): reset arrivals, bump the
    /// generation and wake every parked follower.
    pub fn release(&self) {
        let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if s.broken {
            return;
        }
        debug_assert!(s.leader_pending, "release() without a pending leader");
        s.arrived = 0;
        s.leader_pending = false;
        s.generation = s.generation.wrapping_add(1);
        drop(s);
        // A lone party has no follower to wake.
        if self.parties > 1 {
            self.cvar.notify_all();
        }
    }

    /// Poison the barrier: every parked lane (and every future
    /// [`TickBarrier::wait`]) panics instead of waiting forever. Called
    /// by [`run_lanes`]'s per-lane guard when a lane unwinds, mirroring
    /// the `StopOnDrop` release in
    /// [`run_with_readers`](crate::runner::run_with_readers).
    pub fn abandon(&self) {
        let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        s.broken = true;
        drop(s);
        self.cvar.notify_all();
    }

    /// True once a lane abandoned the barrier.
    pub fn is_broken(&self) -> bool {
        self.state.lock().unwrap_or_else(PoisonError::into_inner).broken
    }
}

/// Abandons the barrier on drop unless disarmed — the lane-side half of
/// the panic-safety contract (dropped during unwind ⇒ siblings wake).
struct AbandonOnDrop<'a> {
    barrier: &'a TickBarrier,
    armed: bool,
}

impl Drop for AbandonOnDrop<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.barrier.abandon();
        }
    }
}

/// True if a panic payload is the barrier's own secondary
/// "abandoned" panic rather than the original failure.
fn is_abandon_payload(payload: &(dyn std::any::Any + Send)) -> bool {
    payload.downcast_ref::<&str>().is_some_and(|s| *s == ABANDONED)
        || payload.downcast_ref::<String>().is_some_and(|s| s == ABANDONED)
}

/// Run one scoped thread per lane, each sharing a [`TickBarrier`] over
/// `lanes.len()` parties, and join them all. `f` receives the lane
/// index, exclusive access to that lane's state, and the barrier;
/// results come back in lane order.
///
/// A single lane runs inline on the caller's thread: it is always the
/// leader, and a panic in it unwinds straight into the caller.
///
/// If any lane panics, the barrier is abandoned (no deadlocked scope),
/// every other lane unwinds at its next `wait`, and the *original*
/// panic is re-raised after all lanes have been joined.
pub fn run_lanes<T, R>(
    lanes: &mut [T],
    f: impl Fn(usize, &mut T, &TickBarrier) -> R + Sync,
) -> Vec<R>
where
    T: Send,
    R: Send,
{
    match lanes {
        [] => return Vec::new(),
        [lane] => return vec![f(0, lane, &TickBarrier::new(1))],
        _ => {}
    }
    let barrier = TickBarrier::new(lanes.len());
    let results: Vec<thread::Result<R>> = thread::scope(|scope| {
        let barrier = &barrier;
        let f = &f;
        let handles: Vec<_> = lanes
            .iter_mut()
            .enumerate()
            .map(|(w, lane)| {
                scope.spawn(move || {
                    let mut guard = AbandonOnDrop { barrier, armed: true };
                    let out = f(w, lane, barrier);
                    guard.armed = false;
                    out
                })
            })
            .collect();
        // Join (not propagate) so every lane finishes before any panic
        // resurfaces — the scope must never be left waiting on a lane
        // parked at an abandoned barrier.
        handles.into_iter().map(|h| h.join()).collect()
    });
    let mut original = None;
    let mut secondary = None;
    let mut out = Vec::with_capacity(results.len());
    for r in results {
        match r {
            Ok(v) => out.push(v),
            Err(p) if is_abandon_payload(p.as_ref()) => {
                secondary.get_or_insert(p);
            }
            Err(p) => {
                original.get_or_insert(p);
            }
        }
    }
    if let Some(p) = original.or(secondary) {
        std::panic::resume_unwind(p);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    #[test]
    fn single_party_is_always_leader() {
        let b = TickBarrier::new(1);
        for _ in 0..3 {
            assert_eq!(b.wait(), LaneRole::Leader);
            b.release();
        }
    }

    #[test]
    fn one_leader_per_phase_across_generations() {
        const LANES: usize = 4;
        const ROUNDS: usize = 25;
        let leader_runs = AtomicU64::new(0);
        let serialized = AtomicBool::new(false);
        let mut states = vec![(); LANES];
        let totals = run_lanes(&mut states, |_w, _s, barrier| {
            let mut led = 0u64;
            for _ in 0..ROUNDS {
                match barrier.wait() {
                    LaneRole::Leader => {
                        // No two leader sections may overlap.
                        assert!(!serialized.swap(true, Ordering::SeqCst));
                        leader_runs.fetch_add(1, Ordering::SeqCst);
                        led += 1;
                        assert!(serialized.swap(false, Ordering::SeqCst));
                        barrier.release();
                    }
                    LaneRole::Follower => {}
                }
            }
            led
        });
        assert_eq!(leader_runs.load(Ordering::SeqCst), ROUNDS as u64);
        assert_eq!(totals.iter().sum::<u64>(), ROUNDS as u64);
    }

    #[test]
    fn followers_stay_parked_until_release() {
        // The leader holds the phase open while it mutates shared
        // state; a follower observing the mutation before its wait()
        // returned would be a protocol violation.
        let checkpoint = AtomicU64::new(0);
        let mut states = vec![(); 3];
        run_lanes(&mut states, |_w, _s, barrier| {
            for round in 1..=10u64 {
                match barrier.wait() {
                    LaneRole::Leader => {
                        checkpoint.store(round, Ordering::SeqCst);
                        barrier.release();
                    }
                    LaneRole::Follower => {
                        // By the time a follower resumes, the leader's
                        // serialized write is complete and visible.
                        assert_eq!(checkpoint.load(Ordering::SeqCst), round);
                    }
                }
            }
        });
    }

    #[test]
    fn panicking_lane_releases_parked_siblings() {
        let mut states = vec![(); 4];
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_lanes(&mut states, |w, _s, barrier| {
                for round in 0..5 {
                    if w == 2 && round == 3 {
                        panic!("injected lane fault");
                    }
                    if barrier.wait() == LaneRole::Leader {
                        barrier.release();
                    }
                }
            });
        }));
        // The test *finishing* is the real assertion (no deadlock);
        // the propagated payload must be the injected one, not the
        // secondary abandoned-barrier panic.
        let payload = result.expect_err("lane panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "injected lane fault");
    }

    #[test]
    fn panicking_leader_releases_parked_followers() {
        let mut states = vec![(); 3];
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_lanes(&mut states, |_w, _s, barrier| {
                for round in 0..4 {
                    if barrier.wait() == LaneRole::Leader {
                        if round == 2 {
                            panic!("leader died mid-merge");
                        }
                        barrier.release();
                    }
                }
            });
        }));
        let payload = result.expect_err("leader panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "leader died mid-merge");
    }

    #[test]
    fn lanes_inside_run_with_readers_release_readers_on_panic() {
        // The composed shape the multi-writer pipeline uses: reader
        // loops poll while writer lanes run. A lane panic must release
        // both the barrier (siblings) and the reader flag.
        use crate::runner::run_with_readers;
        let polls = AtomicU64::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_with_readers(
                || {
                    let mut states = vec![(); 3];
                    run_lanes(&mut states, |w, _s, barrier| {
                        for round in 0..6 {
                            if w == 1 && round == 4 {
                                panic!("lane fault under readers");
                            }
                            if barrier.wait() == LaneRole::Leader {
                                barrier.release();
                            }
                        }
                    });
                },
                2,
                |_r, running| {
                    while running.load(Ordering::Acquire) {
                        polls.fetch_add(1, Ordering::Relaxed);
                        std::thread::yield_now();
                    }
                },
            );
        }));
        assert!(result.is_err(), "writer-side panic must surface");
        assert!(polls.load(Ordering::Relaxed) > 0, "readers ran before release");
    }

    #[test]
    fn single_lane_runs_inline_and_panics_reach_the_caller() {
        let caller = thread::current().id();
        let mut one = vec![0u32];
        let ran_on = run_lanes(&mut one, |_, _, barrier| {
            assert_eq!(barrier.wait(), LaneRole::Leader);
            barrier.release();
            thread::current().id()
        });
        assert_eq!(ran_on, vec![caller], "one lane must not spawn a thread");

        let result = catch_unwind(AssertUnwindSafe(|| {
            run_lanes(&mut one, |_, _, _| -> () { panic!("inline lane fault") });
        }));
        let payload = result.expect_err("the lane's panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>().copied(), Some("inline lane fault"));
    }

    #[test]
    fn empty_and_single_lane_run() {
        let mut none: Vec<u32> = Vec::new();
        assert!(run_lanes(&mut none, |_, _, _| 1).is_empty());
        let mut one = vec![10u32];
        let out = run_lanes(&mut one, |w, s, barrier| {
            assert_eq!(barrier.wait(), LaneRole::Leader);
            barrier.release();
            *s + w as u32
        });
        assert_eq!(out, vec![10]);
    }
}

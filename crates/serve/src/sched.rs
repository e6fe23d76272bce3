//! The scheduler subsystem: priority classes, the EDF ready queue with
//! aging, the planner-to-wall-clock calibration behind feasibility
//! admission, and the sub-pool packing helpers.
//!
//! The [`GemmServer`] scheduling pipeline is three stages (see
//! `docs/scheduling.md` for the full picture):
//!
//! 1. **Feasibility admission** — at submit, a deadline job's modeled
//!    duration ([`Planner::estimate`], memoized per shape class) is
//!    mapped to wall-clock by the online [`Calibration`] and checked
//!    against the deadline together with the rank-seconds already
//!    queued ahead of it; a provably unmeetable deadline is rejected
//!    with `SubmitError::Infeasible` naming the margin.
//! 2. **EDF dispatch** — admitted jobs wait in a [`ReadyQueue`]:
//!    deadline jobs in an earliest-deadline-first order, deadline-less
//!    jobs in a background FIFO that a bounded aging rule promotes so
//!    deadline traffic can never starve it.
//! 3. **Gang packing** — the dispatched head runs on a sub-pool sized
//!    by the planner's strong-scaling curve (never more ranks than its
//!    perfect-scaling range uses), and the leftover ranks are backfilled
//!    with the next queued jobs that fit, one carve per wave.
//!
//! Everything here is deliberately free of the server's locking and
//! execution machinery: the queue and calibration take explicit `now`
//! instants, so ordering and aging are unit- and property-testable
//! without a running service.
//!
//! [`GemmServer`]: crate::GemmServer
//! [`Planner::estimate`]: crate::Planner::estimate

use crate::planner::ShapeClass;
use hsumma_matrix::GridShape;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::time::{Duration, Instant};

/// Which of the two scheduling classes a job belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PriorityClass {
    /// The job carries a deadline: scheduled earliest-deadline-first,
    /// ahead of the background class.
    Deadline,
    /// No deadline: FIFO among themselves, behind all deadline jobs
    /// until the aging bound promotes them.
    Background,
}

/// How long a background job may wait behind deadline traffic before
/// the aging rule promotes it ahead of the deadline class. This bounds
/// starvation: under sustained deadline load a background job is
/// dispatched at most `AGING_BOUND` (plus one in-flight wave) after
/// submission order would have dispatched it.
pub const AGING_BOUND: Duration = Duration::from_millis(250);

/// The deadline-ordered ready queue: an EDF heap for the deadline class
/// and an aging FIFO for the background class.
///
/// Ordering contract (the property `tests/sched.rs` pins):
///
/// * deadline jobs pop in deadline order, ties broken by submission;
/// * a background job pops ahead of a waiting deadline job **only**
///   when it has waited at least the aging bound — otherwise the
///   classes never invert;
/// * among themselves, background jobs pop in submission order.
///
/// All time is an explicit `now` parameter so the scheduler (and the
/// tests) control the clock.
#[derive(Debug)]
pub struct ReadyQueue<T> {
    /// EDF order: `(deadline, submission seq) → job`. A `BTreeMap` is
    /// the binary heap with deterministic FIFO tie-breaks and ordered
    /// iteration for the feasibility scan.
    urgent: BTreeMap<(Instant, u64), T>,
    /// Background FIFO: `(submitted-at, submission seq, job)`.
    background: VecDeque<(Instant, u64, T)>,
    aging: Duration,
    seq: u64,
}

impl<T> ReadyQueue<T> {
    /// An empty queue promoting background jobs after `aging`.
    pub fn new(aging: Duration) -> Self {
        ReadyQueue {
            urgent: BTreeMap::new(),
            background: VecDeque::new(),
            aging,
            seq: 0,
        }
    }

    /// Jobs waiting, both classes.
    pub fn len(&self) -> usize {
        self.urgent.len() + self.background.len()
    }

    /// Whether nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.urgent.is_empty() && self.background.is_empty()
    }

    /// Enqueues a deadline-class job due at `deadline`.
    pub fn push_deadline(&mut self, deadline: Instant, item: T) {
        let seq = self.seq;
        self.seq += 1;
        self.urgent.insert((deadline, seq), item);
    }

    /// Enqueues a background-class job submitted at `now`.
    pub fn push_background(&mut self, now: Instant, item: T) {
        let seq = self.seq;
        self.seq += 1;
        self.background.push_back((now, seq, item));
    }

    /// Whether the background head has waited past the aging bound.
    fn background_aged(&self, now: Instant) -> bool {
        self.background
            .front()
            .is_some_and(|(submitted, _, _)| now.duration_since(*submitted) >= self.aging)
    }

    /// Dequeues the next job to dispatch at `now`: an aged background
    /// head first (the starvation bound), else the earliest deadline,
    /// else the background head.
    pub fn pop(&mut self, now: Instant) -> Option<(PriorityClass, T)> {
        if self.background_aged(now) || self.urgent.is_empty() {
            if let Some((_, _, item)) = self.background.pop_front() {
                return Some((PriorityClass::Background, item));
            }
        }
        self.urgent
            .pop_first()
            .map(|(_, item)| (PriorityClass::Deadline, item))
    }

    /// Dequeues the highest-priority job satisfying `fits` — the
    /// backfill step: after the wave head claims its ranks, the leftover
    /// capacity goes to the next jobs small enough to use it. Priority
    /// order is the same as [`ReadyQueue::pop`]'s.
    pub fn pop_fitting(
        &mut self,
        now: Instant,
        mut fits: impl FnMut(&T) -> bool,
    ) -> Option<(PriorityClass, T)> {
        if self.background_aged(now) {
            if let Some(found) = self.pop_background_fitting(&mut fits) {
                return Some(found);
            }
        }
        let key = self
            .urgent
            .iter()
            .find(|(_, item)| fits(item))
            .map(|(&key, _)| key);
        if let Some(key) = key {
            let item = self.urgent.remove(&key).expect("key came from the map");
            return Some((PriorityClass::Deadline, item));
        }
        self.pop_background_fitting(&mut fits)
    }

    fn pop_background_fitting(
        &mut self,
        fits: &mut impl FnMut(&T) -> bool,
    ) -> Option<(PriorityClass, T)> {
        let idx = self.background.iter().position(|(_, _, item)| fits(item))?;
        let (_, _, item) = self
            .background
            .remove(idx)
            .expect("index came from position");
        Some((PriorityClass::Background, item))
    }

    /// The deadline class in EDF order — the feasibility check walks
    /// this to total the work queued ahead of a candidate deadline.
    pub fn deadline_iter(&self) -> impl Iterator<Item = (Instant, &T)> {
        self.urgent.iter().map(|(&(d, _), item)| (d, item))
    }
}

/// Exponentially-weighted online calibration from the planner's *model*
/// seconds to observed wall-clock seconds, resolved per shape class.
///
/// The cost models price algorithms on a simulated platform's
/// `(α, β, γ)` — the right *relative* signal (which algorithm, which
/// `G`, how many ranks) but not in-process wall time. Feasibility
/// admission needs absolute time, so the scheduler maintains EWMAs of
/// `wall / model` over completed jobs and scales predictions by them.
///
/// A single global ratio systematically mis-prices a mixed workload:
/// small jobs are dominated by per-message overheads the model's `α`
/// under-weights in-process, large jobs by bandwidth and compute the
/// model tracks well, so their true `wall / model` ratios differ by
/// orders of magnitude. The calibration therefore keeps one EWMA per
/// [`ShapeClass`] — the same coarsening the planner memoizes plans
/// under — and falls back to the global EWMA (over *all* completions)
/// until a class has seen its first completion.
#[derive(Clone, Debug)]
pub struct Calibration {
    /// EWMA over every completed plannable job — the fallback for
    /// classes with no completions yet. Starts at the identity.
    global: f64,
    /// Per-class EWMAs; a class's first sample seeds its cell directly
    /// (no decay from the identity), so one completion is enough to
    /// price that class near its own regime.
    per_class: HashMap<ShapeClass, f64>,
}

/// EWMA weight of the newest observation.
const CALIBRATION_ALPHA: f64 = 0.3;

fn fold(ratio: f64, sample: f64) -> f64 {
    (1.0 - CALIBRATION_ALPHA) * ratio + CALIBRATION_ALPHA * sample
}

impl Calibration {
    /// Starts uncalibrated: model seconds are taken at face value until
    /// the first observation.
    pub fn new() -> Self {
        Calibration {
            global: 1.0,
            per_class: HashMap::new(),
        }
    }

    /// Folds in one completed job's `(model prediction, observed wall)`
    /// pair, attributed to `class` when the job was priced under one.
    /// Degenerate observations (non-positive either side) are dropped
    /// rather than poisoning the ratios.
    pub fn observe(&mut self, class: Option<ShapeClass>, model_secs: f64, wall_secs: f64) {
        if model_secs <= 0.0 || wall_secs <= 0.0 {
            return;
        }
        let sample = wall_secs / model_secs;
        self.global = fold(self.global, sample);
        if let Some(class) = class {
            self.per_class
                .entry(class)
                .and_modify(|r| *r = fold(*r, sample))
                .or_insert(sample);
        }
    }

    /// Maps a model prediction to expected wall-clock seconds using the
    /// class's own ratio when that class has completed at least one job,
    /// the global ratio otherwise.
    pub fn wall_secs(&self, class: Option<ShapeClass>, model_secs: f64) -> f64 {
        model_secs * self.ratio_for(class)
    }

    /// The ratio [`Calibration::wall_secs`] would apply for `class`.
    pub fn ratio_for(&self, class: Option<ShapeClass>) -> f64 {
        class
            .and_then(|c| self.per_class.get(&c).copied())
            .unwrap_or(self.global)
    }

    /// The global `wall / model` ratio (EWMA over all completions).
    pub fn ratio(&self) -> f64 {
        self.global
    }
}

impl Default for Calibration {
    fn default() -> Self {
        Self::new()
    }
}

/// The near-square processor grid for an `r`-rank sub-pool: the divisor
/// pair closest to `√r`, rows ≤ cols (the same convention the
/// benchmarks use). Dense and sparse jobs run on any sub-grid — their
/// tiles are dealt by `chunk_range` — so packing never has to reject a
/// sub-pool size.
pub fn subgrid(r: usize) -> GridShape {
    assert!(r >= 1, "a sub-pool has at least one rank");
    let mut s = (r as f64).sqrt() as usize;
    while s > 1 && !r.is_multiple_of(s) {
        s -= 1;
    }
    let s = s.max(1);
    GridShape::new(s, r / s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t0() -> Instant {
        Instant::now()
    }

    #[test]
    fn deadline_jobs_pop_in_edf_order() {
        let now = t0();
        let mut q = ReadyQueue::new(AGING_BOUND);
        q.push_deadline(now + Duration::from_millis(30), "late");
        q.push_deadline(now + Duration::from_millis(10), "soon");
        q.push_deadline(now + Duration::from_millis(20), "mid");
        assert_eq!(q.pop(now), Some((PriorityClass::Deadline, "soon")));
        assert_eq!(q.pop(now), Some((PriorityClass::Deadline, "mid")));
        assert_eq!(q.pop(now), Some((PriorityClass::Deadline, "late")));
        assert_eq!(q.pop(now), None);
    }

    #[test]
    fn background_waits_behind_deadlines_until_aged() {
        let now = t0();
        let mut q = ReadyQueue::new(Duration::from_millis(100));
        q.push_background(now, "bg");
        q.push_deadline(now + Duration::from_secs(1), "dl");
        // Fresh background: the deadline class goes first.
        assert_eq!(q.pop(now), Some((PriorityClass::Deadline, "dl")));
        q.push_deadline(now + Duration::from_secs(2), "dl2");
        // Past the aging bound the background head is promoted even
        // though a deadline job waits.
        let later = now + Duration::from_millis(100);
        assert_eq!(q.pop(later), Some((PriorityClass::Background, "bg")));
        assert_eq!(q.pop(later), Some((PriorityClass::Deadline, "dl2")));
    }

    #[test]
    fn ties_break_by_submission_order() {
        let now = t0();
        let d = now + Duration::from_millis(5);
        let mut q = ReadyQueue::new(AGING_BOUND);
        q.push_deadline(d, 1);
        q.push_deadline(d, 2);
        assert_eq!(q.pop(now), Some((PriorityClass::Deadline, 1)));
        assert_eq!(q.pop(now), Some((PriorityClass::Deadline, 2)));
    }

    #[test]
    fn pop_fitting_respects_priority_within_the_fit() {
        let now = t0();
        let mut q = ReadyQueue::new(AGING_BOUND);
        q.push_deadline(now + Duration::from_millis(1), 16usize);
        q.push_deadline(now + Duration::from_millis(2), 4);
        q.push_background(now, 2);
        // Only 8 ranks left: the 16-rank EDF head does not fit, the
        // 4-rank deadline job is the best fitting choice.
        assert_eq!(
            q.pop_fitting(now, |&r| r <= 8),
            Some((PriorityClass::Deadline, 4))
        );
        // Nothing under 2 ranks but the background job.
        assert_eq!(
            q.pop_fitting(now, |&r| r <= 2),
            Some((PriorityClass::Background, 2))
        );
        assert_eq!(q.len(), 1, "the 16-rank head still waits");
    }

    #[test]
    fn calibration_tracks_the_wall_model_ratio() {
        let mut c = Calibration::new();
        assert_eq!(c.wall_secs(None, 2.0), 2.0, "uncalibrated is identity");
        for _ in 0..64 {
            c.observe(None, 1.0, 3.0);
        }
        assert!((c.ratio() - 3.0).abs() < 0.01, "converges to 3x");
        // Degenerate samples are ignored.
        let before = c.ratio();
        c.observe(None, 0.0, 5.0);
        c.observe(None, 1.0, 0.0);
        assert_eq!(c.ratio(), before);
    }

    #[test]
    fn interleaved_classes_converge_to_their_own_ratios() {
        // A small class running 8× slower than the model and a large
        // class running 2× slower, strictly interleaved: under a single
        // global EWMA each completion drags the shared ratio toward the
        // other regime, so neither class is ever priced correctly. With
        // per-class cells each converges to its own ratio.
        let small = ShapeClass::of(16, 64);
        let large = ShapeClass::of(16, 4096);
        let mut c = Calibration::new();
        for _ in 0..64 {
            c.observe(Some(small), 1.0, 8.0);
            c.observe(Some(large), 1.0, 2.0);
        }
        assert!(
            (c.ratio_for(Some(small)) - 8.0).abs() < 1e-9,
            "small class pinned to its own 8x regime, got {}",
            c.ratio_for(Some(small))
        );
        assert!(
            (c.ratio_for(Some(large)) - 2.0).abs() < 1e-9,
            "large class pinned to its own 2x regime, got {}",
            c.ratio_for(Some(large))
        );
        assert_eq!(
            c.wall_secs(Some(small), 2.0),
            2.0 * c.ratio_for(Some(small))
        );
        // The global EWMA sits strictly between the two regimes and is
        // what an unseen class falls back to.
        let unseen = ShapeClass::of(16, 1 << 20);
        let g = c.ratio_for(Some(unseen));
        assert_eq!(g, c.ratio(), "unseen class falls back to global");
        assert!(g > 2.0 && g < 8.0, "global blends the regimes, got {g}");
    }

    #[test]
    fn subgrids_are_near_square_factorizations() {
        assert_eq!(subgrid(1), GridShape::new(1, 1));
        assert_eq!(subgrid(2), GridShape::new(1, 2));
        assert_eq!(subgrid(4), GridShape::new(2, 2));
        assert_eq!(subgrid(8), GridShape::new(2, 4));
        assert_eq!(subgrid(16), GridShape::new(4, 4));
        assert_eq!(subgrid(7), GridShape::new(1, 7));
    }
}

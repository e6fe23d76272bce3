//! The benchmark's own spans: one per call into a layer, kept in memory
//! and written out when the workload ends.
//!
//! A span has an id, the id of the span that caused it, and the id of
//! the operation (request) it belongs to. The program under test is not
//! instrumented: every span here brackets a call the benchmark makes
//! through a public function. Self time is a span's duration minus the
//! part of it that its direct children cover, so concurrent children
//! (the per-rank spans under one pool run) are not counted twice.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The root span of every operation.
pub const ROOT: &str = "bench.op";

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique within one merged recording; never 0.
    pub id: u32,
    /// Id of the enclosing span; 0 for a root.
    pub parent: u32,
    /// Operation the span belongs to (shared by the whole tree).
    pub op: u32,
    /// `layer.call`, e.g. `core.scatter`.
    pub name: &'static str,
    /// Track the span is drawn on; spans on one lane nest or are disjoint.
    pub lane: u32,
    /// Start, seconds since the recording's epoch.
    pub t0: f64,
    /// End, seconds since the recording's epoch.
    pub t1: f64,
}

impl Span {
    fn dur(&self) -> f64 {
        self.t1 - self.t0
    }
}

/// An in-memory span log. One per recording thread; [`Recorder::absorb`]
/// merges them. Ids are drawn from a per-recorder band so merged logs
/// never collide.
pub struct Recorder {
    epoch: Instant,
    next_id: u32,
    spans: Vec<Span>,
}

/// Ids per recorder band: the log of one thread in one pass stays far
/// below this.
const ID_BAND: u32 = 1 << 26;

impl Recorder {
    /// A recorder whose clock starts at `epoch` and whose ids come from
    /// band `band` (distinct per thread sharing the epoch).
    pub fn new(epoch: Instant, band: u32) -> Recorder {
        Recorder {
            epoch,
            next_id: band * ID_BAND + 1,
            spans: Vec::new(),
        }
    }

    /// Records `[t0, t1]` and returns the new span's id, for its
    /// children to name as parent.
    pub fn push(
        &mut self,
        parent: u32,
        op: u32,
        name: &'static str,
        lane: u32,
        t0: Instant,
        t1: Instant,
    ) -> u32 {
        let id = self.reserve();
        self.push_as(id, parent, op, name, lane, t0, t1);
        id
    }

    /// Reserves the next id without recording, so children can be pushed
    /// before their parent's end is known. Pair with [`Recorder::push_as`].
    pub fn reserve(&mut self) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Records a span under an id taken from [`Recorder::reserve`].
    #[allow(clippy::too_many_arguments)]
    pub fn push_as(
        &mut self,
        id: u32,
        parent: u32,
        op: u32,
        name: &'static str,
        lane: u32,
        t0: Instant,
        t1: Instant,
    ) {
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            lane,
            t0: t0.saturating_duration_since(self.epoch).as_secs_f64(),
            t1: t1.saturating_duration_since(self.epoch).as_secs_f64(),
        });
    }

    /// Moves another thread's spans into this log.
    pub fn absorb(&mut self, other: Recorder) {
        self.spans.extend(other.spans);
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur)
            .collect()
    }

    /// Per-name totals: count, summed duration, summed self time.
    pub fn self_times(&self) -> Vec<SelfRow> {
        let mut children: BTreeMap<u32, Vec<(f64, f64)>> = BTreeMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                children.entry(s.parent).or_default().push((s.t0, s.t1));
            }
        }
        let mut rows: BTreeMap<&'static str, SelfRow> = BTreeMap::new();
        for s in &self.spans {
            let covered = children
                .get_mut(&s.id)
                .map_or(0.0, |c| covered_within(c, s.t0, s.t1));
            let row = rows.entry(s.name).or_insert(SelfRow {
                name: s.name,
                count: 0,
                total_s: 0.0,
                self_s: 0.0,
            });
            row.count += 1;
            row.total_s += s.dur();
            row.self_s += (s.dur() - covered).max(0.0);
        }
        let mut rows: Vec<SelfRow> = rows.into_values().collect();
        rows.sort_by(|a, b| b.total_s.total_cmp(&a.total_s));
        rows
    }

    /// Share of the root spans' time that no child accounts for: the
    /// benchmark's own glue between calls. The per-layer numbers add up
    /// to the end-to-end time only as far as this stays small.
    pub fn closure_resid_frac(&self) -> f64 {
        let rows = self.self_times();
        rows.iter()
            .find(|r| r.name == ROOT)
            .map_or(0.0, |r| crate::stats::ratio(r.self_s, r.total_s))
    }

    /// The self-time table, one row per span name.
    pub fn render_self_times(&self) -> String {
        let rows = self.self_times();
        let root_total = rows
            .iter()
            .find(|r| r.name == ROOT)
            .map_or(0.0, |r| r.total_s);
        let mut out = format!(
            "  {:<24} {:>8} {:>12} {:>12} {:>9}\n",
            "span", "count", "total s", "self s", "self/op"
        );
        for r in &rows {
            let _ = writeln!(
                out,
                "  {:<24} {:>8} {:>12.6} {:>12.6} {:>8.2}%",
                r.name,
                r.count,
                r.total_s,
                r.self_s,
                100.0 * crate::stats::ratio(r.self_s, root_total)
            );
        }
        out
    }

    /// Chrome-trace (Perfetto) JSON: one complete event per span, one
    /// named track per lane, with id/parent/op in `args`.
    pub fn chrome_json(&self, lane_name: impl Fn(u32) -> String) -> String {
        let mut lanes: Vec<u32> = self.spans.iter().map(|s| s.lane).collect();
        lanes.sort_unstable();
        lanes.dedup();
        let mut events: Vec<String> = lanes
            .iter()
            .map(|&l| {
                format!(
                    r#"{{"name":"thread_name","ph":"M","pid":0,"tid":{l},"args":{{"name":"{}"}}}}"#,
                    lane_name(l)
                )
            })
            .collect();
        events.extend(self.spans.iter().map(|s| {
            format!(
                r#"{{"name":"{}","cat":"bench","ph":"X","ts":{:.3},"dur":{:.3},"pid":0,"tid":{},"args":{{"id":{},"parent":{},"op":{}}}}}"#,
                s.name,
                s.t0 * 1e6,
                s.dur() * 1e6,
                s.lane,
                s.id,
                s.parent,
                s.op
            )
        }));
        format!("[\n  {}\n]\n", events.join(",\n  "))
    }
}

/// One row of the self-time table.
#[derive(Clone, Debug, PartialEq)]
pub struct SelfRow {
    /// Span name.
    pub name: &'static str,
    /// Spans of that name.
    pub count: usize,
    /// Their summed duration.
    pub total_s: f64,
    /// Their summed duration not covered by direct children.
    pub self_s: f64,
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_within(intervals: &mut [(f64, f64)], lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut cursor = lo;
    for &(a, b) in intervals.iter() {
        let a = a.max(cursor);
        let b = b.min(hi);
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn at(epoch: Instant, ms: u64) -> Instant {
        epoch + Duration::from_millis(ms)
    }

    /// op [0,100] → a [0,30], run [30,90] → two concurrent ranks
    /// [30,80] and [40,90]; 10 ms of the op is nobody's.
    fn sample() -> Recorder {
        let e = Instant::now();
        let mut r = Recorder::new(e, 0);
        let op = r.reserve();
        r.push(op, 1, "core.scatter", 0, at(e, 0), at(e, 30));
        let run = r.push(op, 1, "runtime.pool_run", 0, at(e, 30), at(e, 90));
        r.push(run, 1, "core.run_planned_gemm", 1, at(e, 30), at(e, 80));
        r.push(run, 1, "core.run_planned_gemm", 2, at(e, 40), at(e, 90));
        r.push_as(op, 0, 1, ROOT, 0, at(e, 0), at(e, 100));
        r
    }

    #[test]
    fn self_time_subtracts_the_union_of_children_not_their_sum() {
        let rows = sample().self_times();
        let get = |n: &str| rows.iter().find(|r| r.name == n).unwrap().clone();
        assert!((get(ROOT).self_s - 0.010).abs() < 1e-9);
        // Two ranks cover [30,90] entirely: the pool run has no self time,
        // although the rank spans sum to 100 ms.
        assert!(get("runtime.pool_run").self_s.abs() < 1e-9);
        assert!((get("core.run_planned_gemm").total_s - 0.100).abs() < 1e-9);
        assert_eq!(get("core.run_planned_gemm").count, 2);
        assert!((sample().closure_resid_frac() - 0.10).abs() < 1e-9);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        assert_eq!(
            covered_within(&mut [(-5.0, 2.0), (1.0, 3.0)], 0.0, 10.0),
            3.0
        );
        assert_eq!(covered_within(&mut [(8.0, 20.0)], 0.0, 10.0), 2.0);
        assert_eq!(covered_within(&mut [], 0.0, 10.0), 0.0);
    }

    #[test]
    fn bands_keep_ids_apart_and_chrome_export_validates() {
        let e = Instant::now();
        let mut a = Recorder::new(e, 0);
        let mut b = Recorder::new(e, 1);
        let ia = a.push(0, 1, ROOT, 0, at(e, 0), at(e, 1));
        let ib = b.push(0, 2, ROOT, 4, at(e, 0), at(e, 1));
        assert_ne!(ia, ib);
        a.absorb(b);
        assert_eq!(a.spans().len(), 2);
        let json = a.chrome_json(|l| format!("lane {l}"));
        hsumma_trace::validate_json(&json).unwrap();
        assert!(json.contains(r#""parent":0"#) && json.contains("lane 4"));
        assert_eq!(a.durations(ROOT).len(), 2);
    }
}

//! Spans and per-call probes, recorded from outside the layer crates.
//!
//! A span wraps one call into a layer's public function: name, start, end,
//! the span that caused it, and the repetition it belongs to. A probe times
//! calls too short or too many to keep one by one (an `Executor::step`, a
//! `VisitedSet::insert`) and keeps count, total and maximum per name. Both
//! stay in memory; the trace file is written once, when the run ends.
//!
//! A tracer that is off runs the wrapped closure and nothing else, so the
//! same repetition code serves the timed window (tracing off) and the
//! traced pass.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a repetition's root.
    pub parent: Option<u32>,
    /// Repetition id: spans of one repetition share it.
    pub rep: u32,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct Probe {
    pub count: u64,
    pub total_ns: u64,
    pub max_ns: u64,
}

impl Probe {
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    rep: u32,
    /// Per-call probes of the current repetition, by name.
    probes: BTreeMap<&'static str, Probe>,
    /// Probes of all repetitions, for the trace file.
    probes_total: BTreeMap<&'static str, Probe>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
            probes: BTreeMap::new(),
            probes_total: BTreeMap::new(),
        }
    }

    /// Starts the next repetition: a fresh id and empty per-call probes.
    pub fn begin_rep(&mut self) -> u32 {
        self.rep += 1;
        self.probes.clear();
        self.rep
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, a child of the span open now.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index as usize].end_ns = self.now_ns();
        out
    }

    /// Times one call of `f` into the probe named `name`.
    pub fn probe<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        for table in [&mut self.probes, &mut self.probes_total] {
            let p = table.entry(name).or_default();
            p.count += 1;
            p.total_ns += ns;
            p.max_ns = p.max_ns.max(ns);
        }
        out
    }

    /// Total duration of the spans named `name` in repetition `rep`, in
    /// nanoseconds (0 if there is none).
    pub fn span_ns(&self, rep: u32, name: &str) -> f64 {
        self.spans
            .iter()
            .rev()
            .take_while(|s| s.rep == rep)
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .sum()
    }

    /// The current repetition's probe named `name` (zero if never hit).
    pub fn probe_of(&self, name: &str) -> Probe {
        self.probes.get(name).copied().unwrap_or_default()
    }

    /// The trace file: every span, and every probe summed over the run.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "spans",
                self.spans
                    .iter()
                    .map(|s| {
                        Json::obj([
                            ("name", Json::from(s.name)),
                            ("start_ns", Json::from(s.start_ns)),
                            ("end_ns", Json::from(s.end_ns)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::from(p as u64)),
                            ),
                            ("rep", Json::from(s.rep as u64)),
                        ])
                    })
                    .collect::<Json>(),
            ),
            (
                "probes",
                Json::Obj(
                    self.probes_total
                        .iter()
                        .map(|(name, p)| {
                            (
                                name.to_string(),
                                Json::obj([
                                    ("count", Json::from(p.count)),
                                    ("total_ns", Json::from(p.total_ns)),
                                    ("max_ns", Json::from(p.max_ns)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_share_the_repetition_id() {
        let mut t = Tracer::new(true);
        let rep = t.begin_rep();
        let out = t.span("rep", |t| {
            t.span("a", |_| std::hint::black_box(1 + 1));
            t.span("b", |t| t.span("a", |_| 5))
        });
        assert_eq!(out, 5);
        let json = t.to_json();
        let spans = json.get("spans").unwrap().as_arr().unwrap();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
        assert_eq!(spans[1].get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(spans[3].get("parent").unwrap().as_f64(), Some(2.0));
        assert!(spans
            .iter()
            .all(|s| s.get("rep").unwrap().as_f64() == Some(1.0)));
        // both spans named "a" count; the root covers its children
        assert!(t.span_ns(rep, "rep") >= t.span_ns(rep, "a") + t.span_ns(rep, "b") - 1.0);
        assert_eq!(t.span_ns(rep, "missing"), 0.0);
        // the next repetition sees none of them
        let next = t.begin_rep();
        assert_eq!(t.span_ns(next, "a"), 0.0);
    }

    #[test]
    fn probes_aggregate_per_repetition_and_in_total() {
        let mut t = Tracer::new(true);
        t.begin_rep();
        for _ in 0..3 {
            t.probe("p", || std::hint::black_box(7));
        }
        assert_eq!(t.probe_of("p").count, 3);
        assert!(t.probe_of("p").max_ns <= t.probe_of("p").total_ns);
        t.begin_rep();
        assert_eq!(t.probe_of("p").count, 0);
        t.probe("p", || ());
        let total = t.to_json();
        let p = total.get("probes").unwrap().get("p").unwrap();
        assert_eq!(p.get("count").unwrap().as_f64(), Some(4.0));
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut t = Tracer::new(false);
        t.begin_rep();
        assert_eq!(t.span("a", |t| t.probe("p", || 3)), 3);
        assert_eq!(t.to_json().get("spans").unwrap().as_arr().unwrap().len(), 0);
        assert_eq!(t.probe_of("p").count, 0);
    }
}

//! In-memory span recorder for the traced run.
//!
//! A span brackets one call the benchmark makes into a layer: it has a
//! layer, a name, a start, an end, a parent (the span open when it
//! started) and the id of the query it belongs to. Spans stay in memory
//! and are written out as JSON lines when the run ends. A span's *self
//! time* is its duration minus the durations of its direct children, so
//! the self times of a query's spans add up to the query's root span.
//! When the recorder is disabled, [`Tracer::span`] only runs its body.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the recorder started.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer (module) the call enters, e.g. `bfs` or `serve`.
    pub layer: &'static str,
    /// The call, e.g. `BfsEngine::run<Tropical>`.
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Query the span belongs to.
    pub query: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; otherwise a pass-through.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    query: u64,
}

impl Tracer {
    /// A recorder that records spans only if `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self { enabled, epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), query: 0 }
    }

    /// Pauses or resumes recording (used to alternate traced and
    /// untraced passes over the same inputs).
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "cannot toggle tracing inside a span");
        self.enabled = enabled;
    }

    /// Sets the query id stamped on spans opened from now on.
    pub fn set_query(&mut self, query: u64) {
        self.query = query;
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            query: self.query,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Self time of every span (its duration minus its direct
    /// children's), in the order the spans were opened.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans.iter().zip(child).map(|(s, c)| s.dur_ns().saturating_sub(c)).collect()
    }

    /// Per-layer `(calls, self ns)` summed over all spans.
    pub fn layer_self_ns(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times_ns()) {
            let e = out.entry(s.layer).or_insert((0, 0));
            e.0 += 1;
            e.1 += t;
        }
        out
    }

    /// Per query: (Σ self ns of its spans, duration ns of its top-level
    /// spans).
    pub fn query_sums_ns(&self) -> BTreeMap<u64, (u64, u64)> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times_ns()) {
            let e = out.entry(s.query).or_insert((0, 0));
            e.0 += t;
            if s.parent.is_none() {
                e.1 += s.dur_ns();
            }
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, t)) in self.spans.iter().zip(self.self_times_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"parent\":{parent},\"query\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{t}}}",
                s.query, s.layer, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn busy(ms: u64) {
        std::thread::sleep(Duration::from_millis(ms));
    }

    #[test]
    fn self_times_add_up_to_the_root_span() {
        let mut tr = Tracer::new(true);
        tr.set_query(7);
        tr.span("bench", "query", |tr| {
            busy(2);
            tr.span("bfs", "run", |tr| {
                busy(3);
                tr.span("simd", "inner", |_| busy(1));
            });
            tr.span("baseline", "trad", |_| busy(2));
        });
        let spans = &tr.spans;
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0));
        assert!(spans.iter().all(|s| s.query == 7));
        let selfs = tr.self_times_ns();
        assert_eq!(selfs.iter().sum::<u64>(), spans[0].dur_ns());
        assert!(selfs[1] >= 3_000_000 && selfs[1] < spans[1].dur_ns());
        let (sum, wall) = tr.query_sums_ns()[&7];
        assert_eq!(sum, wall);
        let layers = tr.layer_self_ns();
        assert_eq!(layers["bfs"].0, 1);
        assert_eq!(layers.values().map(|v| v.1).sum::<u64>(), spans[0].dur_ns());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let v = tr.span("bfs", "run", |tr| tr.span("simd", "x", |_| 5));
        assert_eq!(v, 5);
        assert!(tr.spans.is_empty());
        tr.set_enabled(true);
        tr.span("bfs", "run", |_| ());
        assert_eq!(tr.spans.len(), 1);
    }
}

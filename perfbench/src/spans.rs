//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions, for the traced run only.
//!
//! A span has a name (`<crate>.<call>`), a start and an end relative to
//! the tracer's origin, the span that was open when it started (its
//! parent), an optional query id, and the number of queries it covers.
//! The benchmark is single-threaded on the client side, so spans nest
//! strictly and a parent's self time is its duration minus its
//! children's.

use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub query: Option<u64>,
    pub items: u32,
}

/// Records spans when on; when off, `enter`/`exit` read no clock.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// The handle `Tracer::enter` returns; `None` when tracing is off.
pub type SpanId = Option<usize>;

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            on,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, query: Option<u64>, items: u32) -> SpanId {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            query,
            items,
        });
        self.open.push(id);
        Some(id)
    }

    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        self.spans[id].end_ns = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close in the order they opened");
    }

    /// Runs `f` inside a span that covers no single query.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, None, 1);
        let out = f();
        self.exit(id);
        out
    }

    /// Self time of every span: its duration minus its children's.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.end_ns - s.start_ns;
            }
        }
        own
    }

    /// Self time of each span named `name`, in recording order, divided
    /// by the number of queries it covers.
    pub fn self_times_per_item(&self, name: &str) -> Vec<f64> {
        let own = self.self_ns();
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(s, t)| t as f64 / s.items.max(1) as f64)
            .collect()
    }

    /// For every span named `parent`, the summed self time of its direct
    /// children named `child` — e.g. the tree builds of one set-up.
    pub fn child_self_times(&self, parent: &str, child: &str) -> Vec<f64> {
        let own = self.self_ns();
        let mut sums: Vec<(usize, f64)> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == parent)
            .map(|(i, _)| (i, 0.0))
            .collect();
        for (s, t) in self.spans.iter().zip(&own) {
            if s.name != child {
                continue;
            }
            if let Some(slot) = sums.iter_mut().find(|(i, _)| Some(*i) == s.parent) {
                slot.1 += *t as f64;
            }
        }
        sums.into_iter().map(|(_, t)| t).collect()
    }

    /// Writes every span as one tab-separated line:
    /// `id name start_ns end_ns self_ns parent query items`.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let own = self.self_ns();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "id\tname\tstart_ns\tend_ns\tself_ns\tparent\tquery\titems"
        )?;
        let dash = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
        for (i, (s, t)) in self.spans.iter().zip(own).enumerate() {
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{t}\t{}\t{}\t{}",
                s.name,
                s.start_ns,
                s.end_ns,
                dash(s.parent.map(|p| p as u64)),
                dash(s.query),
                s.items
            )?;
        }
        out.flush()
    }
}

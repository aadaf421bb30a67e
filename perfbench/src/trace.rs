//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's calls into each layer's public
//! functions (nothing inside the program is instrumented). A span's layer is
//! the prefix of its name before the first `.`: `bench` (the benchmark's
//! own work), `serve` (hdc-serve), `exec` (hdc-runtime), `kernel`
//! (hdc-core), `compile` (hdc-passes / hdc-apps constructors) and `data`
//! (hdc-datasets).

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the trace origin.
struct Span {
    name: &'static str,
    /// Variant, window size or kernel shape the span belongs to.
    tag: &'static str,
    start: u64,
    end: u64,
    parent: Option<usize>,
    request: Option<u64>,
}

pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new(origin: Instant) -> Self {
        Trace {
            origin,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished span and return its index (for children).
    pub fn record(
        &mut self,
        name: &'static str,
        tag: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: Option<u64>,
    ) -> usize {
        let span = Span {
            name,
            tag,
            start: self.ns(start),
            end: self.ns(end),
            parent,
            request,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Time `f` as a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        tag: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, usize) {
        let start = Instant::now();
        let out = f();
        let id = self.record(name, tag, start, Instant::now(), parent, None);
        (out, id)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn duration_ms(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        (s.end - s.start) as f64 / 1e6
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals.
    fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, kids)| {
                let mut iv: Vec<(u64, u64)> = kids
                    .iter()
                    .map(|&k| {
                        let c = &self.spans[k];
                        (c.start.max(s.start), c.end.min(s.end))
                    })
                    .filter(|(a, b)| a < b)
                    .collect();
                iv.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start;
                for (a, b) in iv {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end - s.start) - covered
            })
            .collect()
    }

    /// Check that every span lies inside its parent and that, for every
    /// root, the self times of its subtree add up to the root's duration
    /// exactly (children that overlap each other would be counted twice).
    pub fn check_closure(&self) -> Result<(), String> {
        let self_ns = self.self_times();
        let mut subtree_sum = self_ns.clone();
        // Children are always recorded before their parent ends but may be
        // recorded after it is pushed; fold bottom-up by depth.
        let depth = |mut i: usize| {
            let mut d = 0;
            while let Some(p) = self.spans[i].parent {
                i = p;
                d += 1;
            }
            d
        };
        let mut order: Vec<usize> = (0..self.spans.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(depth(i)));
        for &i in &order {
            let s = &self.spans[i];
            if s.end < s.start {
                return Err(format!("span {} ({}) ends before it starts", i, s.name));
            }
            if let Some(p) = s.parent {
                let ps = &self.spans[p];
                if s.start < ps.start || s.end > ps.end {
                    return Err(format!(
                        "span {} ({}) lies outside its parent {} ({})",
                        i, s.name, p, ps.name
                    ));
                }
                subtree_sum[p] += subtree_sum[i];
            }
        }
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent.is_none() && subtree_sum[i] != s.end - s.start {
                return Err(format!(
                    "parts of span {} ({}) add up to {} ns, whole is {} ns",
                    i,
                    s.name,
                    subtree_sum[i],
                    s.end - s.start
                ));
            }
        }
        Ok(())
    }

    /// Total self time per layer, in ms.
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_times()) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *out.entry(layer).or_insert(0.0) += ns as f64 / 1e6;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"tag\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"request\": {}}}",
                s.name,
                s.tag,
                s.start,
                s.end,
                opt(s.parent.map(|p| p as u64)),
                opt(s.request)
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn closure_holds_for_nested_spans_and_catches_escapes() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let mut t = Trace::new(t0);
        let root = t.record("bench.app", "x", at(0), at(100), None, None);
        t.record("exec.new", "x", at(0), at(10), Some(root), None);
        t.record("exec.run", "x", at(20), at(90), Some(root), None);
        assert!(t.check_closure().is_ok());
        let layers = t.self_ms_by_layer();
        assert!((layers["bench"] - 0.020).abs() < 1e-9);
        assert!((layers["exec"] - 0.080).abs() < 1e-9);

        t.record("exec.bind", "x", at(80), at(110), Some(root), None);
        assert!(t.check_closure().is_err());
    }
}

//! In-memory span recorder for the traced run.
//!
//! Spans are opened around calls into the program's public functions,
//! from the benchmark's own code. Each span has a name, start and end
//! (ns since the recorder was made), its parent span and the request it
//! belongs to. They stay in memory until the run ends and are then
//! written out as JSON lines. A span's self time is its duration minus
//! the time its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// Records spans when enabled; when disabled, [`Tracer::span`] only runs
/// the closure, so the same replay code measures the recording overhead.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` under `parent`; returns `f`'s
    /// value and the span's index (`None` when disabled).
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce(&mut Self, Option<usize>) -> T,
    ) -> T {
        if !self.enabled {
            return f(self, None);
        }
        let idx = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        let out = f(self, Some(idx));
        self.spans[idx].end_ns = self.now();
        out
    }

    /// Self time per span name, in ns, with the number of spans.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += (s.end_ns - s.start_ns).saturating_sub(child);
            e.1 += 1;
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("outer", None, 1, |t, me| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            t.span("inner", me, 1, |_, _| {
                std::thread::sleep(std::time::Duration::from_millis(4))
            });
        });
        let times = t.self_times();
        let (outer, n_outer) = times["outer"];
        let (inner, _) = times["inner"];
        assert_eq!(n_outer, 1);
        assert!(inner >= 4_000_000);
        assert!(outer >= 2_000_000);
        let whole = t.spans[0].end_ns - t.spans[0].start_ns;
        assert_eq!(
            outer + inner,
            whole,
            "self time is the span minus its child"
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("x", None, 0, |_, me| {
            assert!(me.is_none());
            7
        });
        assert_eq!(v, 7);
        assert!(t.self_times().is_empty());
    }
}

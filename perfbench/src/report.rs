//! Metric names and units, operation counts, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write;

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("flush_p50_ms", "ms"),
    ("model_ms_per_iter", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, reported by every workload's traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.bound_pass.us_per_query", "us"),
    ("core.bound_pass.ns_per_row", "ns"),
    ("core.bound_pass.model_ns_per_query", "ns"),
    ("par.order.us_per_query", "us"),
    ("mining.refine.us_per_query", "us"),
    ("mining.refine.rows_per_query", "count"),
    ("mining.refine.pruned_share", "share"),
    ("mining.merge.us_per_query", "us"),
    ("serve.queue.p50_us", "us"),
    ("serve.batch.mean_queries", "count"),
    ("core.program.ms_per_shard", "ms"),
    ("serve.open.mirror_ms", "ms"),
    ("core.append_row.us", "us"),
    ("serve.insert.us", "us"),
    ("serve.delete.us", "us"),
    ("serve.flush.ms", "ms"),
    ("serve.delta_rows.mean", "count"),
    ("net.codec.encode_us", "us"),
    ("net.codec.decode_us", "us"),
    ("net.transport.us_per_op", "us"),
    ("net.bytes_per_op", "B"),
    ("mining.kmeans.refresh.ms_per_iter", "ms"),
    ("mining.kmeans.standard.ms_per_iter", "ms"),
    ("mining.kmeans.elkan.ms_per_iter", "ms"),
    ("mining.kmeans.drake.ms_per_iter", "ms"),
    ("mining.kmeans.yinyang.ms_per_iter", "ms"),
    ("mining.kmeans.exact_ed_per_iter", "count"),
    ("mining.kmeans.pruned_share", "share"),
    ("core.prepare.ms", "ms"),
    ("kern.ed.ns_per_dim", "ns"),
    ("scan.us_per_query", "us"),
    ("serve.speedup_vs_scan", "x"),
    ("trace.overhead_share", "share"),
    ("trace.blocking_path_gap_share", "share"),
    ("inputs.gen_s", "s"),
];

/// Kinds of operation a run attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpKind {
    Knn,
    Insert,
    Delete,
    Flush,
    KmeansIter,
}

impl OpKind {
    fn name(self) -> &'static str {
        match self {
            OpKind::Knn => "knn",
            OpKind::Insert => "insert",
            OpKind::Delete => "delete",
            OpKind::Flush => "flush",
            OpKind::KmeansIter => "kmeans_iter",
        }
    }
}

/// Everything one run reports.
#[derive(Default)]
pub struct Report {
    /// attempted, failed
    ops: BTreeMap<OpKind, (u64, u64)>,
    /// Operations answered with a wrong result.
    wrong: u64,
    problems: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
    /// Settings and reference figures, printed but not gated.
    pub notes: Vec<(String, String)>,
}

impl Report {
    /// Counts `n` operations of `kind` with one verdict. An `Err` carries
    /// the reason and whether the program answered (a wrong answer) or
    /// returned an error.
    pub fn count_n(&mut self, kind: OpKind, n: u64, verdict: Result<(), (String, bool)>) {
        let e = self.ops.entry(kind).or_default();
        e.0 += n;
        if let Err((why, answered)) = verdict {
            e.1 += n;
            if answered {
                self.wrong += n;
            }
            if self.problems.len() < 8 {
                self.problems.push(format!("{}: {why}", kind.name()));
            }
        }
    }

    pub fn count(&mut self, kind: OpKind, verdict: Result<(), (String, bool)>) {
        self.count_n(kind, 1, verdict);
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    pub fn correct(&self) -> bool {
        self.wrong == 0
    }

    /// Settings, operation counts and problems, one per line.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.notes {
            let _ = writeln!(out, "# {k} = {v}");
        }
        for (kind, (attempted, failed)) in &self.ops {
            let _ = writeln!(
                out,
                "ops {:<12} attempted {attempted:>8} failed {failed}",
                kind.name()
            );
        }
        for p in &self.problems {
            let _ = writeln!(out, "problem: {p}");
        }
        out
    }

    /// Every metric of the run's table, one per line, followed by the
    /// one-line JSON result. `Err` names a metric the run did not produce.
    pub fn render(&self, traced: bool) -> Result<String, String> {
        let table = if traced { PER_LAYER } else { END_TO_END };
        let mut out = String::new();
        let mut json = String::new();
        for (i, (name, unit)) in table.iter().enumerate() {
            let v = *self
                .metrics
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite ({v})"));
            }
            let _ = writeln!(out, "{name:<40} {v:>16.6} {unit}");
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        let attempted: u64 = self.ops.values().map(|e| e.0).sum();
        let failed: u64 = self.ops.values().map(|e| e.1).sum();
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{json}}}}}",
            self.correct()
        );
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_last_and_counts_failures() {
        let mut r = Report::default();
        for (name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        r.count(OpKind::Knn, Ok(()));
        r.count(OpKind::Knn, Err(("overloaded".into(), false)));
        assert!(
            r.correct(),
            "an error reply is a failure, not a wrong answer"
        );
        r.count(OpKind::Insert, Err(("id 7, expected 6".into(), true)));
        assert!(!r.correct());
        let out = r.render(false).unwrap();
        let last = out.lines().last().unwrap();
        assert!(last.starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 2, "));
        assert!(last.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(r.render(true).is_err(), "per-layer metrics were not set");
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = spec.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }
}

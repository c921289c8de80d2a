//! Metric names and units, the percentile helper, and the result line.

use std::fmt::Write as _;

/// The end-to-end metrics every untraced run prints, with their units.
/// `BENCHMARK.json` lists the same names (a test holds the two together).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("sim_ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("request_p50_ms", "ms"),
    ("request_p99_ms", "ms"),
    ("requests_per_s", "1/s"),
    ("success_rate", "ratio"),
];

/// The per-layer metrics every traced run prints (0 where the workload
/// does not reach the layer), with their units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.queue.events", "count"),
    ("sim.queue.self_ms", "ms"),
    ("sim.queue.ns_per_event", "ns"),
    ("workloads.items", "count"),
    ("workloads.self_ms", "ms"),
    ("core.cpu.calls", "count"),
    ("core.cpu.self_ms", "ms"),
    ("core.system.build_ms", "ms"),
    ("core.system.self_ms", "ms"),
    ("proto.ts_snoop.calls", "count"),
    ("proto.ts_snoop.self_ms", "ms"),
    ("proto.ts_snoop.ns_per_call", "ns"),
    ("proto.dir_classic.calls", "count"),
    ("proto.dir_classic.self_ms", "ms"),
    ("proto.dir_classic.ns_per_call", "ns"),
    ("proto.dir_opt.calls", "count"),
    ("proto.dir_opt.self_ms", "ms"),
    ("proto.dir_opt.ns_per_call", "ns"),
    ("proto.tardis.calls", "count"),
    ("proto.tardis.self_ms", "ms"),
    ("proto.tardis.ns_per_call", "ns"),
    ("proto.misses", "count"),
    ("proto.c2c_fraction", "ratio"),
    ("proto.nack_ratio", "ratio"),
    ("proto.tardis.renewal_ratio", "ratio"),
    ("net.fast.broadcasts", "count"),
    ("net.fast.drains", "count"),
    ("net.fast.self_ms", "ms"),
    ("net.token.broadcasts", "count"),
    ("net.token.drains", "count"),
    ("net.token.poll_yield", "ratio"),
    ("net.token.deliveries", "count"),
    ("net.token.self_ms", "ms"),
    ("net.token.ns_per_delivery", "ns"),
    ("net.token.waves_skipped", "count"),
    ("net.token.ordering_wait_mean_ns", "ns"),
    ("net.unicast.sends.data", "count"),
    ("net.unicast.sends.request", "count"),
    ("net.unicast.sends.forward", "count"),
    ("net.unicast.self_ms", "ms"),
    ("net.traffic.total_bytes", "bytes"),
    ("net.traffic.per_link_max", "bytes"),
    ("experiment.plan_ms", "ms"),
    ("experiment.cell_ms_p50", "ms"),
    ("experiment.cell_ms_max", "ms"),
    ("experiment.worker_busy_frac", "ratio"),
    ("experiment.report_ms", "ms"),
    ("service.submit_ms_p50", "ms"),
    ("service.first_event_ms_p50", "ms"),
    ("service.stream_ms_p50", "ms"),
    ("service.revalidate_ms_p50", "ms"),
    ("service.cold_ms_p50", "ms"),
    ("service.warm_ms_p50", "ms"),
    ("service.requested", "count"),
    ("service.executed", "count"),
    ("service.deduped", "count"),
    ("service.cache_hits", "count"),
    ("service.hit_ratio", "ratio"),
    ("host.nproc", "count"),
    ("host.tracing_overhead_frac", "ratio"),
];

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `samples`, or `None`
/// when there are none. Sorts in place.
pub fn percentile(samples: &mut [f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    Some(samples[rank(samples.len(), p) - 1])
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// percentile `p`. A percentile is only reported as a tail figure when
/// at least ten samples lie beyond it, so p99 needs 1000 samples.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Median of `samples`: the middle one, or the mean of the two middle
/// ones when their count is even (so the median of two is their mean);
/// 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Whether to take another set-up sample, `taken` samples after `start`:
/// for one second, and at least 15 times. A set-up takes well under a
/// millisecond, and on a shared host its time flips between two levels
/// about 1.6× apart in spells of about 100 ms. A second of samples keeps
/// such spells out of their median, `setup_s`; spells that last minutes
/// still move it.
pub fn setting_up(start: std::time::Instant, taken: usize) -> bool {
    taken < 15 || start.elapsed().as_secs_f64() < 1.0
}

/// Operation counts: every simulated cell, request and output check is
/// one attempted operation.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    /// Counts one operation, failed unless `ok`; complains on stderr so a
    /// failed check names itself.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    pub fn success_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }
}

/// The metrics of one run, by name. Setting a name outside the table the
/// run reports is a bug, caught by [`Metrics::render`].
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// The final result line: every metric of `table` in table order,
    /// unset ones as 0 (a layer the workload does not reach).
    pub fn render(&self, table: &[(&str, &str)], ops: Ops) -> String {
        for (name, _) in &self.values {
            assert!(
                table.iter().any(|(n, _)| n == name),
                "metric {name} is not in the table this run reports"
            );
        }
        let mut out = String::new();
        let correct = ops.failed == 0;
        write!(
            out,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            ops.attempted, ops.failed
        )
        .expect("writing to a String cannot fail");
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = self.get(name);
            let value = if value.is_finite() { value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Worker threads, clients and connections are capped at this.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_and_medians() {
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), Some(50.0));
        assert_eq!(percentile(&mut v, 99.0), Some(99.0));
        assert_eq!(percentile(&mut v, 100.0), Some(100.0));
        assert_eq!(percentile(&mut [7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&mut [], 50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn p99_needs_a_thousand_samples_for_ten_beyond() {
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(beyond(2000, 99.0), 20);
        assert_eq!(beyond(100, 50.0), 50);
        assert_eq!(beyond(0, 99.0), 0);
    }

    #[test]
    fn metric_names_and_units_are_well_formed() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(name), "bad metric name {name:?}");
            assert!(unit_ok(unit), "bad unit {unit:?} for {name}");
            assert!(seen.insert(*name), "metric {name} listed twice");
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let text = include_str!("../../BENCHMARK.json");
        let doc: serde_json::Value = serde_json::from_str(text).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Some(serde_json::Value::Array(entries)) = doc.get(key) else {
                panic!("BENCHMARK.json has no {key} list");
            };
            let listed: Vec<(String, String)> = entries
                .iter()
                .map(|e| match (e.get("name"), e.get("unit")) {
                    (Some(serde_json::Value::Str(n)), Some(serde_json::Value::Str(u))) => {
                        (n.clone(), u.clone())
                    }
                    _ => panic!("{key} entry without name/unit: {e:?}"),
                })
                .collect();
            let expected: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, expected, "{key} drifted from the benchmark's table");
        }
    }

    #[test]
    fn result_line_has_every_metric_in_order() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.25);
        m.set("success_rate", 1.0);
        let line = m.render(
            END_TO_END,
            Ops {
                attempted: 3,
                failed: 0,
            },
        );
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        let doc: serde_json::Value = serde_json::from_str(&line).expect("result line is JSON");
        let Some(serde_json::Value::Object(metrics)) = doc.get("metrics") else {
            panic!("no metrics object");
        };
        assert_eq!(metrics.len(), END_TO_END.len());
    }
}

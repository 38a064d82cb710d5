//! Frozen registry views and their deterministic renderings.

use std::fmt::Write as _;

use crate::metrics::bucket_upper_bound;
use crate::span::SpanEvent;

/// FNV-1a offset basis: the hash of no bytes, where a running
/// [`fnv1a_extend`] starts.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a over a byte slice, seeded with the standard offset basis.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_BASIS, bytes)
}

/// Folds `bytes` into the running FNV-1a hash `h`:
/// `fnv1a_extend(fnv1a(a), b)` is `fnv1a` of `a` followed by `b`.
pub fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A histogram frozen at snapshot time. Only non-empty buckets are kept,
/// as `(bucket index, count)` pairs in index order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values (wrapping on overflow).
    pub sum: u64,
    /// Smallest observed value; `None` when no observation was made.
    pub min: Option<u64>,
    /// Largest observed value (0 when empty).
    pub max: u64,
    /// Non-empty log2 buckets, ascending by index.
    pub buckets: Vec<(u8, u64)>,
}

/// Aggregate of all closed spans sharing a name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanSummary {
    /// The span name.
    pub name: &'static str,
    /// Number of closed spans.
    pub count: u64,
    /// Sum of `exit − enter` over closed spans, in logical ticks.
    pub total_ticks: u64,
    /// Largest single span, in logical ticks.
    pub max_ticks: u64,
}

/// One structured warning: first message wins, repeats only count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarningRecord {
    /// Stable warning key (e.g. `"service.bad_dmc_threads"`).
    pub key: &'static str,
    /// Message of the first occurrence.
    pub message: String,
    /// Total occurrences.
    pub count: u64,
}

/// A frozen, name-sorted view of a registry. Produced by
/// [`Obs::snapshot`](crate::Obs::snapshot); all renderings
/// ([`to_jsonl`](Snapshot::to_jsonl),
/// [`to_prometheus`](Snapshot::to_prometheus),
/// [`fnv_hash`](Snapshot::fnv_hash)) are pure functions of the field
/// values, so equal snapshots render byte-identically.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Logical clock at snapshot time.
    pub clock: u64,
    /// Counters, ascending by name.
    pub counters: Vec<(&'static str, u64)>,
    /// Gauges, ascending by name.
    pub gauges: Vec<(&'static str, i64)>,
    /// Histograms, ascending by name.
    pub histograms: Vec<(&'static str, HistogramSnapshot)>,
    /// Span aggregates, ascending by name.
    pub spans: Vec<SpanSummary>,
    /// Individual span events, in recording order (bounded by
    /// [`crate::MAX_SPAN_EVENTS`]).
    pub events: Vec<SpanEvent>,
    /// Span events discarded once the event buffer filled.
    pub events_dropped: u64,
    /// Structured warnings, ascending by key.
    pub warnings: Vec<WarningRecord>,
}

/// Appends `s` as a JSON string literal (with quotes) to `out`.
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Sanitizes a metric name into a Prometheus identifier: prefixes
/// `dmc_` and maps every non-alphanumeric byte to `_`.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    out.push_str("dmc_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

impl Snapshot {
    /// The value of counter `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// The level of gauge `name`, if registered.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// The frozen histogram `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, h)| h)
    }

    /// The span aggregate `name`, if any span with that name closed.
    pub fn span(&self, name: &str) -> Option<&SpanSummary> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Renders the snapshot as JSON lines: one `meta` line, then one
    /// line per counter, gauge, histogram, span aggregate, span event
    /// and warning — in that order, names ascending within each kind.
    /// Byte-deterministic: equal snapshots render identically.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"type\":\"meta\",\"clock\":{},\"events_dropped\":{}}}",
            self.clock, self.events_dropped
        );
        for &(name, v) in &self.counters {
            out.push_str("{\"type\":\"counter\",\"name\":");
            push_json_str(&mut out, name);
            let _ = writeln!(out, ",\"value\":{v}}}");
        }
        for &(name, v) in &self.gauges {
            out.push_str("{\"type\":\"gauge\",\"name\":");
            push_json_str(&mut out, name);
            let _ = writeln!(out, ",\"value\":{v}}}");
        }
        for (name, h) in &self.histograms {
            out.push_str("{\"type\":\"histogram\",\"name\":");
            push_json_str(&mut out, name);
            let _ = write!(out, ",\"count\":{},\"sum\":{}", h.count, h.sum);
            match h.min {
                Some(min) => {
                    let _ = write!(out, ",\"min\":{min}");
                }
                None => out.push_str(",\"min\":null"),
            }
            let _ = write!(out, ",\"max\":{},\"buckets\":[", h.max);
            for (i, &(idx, n)) in h.buckets.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{idx},{n}]");
            }
            out.push_str("]}\n");
        }
        for s in &self.spans {
            out.push_str("{\"type\":\"span\",\"name\":");
            push_json_str(&mut out, s.name);
            let _ = writeln!(
                out,
                ",\"count\":{},\"total_ticks\":{},\"max_ticks\":{}}}",
                s.count, s.total_ticks, s.max_ticks
            );
        }
        for e in &self.events {
            out.push_str("{\"type\":\"event\",\"name\":");
            push_json_str(&mut out, e.name);
            let _ = writeln!(out, ",\"enter\":{},\"exit\":{}}}", e.enter, e.exit);
        }
        for w in &self.warnings {
            out.push_str("{\"type\":\"warning\",\"key\":");
            push_json_str(&mut out, w.key);
            out.push_str(",\"message\":");
            push_json_str(&mut out, &w.message);
            let _ = writeln!(out, ",\"count\":{}}}", w.count);
        }
        out
    }

    /// Renders the snapshot in Prometheus text exposition format. Names
    /// are prefixed `dmc_` and non-alphanumerics become `_`; histograms
    /// emit cumulative `_bucket{le="..."}` series (upper bounds are the
    /// log2 bucket edges `2^i − 1`) plus `_sum` and `_count`; span
    /// aggregates emit `_count` and `_ticks_total`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# TYPE dmc_clock_ticks counter");
        let _ = writeln!(out, "dmc_clock_ticks {}", self.clock);
        for &(name, v) in &self.counters {
            let p = prom_name(name);
            let _ = writeln!(out, "# TYPE {p} counter");
            let _ = writeln!(out, "{p} {v}");
        }
        for &(name, v) in &self.gauges {
            let p = prom_name(name);
            let _ = writeln!(out, "# TYPE {p} gauge");
            let _ = writeln!(out, "{p} {v}");
        }
        for (name, h) in &self.histograms {
            let p = prom_name(name);
            let _ = writeln!(out, "# TYPE {p} histogram");
            let mut cumulative = 0u64;
            for &(idx, n) in &h.buckets {
                cumulative += n;
                let _ = writeln!(
                    out,
                    "{p}_bucket{{le=\"{}\"}} {cumulative}",
                    bucket_upper_bound(idx as usize)
                );
            }
            let _ = writeln!(out, "{p}_bucket{{le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(out, "{p}_sum {}", h.sum);
            let _ = writeln!(out, "{p}_count {}", h.count);
        }
        for s in &self.spans {
            let p = prom_name(s.name);
            let _ = writeln!(out, "# TYPE {p}_spans_count counter");
            let _ = writeln!(out, "{p}_spans_count {}", s.count);
            let _ = writeln!(out, "# TYPE {p}_spans_ticks_total counter");
            let _ = writeln!(out, "{p}_spans_ticks_total {}", s.total_ticks);
        }
        out
    }

    /// FNV-1a hash of the [`to_jsonl`](Snapshot::to_jsonl) rendering —
    /// the replay-pinning fingerprint: bitwise-identical telemetry
    /// across replays and worker counts means identical hashes.
    pub fn fnv_hash(&self) -> u64 {
        fnv1a(self.to_jsonl().as_bytes())
    }

    /// The delta from `before` to `self` (both taken from the same
    /// registry, `self` later). Counters, gauge levels, histogram
    /// counts/sums/buckets, span counts/totals and warning counts
    /// subtract (saturating); histogram `min`/`max` and span `max_ticks`
    /// keep the current value (extremes have no meaningful delta);
    /// metrics whose delta is entirely zero are omitted; events are
    /// the suffix recorded since `before`.
    pub fn diff(&self, before: &Snapshot) -> Snapshot {
        let mut out = Snapshot {
            clock: self.clock.saturating_sub(before.clock),
            ..Snapshot::default()
        };
        for &(name, v) in &self.counters {
            let d = v.saturating_sub(before.counter(name).unwrap_or(0));
            if d > 0 {
                out.counters.push((name, d));
            }
        }
        for &(name, v) in &self.gauges {
            let d = v - before.gauge(name).unwrap_or(0);
            if d != 0 {
                out.gauges.push((name, d));
            }
        }
        for (name, h) in &self.histograms {
            let empty = HistogramSnapshot::default();
            let b = before.histogram(name).unwrap_or(&empty);
            let count = h.count.saturating_sub(b.count);
            if count == 0 {
                continue;
            }
            let mut buckets = Vec::new();
            for &(idx, n) in &h.buckets {
                let prev = b
                    .buckets
                    .iter()
                    .find(|&&(i, _)| i == idx)
                    .map_or(0, |&(_, n)| n);
                let d = n.saturating_sub(prev);
                if d > 0 {
                    buckets.push((idx, d));
                }
            }
            out.histograms.push((
                name,
                HistogramSnapshot {
                    count,
                    sum: h.sum.wrapping_sub(b.sum),
                    min: h.min,
                    max: h.max,
                    buckets,
                },
            ));
        }
        for s in &self.spans {
            let (bc, bt) = before
                .span(s.name)
                .map_or((0, 0), |b| (b.count, b.total_ticks));
            let count = s.count.saturating_sub(bc);
            if count > 0 {
                out.spans.push(SpanSummary {
                    name: s.name,
                    count,
                    total_ticks: s.total_ticks.saturating_sub(bt),
                    max_ticks: s.max_ticks,
                });
            }
        }
        if self.events.len() >= before.events.len() {
            out.events = self.events[before.events.len()..].to_vec();
        }
        out.events_dropped = self.events_dropped.saturating_sub(before.events_dropped);
        for w in &self.warnings {
            let prev = before
                .warnings
                .iter()
                .find(|b| b.key == w.key)
                .map_or(0, |b| b.count);
            let count = w.count.saturating_sub(prev);
            if count > 0 {
                out.warnings.push(WarningRecord {
                    key: w.key,
                    message: w.message.clone(),
                    count,
                });
            }
        }
        out
    }

    /// Merges `other` into `self` by the same rules as
    /// [`Obs::absorb`](crate::Obs::absorb): counts add, extremes fold,
    /// events append, clocks add. Useful for combining already-frozen
    /// per-fork snapshots without a live registry.
    pub fn absorb(&mut self, other: &Snapshot) {
        fn merge_by_name<T: Clone>(
            dst: &mut Vec<(&'static str, T)>,
            src: &[(&'static str, T)],
            fold: impl Fn(&mut T, &T),
        ) {
            for (name, v) in src {
                match dst.iter_mut().find(|(n, _)| n == name) {
                    Some((_, existing)) => fold(existing, v),
                    None => dst.push((name, v.clone())),
                }
            }
            dst.sort_by_key(|&(n, _)| n);
        }
        self.clock += other.clock;
        merge_by_name(&mut self.counters, &other.counters, |a, b| *a += *b);
        merge_by_name(&mut self.gauges, &other.gauges, |a, b| *a += *b);
        merge_by_name(&mut self.histograms, &other.histograms, |a, b| {
            a.count += b.count;
            a.sum = a.sum.wrapping_add(b.sum);
            a.min = match (a.min, b.min) {
                (Some(x), Some(y)) => Some(x.min(y)),
                (x, y) => x.or(y),
            };
            a.max = a.max.max(b.max);
            for &(idx, n) in &b.buckets {
                match a.buckets.iter_mut().find(|(i, _)| *i == idx) {
                    Some((_, existing)) => *existing += n,
                    None => a.buckets.push((idx, n)),
                }
            }
            a.buckets.sort_by_key(|&(i, _)| i);
        });
        for s in &other.spans {
            match self.spans.iter_mut().find(|d| d.name == s.name) {
                Some(d) => {
                    d.count += s.count;
                    d.total_ticks += s.total_ticks;
                    d.max_ticks = d.max_ticks.max(s.max_ticks);
                }
                None => self.spans.push(*s),
            }
        }
        self.spans.sort_by_key(|s| s.name);
        for e in &other.events {
            if self.events.len() < crate::MAX_SPAN_EVENTS {
                self.events.push(*e);
            } else {
                self.events_dropped += 1;
            }
        }
        self.events_dropped += other.events_dropped;
        for w in &other.warnings {
            match self.warnings.iter_mut().find(|d| d.key == w.key) {
                Some(d) => d.count += w.count,
                None => self.warnings.push(w.clone()),
            }
        }
        self.warnings.sort_by(|a, b| a.key.cmp(b.key));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Obs;

    fn sample() -> Obs {
        let obs = Obs::enabled();
        obs.counter("b.second").add(2);
        obs.counter("a.first").add(1);
        obs.gauge("depth").add(3);
        let h = obs.histogram("latency");
        for v in [0u64, 1, 5, 5, 300] {
            h.record(v);
        }
        {
            let _s = obs.span("work");
            obs.advance(7);
        }
        obs.warn_once("w.key", "some \"quoted\" detail\n".into());
        obs
    }

    #[test]
    fn jsonl_is_sorted_typed_and_escaped() {
        let text = sample().snapshot().to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines[0],
            "{\"type\":\"meta\",\"clock\":7,\"events_dropped\":0}"
        );
        assert_eq!(
            lines[1],
            "{\"type\":\"counter\",\"name\":\"a.first\",\"value\":1}"
        );
        assert_eq!(
            lines[2],
            "{\"type\":\"counter\",\"name\":\"b.second\",\"value\":2}"
        );
        assert_eq!(
            lines[3],
            "{\"type\":\"gauge\",\"name\":\"depth\",\"value\":3}"
        );
        assert_eq!(
            lines[4],
            "{\"type\":\"histogram\",\"name\":\"latency\",\"count\":5,\"sum\":311,\
             \"min\":0,\"max\":300,\"buckets\":[[0,1],[1,1],[3,2],[9,1]]}"
        );
        assert_eq!(
            lines[5],
            "{\"type\":\"span\",\"name\":\"work\",\"count\":1,\"total_ticks\":7,\"max_ticks\":7}"
        );
        assert_eq!(
            lines[6],
            "{\"type\":\"event\",\"name\":\"work\",\"enter\":0,\"exit\":7}"
        );
        assert_eq!(
            lines[7],
            "{\"type\":\"warning\",\"key\":\"w.key\",\
             \"message\":\"some \\\"quoted\\\" detail\\n\",\"count\":1}"
        );
        assert_eq!(lines.len(), 8);
    }

    #[test]
    fn prometheus_buckets_are_cumulative_with_log2_edges() {
        let text = sample().snapshot().to_prometheus();
        assert!(text.contains("# TYPE dmc_latency histogram"));
        assert!(text.contains("dmc_latency_bucket{le=\"0\"} 1"));
        assert!(text.contains("dmc_latency_bucket{le=\"1\"} 2"));
        assert!(text.contains("dmc_latency_bucket{le=\"7\"} 4"));
        assert!(text.contains("dmc_latency_bucket{le=\"511\"} 5"));
        assert!(text.contains("dmc_latency_bucket{le=\"+Inf\"} 5"));
        assert!(text.contains("dmc_latency_sum 311"));
        assert!(text.contains("dmc_latency_count 5"));
        assert!(text.contains("dmc_a_first 1"));
        assert!(text.contains("dmc_work_spans_ticks_total 7"));
    }

    #[test]
    fn fnv_hash_is_stable_and_input_sensitive() {
        let a = sample().snapshot();
        let b = sample().snapshot();
        assert_eq!(a.fnv_hash(), b.fnv_hash());
        let other = Obs::enabled();
        other.counter("a.first").add(2);
        assert_ne!(a.fnv_hash(), other.snapshot().fnv_hash());
        // Pin the FNV-1a primitive itself against the workspace constants.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_extend(fnv1a(b"ab"), b"cd"), fnv1a(b"abcd"));
    }

    #[test]
    fn diff_subtracts_and_drops_zero_deltas() {
        let obs = Obs::enabled();
        obs.counter("grow").add(3);
        obs.counter("idle").add(9);
        obs.histogram("h").record(4);
        let before = obs.snapshot();
        obs.counter("grow").add(2);
        obs.histogram("h").record(16);
        obs.advance(5);
        let delta = obs.diff(&before);
        assert_eq!(delta.clock, 5);
        assert_eq!(delta.counter("grow"), Some(2));
        assert_eq!(delta.counter("idle"), None);
        let h = delta.histogram("h").expect("h grew in the delta window");
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 16);
        assert_eq!(h.buckets, vec![(5, 1)]);
        // A self-diff is empty apart from extremes-free structure.
        let now = obs.snapshot();
        let zero = now.diff(&now);
        assert!(zero.counters.is_empty() && zero.histograms.is_empty());
        assert_eq!(zero.clock, 0);
    }

    #[test]
    fn snapshot_absorb_matches_registry_absorb() {
        let a = sample().snapshot();
        let b = sample().snapshot();
        let mut frozen = a.clone();
        frozen.absorb(&b);
        let live = Obs::enabled();
        live.absorb(&a);
        live.absorb(&b);
        assert_eq!(frozen.fnv_hash(), live.snapshot().fnv_hash());
    }
}

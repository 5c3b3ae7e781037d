//! Deterministic, cycle-clocked observability for the FsEncr datapath.
//!
//! The paper's evaluation is a story about *where cycles go* — pad
//! generation overlapped with data fetch, metadata-cache misses, Merkle
//! walks, OTT spills, Osiris write-through. This crate provides the two
//! primitives the simulator threads through those points:
//!
//! * a hierarchical **metrics registry** ([`Observer::add`] /
//!   [`Observer::incr`]) keyed by `/`-separated static paths such as
//!   `ctrl/read/pad_mem_cycles`, iterated in sorted key order, and
//! * a bounded **span ring** ([`Observer::span`]) of `[begin, end)`
//!   intervals on the *simulated* cycle clock, exportable as a
//!   `chrome://tracing` / Perfetto document.
//!
//! Determinism is the design constraint: there is no `Instant`, no
//! `SystemTime`, no hash-ordered container and no thread identity
//! anywhere in this crate. Every recorded value derives from simulated
//! cycles supplied by the caller, so output is byte-identical at any
//! `--jobs` worker count and under adversarial scheduler interleavings.
//!
//! It is the simulator's one event stream: the machine records its
//! lifecycle events (page faults, key installs, shreds, crashes,
//! recoveries) here too, as zero-length `machine`-category spans. A
//! disabled observer early-returns from every record call, so the hot
//! path pays one predictable branch.
//!
//! # Examples
//!
//! ```
//! use fsencr_obs::Observer;
//!
//! let mut obs = Observer::disabled();
//! obs.add("ctrl/read/pad_mem_cycles", 90); // no-op while disabled
//! obs.enable(16);
//! obs.add("ctrl/read/pad_mem_cycles", 90);
//! obs.span("ctrl", "read_line", 100, 190, 0);
//! assert_eq!(obs.metric("ctrl/read/pad_mem_cycles"), 90);
//! assert!(obs.to_chrome_trace().contains("read_line"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;

/// One recorded interval on the simulated cycle clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Category (chrome-trace `cat`), e.g. `"ctrl"` or `"meta"`.
    pub cat: &'static str,
    /// Event name (chrome-trace `name`), e.g. `"read_line"`.
    pub name: &'static str,
    /// First cycle covered by the span.
    pub begin: u64,
    /// One past the last cycle covered (`end >= begin`; enforced on
    /// record by saturation, never by panicking).
    pub end: u64,
    /// Free-form argument (an address, a depth, a byte count).
    pub arg: u64,
}

impl SpanEvent {
    /// Span duration in cycles (`end - begin`, saturating).
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.begin)
    }
}

/// Deterministic metrics registry plus bounded span recording.
///
/// Construct with [`Observer::disabled`]; every mutation is a no-op
/// until [`Observer::enable`] is called, and disabling again drops all
/// recorded state. Metric keys iterate in sorted order and spans in
/// record order, so every export is byte-stable.
#[derive(Debug, Clone, Default)]
pub struct Observer {
    enabled: bool,
    metrics: BTreeMap<&'static str, u64>,
    spans: Vec<SpanEvent>,
    span_capacity: usize,
    spans_dropped: u64,
}

impl Observer {
    /// Creates a disabled observer (the near-zero-cost default).
    pub fn disabled() -> Self {
        Observer::default()
    }

    /// Enables recording, clearing any previous state. `span_capacity`
    /// bounds the span ring; `0` keeps metrics only (spans are
    /// counted-and-dropped rather than stored).
    pub fn enable(&mut self, span_capacity: usize) {
        self.clear();
        self.enabled = true;
        self.span_capacity = span_capacity;
    }

    /// Disables recording and drops all recorded state.
    pub fn disable(&mut self) {
        self.clear();
        self.enabled = false;
        self.span_capacity = 0;
    }

    /// Whether recording is active.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Drops all recorded metrics and spans, keeping the enable state.
    pub fn clear(&mut self) {
        self.metrics.clear();
        self.spans.clear();
        self.spans_dropped = 0;
    }

    /// Adds `n` to the metric at `key` (no-op while disabled).
    ///
    /// Keys are `/`-separated paths, e.g. `meta/mecb/hits`. Additions
    /// saturate rather than wrap so a pathological run cannot panic.
    #[inline]
    pub fn add(&mut self, key: &'static str, n: u64) {
        if !self.enabled {
            return;
        }
        let slot = self.metrics.entry(key).or_insert(0);
        *slot = slot.saturating_add(n);
    }

    /// Increments the metric at `key` by one (no-op while disabled).
    #[inline]
    pub fn incr(&mut self, key: &'static str) {
        self.add(key, 1);
    }

    /// Records the maximum of the current value and `n` at `key`
    /// (no-op while disabled). Useful for high-water marks such as the
    /// deepest Merkle climb observed.
    #[inline]
    pub fn record_max(&mut self, key: &'static str, n: u64) {
        if !self.enabled {
            return;
        }
        let slot = self.metrics.entry(key).or_insert(0);
        *slot = (*slot).max(n);
    }

    /// Records a `[begin, end)` span (no-op while disabled). Once the
    /// ring is full, further spans are counted in
    /// [`Observer::spans_dropped`] instead of stored, keeping memory
    /// bounded and the stored prefix deterministic.
    #[inline]
    pub fn span(&mut self, cat: &'static str, name: &'static str, begin: u64, end: u64, arg: u64) {
        if !self.enabled {
            return;
        }
        if self.spans.len() >= self.span_capacity {
            self.spans_dropped = self.spans_dropped.saturating_add(1);
            return;
        }
        self.spans.push(SpanEvent {
            cat,
            name,
            begin,
            end: end.max(begin),
            arg,
        });
    }

    /// Current value of the metric at `key` (0 when absent).
    pub fn metric(&self, key: &str) -> u64 {
        self.metrics.get(key).copied().unwrap_or(0)
    }

    /// All metrics in sorted key order.
    pub fn metrics(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.metrics.iter().map(|(&k, &v)| (k, v))
    }

    /// Recorded spans in record order.
    pub fn spans(&self) -> impl Iterator<Item = &SpanEvent> {
        self.spans.iter()
    }

    /// Spans discarded because the ring was full.
    pub fn spans_dropped(&self) -> u64 {
        self.spans_dropped
    }

    /// Folds another observer's metrics and spans into this one —
    /// the aggregation primitive for per-cell observers. Metrics add;
    /// spans append (still bounded by this observer's capacity).
    pub fn merge(&mut self, other: &Observer) {
        if !self.enabled {
            return;
        }
        for (k, v) in other.metrics() {
            self.add(k, v);
        }
        for s in other.spans() {
            self.span(s.cat, s.name, s.begin, s.end, s.arg);
        }
        self.spans_dropped = self.spans_dropped.saturating_add(other.spans_dropped);
    }

    /// Renders metrics (and span accounting) as a small JSON document:
    ///
    /// ```json
    /// {
    ///   "metrics": { "ctrl/reads": 12, ... },
    ///   "spans_recorded": 3,
    ///   "spans_dropped": 0
    /// }
    /// ```
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"metrics\": {");
        let mut first = true;
        for (k, v) in self.metrics() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("\n    ");
            out.push_str(&json_string(k));
            out.push_str(": ");
            out.push_str(&v.to_string());
        }
        if !first {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"spans_recorded\": ");
        out.push_str(&self.spans.len().to_string());
        out.push_str(",\n  \"spans_dropped\": ");
        out.push_str(&self.spans_dropped.to_string());
        out.push_str("\n}\n");
        out
    }

    /// Renders spans as a `chrome://tracing` / Perfetto JSON array of
    /// complete (`"ph": "X"`) events. Timestamps are simulated cycles
    /// (the importer's microsecond axis reads as cycles).
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n  {\"name\": ");
            out.push_str(&json_string(s.name));
            out.push_str(", \"cat\": ");
            out.push_str(&json_string(s.cat));
            out.push_str(", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": ");
            out.push_str(&s.begin.to_string());
            out.push_str(", \"dur\": ");
            out.push_str(&s.duration().to_string());
            out.push_str(", \"args\": {\"arg\": ");
            out.push_str(&s.arg.to_string());
            out.push_str("}}");
        }
        out.push_str("\n]\n");
        out
    }
}

/// Escapes a string as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str("\\u");
                let code = c as u32;
                for shift in [12u32, 8, 4, 0] {
                    let digit = (code >> shift) & 0xF;
                    let ch = char::from_digit(digit, 16).unwrap_or('0');
                    out.push(ch);
                }
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_observer_records_nothing() {
        let mut obs = Observer::disabled();
        obs.incr("a/b");
        obs.add("a/c", 5);
        obs.span("cat", "ev", 0, 10, 0);
        assert!(!obs.is_enabled());
        assert_eq!(obs.metric("a/b"), 0);
        assert_eq!(obs.metrics().count(), 0);
        assert_eq!(obs.spans().count(), 0);
    }

    #[test]
    fn metrics_accumulate_and_sort() {
        let mut obs = Observer::disabled();
        obs.enable(0);
        obs.add("z/last", 1);
        obs.incr("a/first");
        obs.incr("a/first");
        obs.record_max("m/depth", 3);
        obs.record_max("m/depth", 2);
        let rows: Vec<_> = obs.metrics().collect();
        assert_eq!(rows, vec![("a/first", 2), ("m/depth", 3), ("z/last", 1)]);
    }

    #[test]
    fn span_ring_is_bounded_and_counts_drops() {
        let mut obs = Observer::disabled();
        obs.enable(2);
        obs.span("c", "a", 0, 5, 0);
        obs.span("c", "b", 5, 9, 1);
        obs.span("c", "overflow", 9, 12, 2);
        assert_eq!(obs.spans().count(), 2);
        assert_eq!(obs.spans_dropped(), 1);
        // end < begin saturates instead of panicking.
        obs.enable(1);
        obs.span("c", "backwards", 10, 3, 0);
        let s = obs.spans().next().unwrap();
        assert_eq!((s.begin, s.end, s.duration()), (10, 10, 0));
    }

    #[test]
    fn enable_clears_and_disable_drops() {
        let mut obs = Observer::disabled();
        obs.enable(4);
        obs.incr("k");
        obs.enable(4);
        assert_eq!(obs.metric("k"), 0);
        obs.incr("k");
        obs.disable();
        assert_eq!(obs.metric("k"), 0);
        obs.incr("k");
        assert_eq!(obs.metric("k"), 0);
    }

    #[test]
    fn merge_folds_metrics_and_spans() {
        let mut a = Observer::disabled();
        a.enable(8);
        a.add("n", 1);
        a.span("c", "x", 0, 1, 0);
        let mut b = Observer::disabled();
        b.enable(8);
        b.add("n", 2);
        b.add("only_b", 7);
        b.span("c", "y", 1, 2, 0);
        a.merge(&b);
        assert_eq!(a.metric("n"), 3);
        assert_eq!(a.metric("only_b"), 7);
        assert_eq!(a.spans().count(), 2);
    }

    #[test]
    fn json_export_is_stable_and_escaped() {
        let mut obs = Observer::disabled();
        obs.enable(4);
        obs.add("meta/mecb/hits", 10);
        obs.add("ctrl/reads", 2);
        obs.span("ctrl", "read_line", 100, 190, 42);
        let a = obs.to_json();
        let b = obs.to_json();
        assert_eq!(a, b);
        // Sorted key order.
        let ctrl = a.find("ctrl/reads").unwrap();
        let meta = a.find("meta/mecb/hits").unwrap();
        assert!(ctrl < meta, "{a}");
        assert_eq!(a.matches('{').count(), a.matches('}').count());

        let trace = obs.to_chrome_trace();
        assert!(trace.contains("\"ph\": \"X\""));
        assert!(trace.contains("\"ts\": 100"));
        assert!(trace.contains("\"dur\": 90"));
        assert_eq!(trace.matches('[').count(), trace.matches(']').count());
        assert_eq!(
            json_string("a\"b\\c\nd\te\u{1}"),
            "\"a\\\"b\\\\c\\nd\\te\\u0001\""
        );
    }

    #[test]
    fn empty_exports_are_well_formed() {
        let mut obs = Observer::disabled();
        obs.enable(0);
        assert_eq!(obs.to_json(), "{\n  \"metrics\": {},\n  \"spans_recorded\": 0,\n  \"spans_dropped\": 0\n}\n");
        assert_eq!(obs.to_chrome_trace(), "[\n]\n");
    }
}

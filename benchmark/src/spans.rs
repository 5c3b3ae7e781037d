//! In-memory host-time spans around the public calls the benchmark makes
//! into each layer. Spans stay in memory and are written out once, as a
//! `chrome://tracing` document, when a traced run ends.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Id of the implicit root span; top-level spans name it as parent.
pub const ROOT: u64 = 0;

/// One timed interval on the host clock.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (starts at 1).
    pub id: u64,
    /// Id of the span that caused this one ([`ROOT`] for top level).
    pub parent: u64,
    /// The layer the called code belongs to (a crate name or `bench`).
    pub layer: &'static str,
    /// What was called, e.g. `setup Fillrandom-S [fsencr]`.
    pub name: String,
    /// Small per-thread number, so concurrent cells draw on separate rows.
    pub tid: u64,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// Thread-safe span recorder.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            next_id: AtomicU64::new(ROOT + 1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Spans {
    /// Runs `f` inside a new span under `parent`. `f` receives the new
    /// span's id so nested calls can name it as their parent. Returns
    /// `f`'s result and the span's duration in seconds.
    pub fn time<T>(
        &self,
        parent: u64,
        layer: &'static str,
        name: impl Into<String>,
        f: impl FnOnce(u64) -> T,
    ) -> (T, f64) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        let ns = |t: Instant| {
            u64::try_from(t.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
        };
        self.spans.lock().expect("span lock poisoned").push(Span {
            id,
            parent,
            layer,
            name: name.into(),
            tid: TID.with(|t| *t),
            start_ns: ns(start),
            end_ns: ns(end),
        });
        (out, end.duration_since(start).as_secs_f64())
    }

    /// Every span recorded so far, ordered by start time.
    pub fn snapshot(&self) -> Vec<Span> {
        let mut out = self.spans.lock().expect("span lock poisoned").clone();
        out.sort_by_key(|s| (s.start_ns, s.id));
        out
    }

    /// Self time per layer over the span `root` and everything under it,
    /// in seconds: each span's duration minus the time its direct
    /// children cover.
    pub fn self_seconds_by_layer(&self, root: u64) -> BTreeMap<&'static str, f64> {
        let all = self.snapshot();
        let mut inside = BTreeSet::from([root]);
        let mut spans: Vec<&Span> = Vec::new();
        // Sorted by start time, so a parent is met before its children.
        for s in &all {
            if s.id == root || inside.contains(&s.parent) {
                inside.insert(s.id);
                spans.push(s);
            }
        }
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &spans {
            *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
        }
        let mut out = BTreeMap::new();
        for s in spans {
            let own =
                (s.end_ns - s.start_ns).saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            *out.entry(s.layer).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// The spans as a `chrome://tracing` / Perfetto JSON document
    /// (microsecond timestamps).
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [");
        for (i, s) in self.snapshot().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n  {{\"name\": {}, \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {}, \"dur\": {}, \"args\": {{\"id\": {}, \"parent\": {}}}}}",
                json_string(&s.name),
                s.layer,
                s.tid,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.id,
                s.parent,
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Escapes `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
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
    fn nested_spans_split_self_time_by_layer() {
        let spans = Spans::default();
        let ((), _) = spans.time(ROOT, "bench", "outer", |outer| {
            spans.time(outer, "crypto", "inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        spans.time(ROOT, "nvm", "outside", |_| ());
        let all = spans.snapshot();
        assert_eq!(all.len(), 3);
        assert_eq!(all[1].parent, all[0].id);
        let by_layer = spans.self_seconds_by_layer(all[0].id);
        assert!(by_layer["crypto"] >= 0.02);
        assert!(by_layer["bench"] < by_layer["crypto"]);
        assert!(!by_layer.contains_key("nvm"), "{by_layer:?}");
        assert!(spans.self_seconds_by_layer(ROOT).contains_key("nvm"));
        let trace = spans.to_chrome_trace();
        assert!(trace.contains("\"cat\": \"crypto\""), "{trace}");
        assert_eq!(json_string("a\"b\n"), "\"a\\\"b\\u000a\"");
    }
}

//! In-memory spans for the traced run.
//!
//! A span is recorded by the benchmark around a call into one layer's
//! public API: its name (`<layer>.<what>`), start and end on the run's
//! clock, the name of the span that caused it, and the request, epoch or
//! delta id it belongs to. A child links to its parent by `(parent, id)`.
//! Spans stay in memory and are written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Name of the causing span; empty for a root.
    pub parent: &'static str,
    pub id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// A span buffer on one thread, on a clock shared by every buffer of the
/// run.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(origin: Instant) -> Self {
        Spans {
            origin,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the run's origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn push(
        &mut self,
        name: &'static str,
        parent: &'static str,
        id: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.spans.push(Span {
            name,
            parent,
            id,
            start_ns,
            end_ns,
        });
    }

    /// Runs `f` inside a span and returns its result and duration in ns.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: &'static str,
        id: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.push(name, parent, id, start, end);
        (out, end - start)
    }

    pub fn extend(&mut self, other: Spans) {
        self.spans.extend(other.spans);
    }
}

/// Self time of every span: its duration minus the time its children
/// cover (children are matched by parent name and id; overlapping children
/// are not double-counted beyond the parent's duration).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_sum: BTreeMap<(&'static str, u64), u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| !s.parent.is_empty()) {
        *child_sum.entry((s.parent, s.id)).or_default() += s.dur_ns();
    }
    // A (name, id) pair can be recorded several times (one per batch or
    // instance); split the children's time across them in proportion.
    let mut own_sum: BTreeMap<(&'static str, u64), u64> = BTreeMap::new();
    for s in spans {
        *own_sum.entry((s.name, s.id)).or_default() += s.dur_ns();
    }
    spans
        .iter()
        .map(|s| {
            let key = (s.name, s.id);
            let children = child_sum.get(&key).copied().unwrap_or(0) as f64;
            let own = own_sum[&key].max(1) as f64;
            let share = children * s.dur_ns() as f64 / own;
            s.dur_ns().saturating_sub(share.round() as u64)
        })
        .collect()
}

/// Total self time per layer, in ns.
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer()).or_default() += self_ns;
    }
    out
}

/// Writes the spans as JSON lines, one per span, flushing before return.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"name\":\"{}\",\"parent\":\"{}\",\"id\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.parent, s.id, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            Span {
                name: "a.root",
                parent: "",
                id: 1,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                name: "b.child",
                parent: "a.root",
                id: 1,
                start_ns: 10,
                end_ns: 40,
            },
        ];
        assert_eq!(self_times(&spans), vec![70, 30]);
        let layers = layer_self_ns(&spans);
        assert_eq!(layers["a"], 70);
        assert_eq!(layers["b"], 30);
    }
}

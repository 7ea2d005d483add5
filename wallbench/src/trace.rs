//! In-memory spans recorded by the benchmark around calls into each layer.
//!
//! A span has a name, a start, an end, the span that was open when it
//! began, and the query it served. Spans stay in memory until the run
//! ends; [`Tracer::breakdown`] then turns them into self times, and
//! [`Tracer::unattributed_s`] states the wall time no span covers.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
    pub parent: Option<usize>,
    pub query: Option<u64>,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Self time of every span with one name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SelfTime {
    pub calls: usize,
    pub total_s: f64,
    pub self_s: f64,
}

/// Records spans while enabled; a disabled tracer only calls through.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switch recording on or off between calls (never inside a span).
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "tracing toggled inside a span");
        self.enabled = enabled;
    }

    /// Run `f` inside a span called `name`, serving `query` if any.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        query: Option<u64>,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_s: self.origin.elapsed().as_secs_f64(),
            end_s: 0.0,
            parent: self.open.last().copied(),
            query,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_s = self.origin.elapsed().as_secs_f64();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_s)
            .collect()
    }

    /// Per-name calls, inclusive time and self time (inclusive time minus
    /// the time the span's children cover), ordered by name.
    pub fn breakdown(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_s = vec![0.0f64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_s[p] += span.duration_s();
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(child_s) {
            let entry = out.entry(span.name).or_default();
            entry.calls += 1;
            entry.total_s += span.duration_s();
            entry.self_s += span.duration_s() - covered;
        }
        out
    }

    /// Seconds since the tracer was created that no top-level span covers.
    pub fn unattributed_s(&self) -> f64 {
        let covered: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration_s)
            .sum();
        self.origin.elapsed().as_secs_f64() - covered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::new(true);
        tr.span("outer", None, |tr| {
            tr.span("inner", Some(3), |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let b = tr.breakdown();
        let outer = &b["outer"];
        let inner = &b["inner"];
        assert_eq!((outer.calls, inner.calls), (1, 1));
        assert!(inner.total_s >= 0.005);
        assert!((outer.total_s - outer.self_s - inner.total_s).abs() < 1e-12);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert_eq!(tr.spans()[1].query, Some(3));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("x", None, |_| 7), 7);
        assert!(tr.spans().is_empty());
    }
}

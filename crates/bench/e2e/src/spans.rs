//! Benchmark-owned spans: name, start, end and parent, kept in memory and
//! written out when the run ends. The program under test is not
//! instrumented; each span wraps one call into a layer crate.

use std::fmt::Write as _;
use std::time::Instant;

/// One finished (or open) span. Times are nanoseconds since the
/// recorder's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `algebra.execute`, or op type for a root span.
    pub name: &'static str,
    /// Index of the op this span belongs to.
    pub op: usize,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
    /// Index of the enclosing span, `None` for an op's root span.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall duration, ns.
    pub fn nanos(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// An in-memory span recorder with a stack of open spans.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    roots: usize,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            roots: 0,
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        if parent.is_none() {
            self.roots += 1;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            op: self.roots - 1,
            start,
            end: start,
            parent,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        let now = self.now();
        if let Some(id) = self.open.pop() {
            self.spans[id].end = now;
        }
    }

    /// Run `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Every span recorded so far, in start order.
    #[cfg(test)]
    fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part its direct
    /// children cover.
    pub fn self_nanos(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::nanos).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.nanos());
            }
        }
        own
    }

    /// Per-op sum of self time of spans named `name`, for the ops that
    /// have at least one. Ordered by op index.
    pub fn per_op_self(&self, name: &str) -> Vec<u64> {
        let own = self.self_nanos();
        let mut out: Vec<(usize, u64)> = Vec::new();
        for (s, t) in self.spans.iter().zip(own) {
            if s.name != name {
                continue;
            }
            match out.last_mut() {
                Some((op, sum)) if *op == s.op => *sum += t,
                _ => out.push((s.op, t)),
            }
        }
        out.into_iter().map(|(_, t)| t).collect()
    }

    /// Σ root-span wall time and Σ wall time of their direct children.
    pub fn coverage_parts(&self) -> (u64, u64) {
        let mut roots = 0u64;
        let mut covered = 0u64;
        for s in &self.spans {
            match s.parent {
                None => roots += s.nanos(),
                Some(p) if self.spans[p].parent.is_none() => covered += s.nanos(),
                Some(_) => {}
            }
        }
        (roots, covered)
    }

    /// Render every span as a JSON array of
    /// `{"name","op","start_ns","end_ns","parent"}` objects.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.name, s.op, s.start, s.end
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut s = Spans::new();
        s.begin("query");
        s.time("algebra.execute", || std::hint::black_box(1 + 1));
        s.time("lineage.score", || std::hint::black_box(2 + 2));
        s.end();
        let own = s.self_nanos();
        let all = s.all();
        assert_eq!(all[0].parent, None);
        assert_eq!(all[1].parent, Some(0));
        assert_eq!(own[0], all[0].nanos() - all[1].nanos() - all[2].nanos());
        let (roots, covered) = s.coverage_parts();
        assert_eq!(roots, all[0].nanos());
        assert_eq!(covered, all[1].nanos() + all[2].nanos());
    }

    #[test]
    fn per_op_self_sums_within_an_op() {
        let mut s = Spans::new();
        for _ in 0..2 {
            s.begin("batch");
            s.time("algebra.execute", || ());
            s.time("algebra.execute", || ());
            s.end();
        }
        s.begin("write");
        s.end();
        assert_eq!(s.per_op_self("algebra.execute").len(), 2);
        assert_eq!(s.all()[3].op, 1);
        assert_eq!(s.all()[6].op, 2);
    }
}

//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's side of each layer boundary —
//! around calls into the program's public functions — held in memory, and
//! written out once when the traced run ends. The library's `eatss_trace`
//! collection is a different thing and is not what this records.
//!
//! A span's *layer* is the part of its name before the first dot
//! (`smt.solve` → `smt`). Every op has one root span, [`OP`], owned by the
//! harness; `check.*` spans time the composite calls made only to compare
//! against the decomposition and sit outside any op.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Name of the root span of every op.
pub const OP: &str = "bench.op";

/// The layers a span's self time is credited to (the repository's
/// modules), in reporting order.
pub const LAYERS: [&str; 6] = ["affine", "core", "smt", "ppcg", "gpusim", "serve"];

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<u32>,
    /// The op this span belongs to (shared by all spans of one op).
    pub op: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's spans. Threads record into their own recorder against a
/// shared epoch and the recorders are merged afterwards.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u64,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Self {
        Recorder {
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Recorder::exit`].
    pub fn enter(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
        id
    }

    pub fn exit(&mut self, id: u32) {
        let now = self.now_ns();
        self.spans[id as usize].end_ns = now;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
    }

    /// Times one call as a leaf span.
    pub fn time<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = call();
        self.exit(id);
        out
    }

    /// Opens the root span of op `op`.
    pub fn begin_op(&mut self, op: u64) -> u32 {
        self.op = op;
        self.enter(OP)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Appends another thread's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn summary(&self) -> Summary {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.dur_ns();
            }
        }
        let mut by_name: BTreeMap<&'static str, NameStats> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(&child_ns) {
            let e = by_name.entry(s.name).or_default();
            e.calls += 1;
            e.total_ns += s.dur_ns();
            e.self_ns += s.dur_ns().saturating_sub(*children);
        }
        Summary { by_name }
    }

    /// The whole recording as one JSON document: a name table plus
    /// `[name, start_ns, end_ns, parent, op]` rows (`parent` is a row
    /// index, `-1` for roots).
    pub fn to_json(&self, header: &str) -> String {
        let mut names: Vec<&'static str> = Vec::new();
        let mut out = String::with_capacity(64 + self.spans.len() * 40);
        let mut rows = String::with_capacity(self.spans.len() * 40);
        for (i, s) in self.spans.iter().enumerate() {
            let name = match names.iter().position(|n| *n == s.name) {
                Some(i) => i,
                None => {
                    names.push(s.name);
                    names.len() - 1
                }
            };
            let parent = s.parent.map_or(-1, i64::from);
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                rows,
                "{sep}\n[{name},{},{},{parent},{}]",
                s.start_ns, s.end_ns, s.op
            );
        }
        let names: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
        let _ = write!(
            out,
            "{{{header},\n\"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"op\"],\n\"names\":[{}],\n\"spans\":[{rows}\n]}}\n",
            names.join(",")
        );
        out
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub struct NameStats {
    pub calls: u64,
    pub total_ns: u64,
    /// Duration minus the part covered by child spans.
    pub self_ns: u64,
}

#[derive(Debug, Clone, Default)]
pub struct Summary {
    pub by_name: BTreeMap<&'static str, NameStats>,
}

impl Summary {
    pub fn get(&self, name: &str) -> NameStats {
        self.by_name.get(name).copied().unwrap_or_default()
    }

    /// `{"span.name":{"calls":n,"total_ns":t,"self_ns":s},...}`: this
    /// recording's own per-call breakdown, written beside the spans.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .by_name
            .iter()
            .map(|(name, s)| {
                format!(
                    "\"{name}\":{{\"calls\":{},\"total_ns\":{},\"self_ns\":{}}}",
                    s.calls, s.total_ns, s.self_ns
                )
            })
            .collect();
        format!("{{{}}}", rows.join(","))
    }

    /// Mean microseconds per call of span `name` (0 when never called).
    pub fn mean_us(&self, name: &str) -> f64 {
        let s = self.get(name);
        if s.calls == 0 {
            0.0
        } else {
            s.total_ns as f64 / s.calls as f64 / 1e3
        }
    }

    /// Summed wall time of all op root spans.
    pub fn op_wall_ns(&self) -> u64 {
        self.get(OP).total_ns
    }

    /// Self time of every span of `layer`, as a fraction of op wall.
    pub fn share(&self, layer: &str) -> f64 {
        let wall = self.op_wall_ns();
        if wall == 0 {
            return 0.0;
        }
        let own: u64 = self
            .by_name
            .iter()
            .filter(|(name, _)| name.split('.').next() == Some(layer))
            .map(|(_, s)| s.self_ns)
            .sum();
        own as f64 / wall as f64
    }

    /// Σ layer self time ÷ op wall: how much of the traced ops' wall time
    /// the recorded layer calls account for. The remainder is the
    /// harness's own time inside ops.
    pub fn coverage(&self) -> f64 {
        LAYERS.iter().map(|l| self.share(l)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(us: u64) {
        let t = Instant::now();
        while (t.elapsed().as_micros() as u64) < us {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children_and_shares_sum_to_coverage() {
        let mut rec = Recorder::new(Instant::now());
        for op in 0..3 {
            let root = rec.begin_op(op);
            let outer = rec.enter("core.outer");
            spin(200);
            rec.time("smt.inner", || spin(400));
            rec.exit(outer);
            spin(100);
            rec.exit(root);
        }
        rec.time("check.composite", || spin(300));
        let s = rec.summary();
        assert_eq!(s.get(OP).calls, 3);
        assert_eq!(s.get("smt.inner").calls, 3);
        let outer = s.get("core.outer");
        assert!(outer.self_ns < outer.total_ns);
        assert!(outer.total_ns - outer.self_ns >= s.get("smt.inner").total_ns);
        // check.* spans sit outside ops and count toward no share.
        let shares: f64 = LAYERS.iter().map(|l| s.share(l)).sum();
        assert!((shares - s.coverage()).abs() < 1e-12);
        assert!(s.coverage() > 0.5 && s.coverage() < 1.0, "{}", s.coverage());
        assert!(s.share("smt") > s.share("core"));
        assert_eq!(s.share("serve"), 0.0);
    }

    #[test]
    fn absorb_rebases_parents_and_json_lists_every_span() {
        let epoch = Instant::now();
        let mut a = Recorder::new(epoch);
        let root = a.begin_op(1);
        a.time("serve.roundtrip", || ());
        a.exit(root);
        let mut b = Recorder::new(epoch);
        let root = b.begin_op(2);
        b.time("serve.roundtrip", || ());
        b.exit(root);
        a.absorb(b);
        assert_eq!(a.len(), 4);
        assert_eq!(a.spans[3].parent, Some(2));
        let json = a.to_json("\"workload\":\"x\"");
        let parsed = eatss_trace::json::Json::parse(&json).unwrap();
        assert_eq!(parsed.get("spans").unwrap().as_array().unwrap().len(), 4);
        assert_eq!(parsed.get("names").unwrap().as_array().unwrap().len(), 2);
    }
}

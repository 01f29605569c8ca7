//! In-memory span recorder for the traced pass. Spans are taken from the
//! benchmark's side of each call into a layer's public function, kept in
//! memory, and written out once when the pass ends.

use std::collections::BTreeMap;
use std::time::Instant;

use serde::Serialize;

#[derive(Debug, Clone, Serialize)]
pub struct Span {
    pub id: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one (`None` for the root).
    pub parent: Option<u64>,
    /// Shared by every span of one traced pass.
    pub run_id: String,
    /// Duration minus the part its child spans cover.
    pub self_ns: u64,
    /// Op counts taken at the same boundary.
    pub counts: BTreeMap<String, u64>,
}

pub struct Tracer {
    origin: Instant,
    run_id: String,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(run_id: String) -> Self {
        Self {
            origin: Instant::now(),
            run_id,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its id.
    pub fn begin(&mut self, name: &str, parent: Option<u64>) -> u64 {
        let id = self.spans.len() as u64;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent,
            run_id: self.run_id.clone(),
            self_ns: 0,
            counts: BTreeMap::new(),
        });
        id
    }

    /// Close span `id`; returns its duration in nanoseconds.
    pub fn end(&mut self, id: u64) -> u64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        end_ns - span.start_ns
    }

    pub fn count(&mut self, id: u64, key: &str, value: u64) {
        self.spans[id as usize]
            .counts
            .insert(key.to_string(), value);
    }

    /// Time `f` inside a span under `parent`; returns its result and the
    /// span's duration in nanoseconds.
    pub fn span<T>(&mut self, name: &str, parent: Option<u64>, f: impl FnOnce() -> T) -> (T, u64) {
        let id = self.begin(name, parent);
        let out = f();
        (out, self.end(id))
    }

    /// Fill in self times and hand the spans over.
    pub fn finish(mut self) -> Vec<Span> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p as usize] += s.end_ns - s.start_ns;
            }
        }
        for (s, c) in self.spans.iter_mut().zip(covered) {
            s.self_ns = (s.end_ns - s.start_ns).saturating_sub(c);
        }
        self.spans
    }
}

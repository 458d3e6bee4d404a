//! In-memory span recorder for the traced run.
//!
//! A span is one call into a layer's public API: name (`layer.op`),
//! start, end, parent span and a request id. Self time (duration minus
//! the child spans) is folded per layer as each span closes, so it is
//! exact for every span; the raw span records are kept up to a cap and
//! written out at exit.
//!
//! A disabled recorder still times: [`Spans::timed`] returns the same
//! `Instant` pair either way, so the traced and untraced runs measure
//! through identical code and differ only by the recording.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Parent of a root span.
pub const NO_PARENT: u64 = u64::MAX;

/// Raw span records kept per recorder; later spans still count toward
/// self times and span counts.
const KEEP: usize = 1 << 18;

/// One closed span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub rid: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug)]
struct Open {
    id: u64,
    name: &'static str,
    rid: u64,
    start: Instant,
    child_ns: u64,
}

/// One thread's span recorder.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    epoch: Instant,
    recorder: u64,
    next: u64,
    stack: Vec<Open>,
    kept: Vec<Span>,
    dropped: u64,
    self_ns: BTreeMap<&'static str, u64>,
    counts: BTreeMap<&'static str, u64>,
}

fn layer_of(name: &'static str) -> &'static str {
    name.split('.').next().unwrap_or(name)
}

impl Spans {
    /// A recorder; `recorder` keeps span ids unique when several
    /// recorders (one per rank thread) are absorbed into one.
    pub fn new(on: bool, epoch: Instant, recorder: u64) -> Spans {
        Spans {
            on,
            epoch,
            recorder,
            next: 0,
            stack: Vec::new(),
            kept: Vec::new(),
            dropped: 0,
            self_ns: BTreeMap::new(),
            counts: BTreeMap::new(),
        }
    }

    /// A recorder that only times (untraced phases).
    pub fn off() -> Spans {
        Spans::new(false, Instant::now(), 0)
    }

    fn next_id(&mut self) -> u64 {
        self.next += 1;
        (self.recorder << 40) | self.next
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span that encloses the spans recorded until its
    /// [`exit`](Spans::exit).
    pub fn enter(&mut self, name: &'static str, rid: u64) {
        if self.on {
            let id = self.next_id();
            self.stack.push(Open { id, name, rid, start: Instant::now(), child_ns: 0 });
        }
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let open = self.stack.pop().expect("exit without a matching enter");
        self.close(open.id, open.name, open.rid, open.start, Instant::now(), open.child_ns);
    }

    fn close(
        &mut self,
        id: u64,
        name: &'static str,
        rid: u64,
        start: Instant,
        end: Instant,
        child_ns: u64,
    ) {
        let dur = end.saturating_duration_since(start).as_nanos() as u64;
        *self.self_ns.entry(layer_of(name)).or_default() += dur.saturating_sub(child_ns);
        *self.counts.entry(name).or_default() += 1;
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.id
            }
            None => NO_PARENT,
        };
        if self.kept.len() < KEEP {
            let (start_ns, end_ns) = (self.ns(start), self.ns(end));
            self.kept.push(Span { id, parent, rid, name, start_ns, end_ns });
        } else {
            self.dropped += 1;
        }
    }

    /// Times `f` with one `Instant` pair and, when recording, records it
    /// as a leaf span under the innermost open span.
    pub fn timed<R>(
        &mut self,
        name: &'static str,
        rid: u64,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        if self.on {
            let id = self.next_id();
            self.close(id, name, rid, start, end, 0);
        }
        (out, end.saturating_duration_since(start))
    }

    /// Moves another recorder's spans into this one.
    pub fn absorb(&mut self, other: Spans) {
        for (layer, ns) in other.self_ns {
            *self.self_ns.entry(layer).or_default() += ns;
        }
        for (name, n) in other.counts {
            *self.counts.entry(name).or_default() += n;
        }
        let room = KEEP.saturating_sub(self.kept.len());
        self.dropped += other.dropped + other.kept.len().saturating_sub(room) as u64;
        self.kept.extend(other.kept.into_iter().take(room));
    }

    /// Self time of `layer` in milliseconds.
    pub fn self_ms(&self, layer: &str) -> f64 {
        self.self_ns.get(layer).copied().unwrap_or(0) as f64 / 1e6
    }

    /// Spans recorded per name, the counts at each layer boundary.
    pub fn counts(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counts.iter().map(|(&n, &c)| (n, c))
    }

    /// Total spans recorded, kept or not.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Writes the kept spans as CSV: `id,parent,rid,name,start_ns,end_ns`.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,parent,rid,name,start_ns,end_ns")?;
        for s in &self.kept {
            let parent = if s.parent == NO_PARENT { String::new() } else { s.parent.to_string() };
            writeln!(out, "{},{parent},{},{},{},{}", s.id, s.rid, s.name, s.start_ns, s.end_ns)?;
        }
        out.flush()
    }

    /// Raw span records not kept because of the cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

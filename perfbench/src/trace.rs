//! In-memory spans around the benchmark's calls into each layer, written out
//! as hand-written JSON lines when the run ends.
//!
//! A span has a name (the layer metric it feeds, e.g. `fusion.emit`), the
//! group it belongs to (one set-up or one replayed job), its parent span and
//! its start and duration. Self time is a span's duration minus the time
//! its children cover; children never overlap, since every call is made from
//! the one client thread.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

/// Which set-up or job a span belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Group {
    Setup(u32),
    Job(u64),
}

impl Group {
    fn label(&self) -> String {
        match self {
            Group::Setup(i) => format!("setup-{i}"),
            Group::Job(k) => format!("job-{k}"),
        }
    }
}

struct Span {
    group: Group,
    parent: Option<usize>,
    name: &'static str,
    start: Duration,
    dur: Duration,
}

/// An open span; close it with [`Tracer::end`].
pub struct Open {
    index: Option<usize>,
    start: Instant,
}

/// Records spans when on; when off, `begin`/`end` only read the clock.
pub struct Tracer {
    on: bool,
    origin: Instant,
    group: Group,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            group: Group::Setup(0),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Tags every span begun from now on with `group`.
    pub fn set_group(&mut self, group: Group) {
        assert!(self.stack.is_empty(), "group changed inside an open span");
        self.group = group;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let index = self.on.then(|| {
            self.spans.push(Span {
                group: self.group,
                parent: self.stack.last().copied(),
                name,
                start: start - self.origin,
                dur: Duration::ZERO,
            });
            let index = self.spans.len() - 1;
            self.stack.push(index);
            index
        });
        Open { index, start }
    }

    /// Closes `open` and returns its duration.
    pub fn end(&mut self, open: Open) -> Duration {
        let dur = open.start.elapsed();
        if let Some(index) = open.index {
            let top = self.stack.pop();
            assert_eq!(top, Some(index), "spans must close innermost first");
            self.spans[index].dur = dur;
        }
        dur
    }

    /// Per-group total duration of the spans named `name`, in seconds, one
    /// entry per group that has such a span.
    pub fn per_group_s(&self, name: &str) -> Vec<f64> {
        let mut sums: BTreeMap<Group, f64> = BTreeMap::new();
        for span in self.spans.iter().filter(|s| s.name == name) {
            *sums.entry(span.group).or_default() += span.dur.as_secs_f64();
        }
        sums.into_values().collect()
    }

    /// Durations of every span named `name`, in seconds.
    pub fn per_call_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur.as_secs_f64())
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut children = vec![Duration::ZERO; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children[p] += span.dur;
            }
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"group\":\"{}\",\"span\":{i},\"parent\":{parent},\"name\":\"{}\",\
                 \"start_us\":{:.3},\"dur_us\":{:.3},\"self_us\":{:.3}}}",
                span.group.label(),
                span.name,
                span.start.as_secs_f64() * 1e6,
                span.dur.as_secs_f64() * 1e6,
                span.dur.saturating_sub(children[i]).as_secs_f64() * 1e6,
            )?;
        }
        out.flush()
    }
}

//! In-memory spans around the benchmark's calls into each layer, and the
//! self-time / idle accounting of a traced run.
//!
//! A span is recorded by the benchmark's own code around one call
//! into a crate's public function; the program's crates carry no
//! instrumentation. Spans live in per-thread buffers and are written out
//! once, when the traced run ends.

use crate::stats::Report;
use std::io::Write as _;
use std::time::Instant;

/// The layer a span's time is attributed to. Names follow the crates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Sweep loop self time: group bookkeeping, visit order, incumbent
    /// and result merging (`han_tuner::search`, `han_synth::search`).
    Search,
    /// `han_tuner::lower_bound`.
    Bound,
    /// `han_tuner::CostCache` lookups and records.
    Cache,
    /// `han_core::Han::with_config`.
    Core,
    /// `han_colls::TemplateStore::build_into` (program build or template
    /// specialization).
    Template,
    /// `han_tuner::DeltaSim::time`: the executor and event engine
    /// (`han_mpi`, `han_sim`) behind delta replay.
    Delta,
    /// `han_tuner::TaskBench::pipeline_cost`: task benchmark runs.
    TaskBench,
    /// `han_tuner::model` self time (task sequences, accumulation).
    Model,
    /// Candidate enumeration (`SearchSpace::configs_for`,
    /// `han_synth::candidates`).
    Space,
    /// `han_synth::pareto_front`.
    Pareto,
}

impl Layer {
    pub const ALL: [Layer; 10] = [
        Layer::Search,
        Layer::Bound,
        Layer::Cache,
        Layer::Core,
        Layer::Template,
        Layer::Delta,
        Layer::TaskBench,
        Layer::Model,
        Layer::Space,
        Layer::Pareto,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Search => "search",
            Layer::Bound => "bound",
            Layer::Cache => "cache",
            Layer::Core => "core",
            Layer::Template => "template",
            Layer::Delta => "delta",
            Layer::TaskBench => "taskbench",
            Layer::Model => "model",
            Layer::Space => "space",
            Layer::Pareto => "pareto",
        }
    }
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub worker: u16,
    /// Sweep group (index of the `(coll, m)` group) the span served.
    pub group: u32,
}

/// One thread's span buffer. Spans nest: a span opened while another is
/// open becomes its child.
pub struct Tracer {
    epoch: Instant,
    worker: u16,
    spans: Vec<Span>,
    open: Vec<u32>,
    pub group: u32,
}

/// An open span; close it with [`Tracer::close`].
#[must_use]
pub struct Open(u32);

impl Tracer {
    pub fn new(epoch: Instant, worker: u16) -> Self {
        Tracer {
            epoch,
            worker,
            spans: Vec::with_capacity(1 << 14),
            open: Vec::new(),
            group: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, layer: Layer) -> Open {
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            start_ns,
            end_ns: start_ns,
            parent,
            worker: self.worker,
            group: self.group,
        });
        self.open.push(idx);
        Open(idx)
    }

    pub fn close(&mut self, span: Open) {
        let top = self.open.pop();
        assert_eq!(top, Some(span.0), "spans must close innermost first");
        self.spans[span.0 as usize].end_ns = self.now_ns();
    }

    /// Time `f` as one span of `layer`.
    pub fn span<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let s = self.open(layer);
        let r = f();
        self.close(s);
        r
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "trace ended with open spans");
        self.spans
    }
}

/// Self-time accounting of a traced run.
pub struct Accounting {
    /// Self time per layer, seconds, in [`Layer::ALL`] order.
    pub self_s: [f64; Layer::ALL.len()],
    /// Span count per layer.
    pub calls: [u64; Layer::ALL.len()],
    /// Worker-slot time with no span open: waiting for work, for other
    /// workers, or for the sequential phases on the main thread.
    pub idle_s: f64,
    /// Worker-slot capacity: `slots × traced wall`.
    pub capacity_s: f64,
    /// `|1 − (Σ self + idle) / capacity|`: zero when the spans' self
    /// times and the idle time add up to the slots' capacity, i.e. no span
    /// was counted twice and no slot was busier than the wall-clock.
    pub reconcile_err: f64,
}

impl Accounting {
    pub fn of(&self, layer: Layer) -> f64 {
        self.self_s[layer as usize]
    }

    pub fn calls_of(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }

    pub fn share(&self, layer: Layer) -> f64 {
        self.of(layer) / self.capacity_s
    }
}

/// Attribute the spans of a traced run (`slots` worker slots over `wall_s`
/// seconds) to layers. Self time is a span's duration minus its
/// children's; idle is the capacity not covered by any top-level span
/// (worker waits, and the slots left unused while the main thread runs a
/// sequential phase).
pub fn account(threads: &[Vec<Span>], slots: usize, wall_s: f64) -> Accounting {
    let mut self_ns = [0i128; Layer::ALL.len()];
    let mut calls = [0u64; Layer::ALL.len()];
    let mut busy_ns: i128 = 0;
    for spans in threads {
        for s in spans {
            let dur = (s.end_ns - s.start_ns) as i128;
            self_ns[s.layer as usize] += dur;
            calls[s.layer as usize] += 1;
            if s.parent == NO_PARENT {
                busy_ns += dur;
            } else {
                self_ns[spans[s.parent as usize].layer as usize] -= dur;
            }
        }
    }
    let capacity_s = slots as f64 * wall_s;
    let mut self_s = [0.0; Layer::ALL.len()];
    for (out, ns) in self_s.iter_mut().zip(self_ns) {
        *out = ns as f64 * 1e-9;
    }
    let idle_s = (capacity_s - busy_ns as f64 * 1e-9).max(0.0);
    let total: f64 = self_s.iter().sum::<f64>() + idle_s;
    Accounting {
        self_s,
        calls,
        idle_s,
        capacity_s,
        reconcile_err: (1.0 - total / capacity_s).abs(),
    }
}

/// Report the traced run's wall-clock, its overhead over the untraced
/// mean pass time, and each layer's share of the worker-slot capacity.
pub fn report_layers(report: &mut Report, acc: &Accounting, traced_wall: f64, untraced_wall: f64) {
    report.layer("trace.wall_s", traced_wall);
    report.layer("trace.overhead_s", traced_wall - untraced_wall);
    report.layer("trace.idle_share", acc.idle_s / acc.capacity_s);
    report.layer("trace.reconcile_err", acc.reconcile_err);
    let mut line = String::new();
    for l in Layer::ALL {
        report.layer(&format!("trace.share.{}", l.name()), acc.share(l));
        line += &format!("{} {:.4} + ", l.name(), acc.share(l));
    }
    report.info(&format!(
        "shares of {:.3} worker-slot s: {line}idle {:.4} = {:.6}",
        acc.capacity_s,
        acc.idle_s / acc.capacity_s,
        acc.self_s.iter().sum::<f64>() / acc.capacity_s + acc.idle_s / acc.capacity_s
    ));
}

/// Write every span as one tab-separated line (layer, start ns, end ns,
/// parent index within its thread, worker, group) under `out/` in the
/// benchmark's directory.
pub fn write_spans(threads: &[Vec<Span>], file: &str) -> std::io::Result<String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(file);
    let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(w, "layer\tstart_ns\tend_ns\tparent\tworker\tgroup")?;
    for spans in threads {
        for s in spans {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                s.parent as i64
            };
            writeln!(
                w,
                "{}\t{}\t{}\t{parent}\t{}\t{}",
                s.layer.name(),
                s.start_ns,
                s.end_ns,
                s.worker,
                s.group
            )?;
        }
    }
    w.flush()?;
    Ok(path.display().to_string())
}

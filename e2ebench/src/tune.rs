//! `tune-exhaustive` and `tune-task`: one `han_tuner::tune_with_opts`
//! call per pass on a Shaheen-II-shaped machine, repeated for the timed
//! phase; the traced run replays the sweep through the same public
//! functions with a span around each call.

use crate::stats::{
    after_warmup, mean, proc_status_mib, ratio, reference, rng, setup_batch, Fnv, Report,
};
use crate::trace::{account, write_spans, Layer, Span, Tracer};
use crate::{Args, DEFAULT_SEED};
use han_colls::stack::{time_coll_on, Unsupported};
use han_colls::{Coll, MpiStack, TemplateStore};
use han_core::{Han, HanConfig};
use han_decide::LookupTable;
use han_machine::{coarsen_fs, shaheen2_ppn, Machine, MachinePreset};
use han_mpi::{ExecOpts, Program};
use han_sim::Time;
use han_tuner::model::{allreduce_sequence, bcast_sequence};
use han_tuner::space::pow2_range;
use han_tuner::taskbench::BENCH_ITERS;
use han_tuner::{
    lower_bound, tune_with_opts, CostCache, DeltaSim, DeltaStats, SearchSpace, Strategy, TaskBench,
    TuneOpts, TuneResult,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Shaheen II nodes × ranks per node: 576 ranks, the intermediate scale
/// between `--scale mini` and the paper's 64 × 12.
const NODES: usize = 48;
const PPN: usize = 12;
/// Largest message size of the Table-II menu kept: one exhaustive pass
/// takes about a second on two cores, so a run holds several passes.
const MAX_MSG: u64 = 128 << 10;
const COLLS: [Coll; 2] = [Coll::Bcast, Coll::Allreduce];
/// Candidates per run re-simulated cold against the winner.
const LOSERS: usize = 16;
const OPTS: TuneOpts = TuneOpts {
    prune: true,
    delta: true,
};

pub struct Inputs {
    preset: MachinePreset,
    space: SearchSpace,
    /// `(coll, m, cfg)` triples counted from the inputs.
    candidates: u64,
    /// Seeded sample of candidates for the cold loser check.
    losers: Vec<(Coll, u64, HanConfig)>,
}

fn setup(strategy: Strategy, seed: u64) -> Inputs {
    let preset = shaheen2_ppn(NODES, PPN);
    let mut space = SearchSpace::standard();
    space.msg_sizes = pow2_range(4, MAX_MSG);
    let groups = enumerate(&preset, &space, strategy);
    let candidates = groups.iter().map(|g| g.2.len() as u64).sum();
    let mut r = rng(seed, 1);
    let losers = (0..LOSERS)
        .map(|_| {
            let (coll, m, cfgs) = &groups[r.u64(groups.len() as u64) as usize];
            (*coll, *m, cfgs[r.u64(cfgs.len() as u64) as usize])
        })
        .collect();
    Inputs {
        preset,
        space,
        candidates,
        losers,
    }
}

/// The sweep's groups in `tune_with_opts` order.
fn enumerate(
    preset: &MachinePreset,
    space: &SearchSpace,
    strategy: Strategy,
) -> Vec<(Coll, u64, Vec<HanConfig>)> {
    let mut groups = Vec::new();
    for coll in COLLS {
        for &m in &space.msg_sizes {
            groups.push((
                coll,
                m,
                space.configs_for(m, &preset.topology, strategy.heuristic()),
            ));
        }
    }
    groups
}

/// What one pass produced, reduced to what the checks compare.
struct Pass {
    table: LookupTable,
    tuning_time: Time,
    searches: u64,
    pruned: u64,
    samples: Vec<(Coll, u64, HanConfig, Time)>,
    skipped: Vec<Unsupported>,
    events: u64,
    clamped: u64,
    cache_hits: u64,
    cache_misses: u64,
}

impl Pass {
    fn new(r: TuneResult, cache: &CostCache) -> Self {
        let e = han_mpi::engine_totals();
        let c = cache.stats();
        Pass {
            table: r.table,
            tuning_time: r.tuning_time,
            searches: r.searches,
            pruned: r.pruned,
            samples: r.samples,
            skipped: r.skipped,
            events: e.pops,
            clamped: e.clamped,
            cache_hits: c.hits,
            cache_misses: c.misses,
        }
    }

    fn counts(&self) -> [(&'static str, u64); 6] {
        [
            ("sim.events", self.events),
            ("sim.clamped", self.clamped),
            ("searches", self.searches),
            ("pruned", self.pruned),
            ("cache.hits", self.cache_hits),
            ("cache.misses", self.cache_misses),
        ]
    }

    /// The counts a pass owns. The engine totals are process-wide, so
    /// concurrent passes are checked against them in aggregate instead.
    fn own_counts(&self) -> [(&'static str, u64); 4] {
        let [_, _, rest @ ..] = self.counts();
        rest
    }
}

/// Concurrent closed-loop callers after pass 1. The exhaustive sweep
/// brings its own pool of `available_parallelism` workers, so one caller
/// fills the cores. The task-based tuner runs on its caller's thread, so
/// it gets one caller per core: on a shared 2-vCPU host, the pass time of
/// a lone thread spread about twice as much from run to run as that of
/// passes keeping every core busy.
fn callers(strategy: Strategy) -> usize {
    if strategy.task_based() {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        1
    }
}

/// Digest of a winner table: every `(coll, m, cfg, cost)` entry in table
/// order (the sweep inserts in deterministic group order).
pub fn table_digest(t: &LookupTable) -> String {
    let mut h = Fnv::default();
    for e in &t.entries {
        h.str(&e.coll);
        h.u64(e.m);
        h.str(&format!("{:?}", e.cfg));
        h.u64(e.cost_ps);
    }
    h.hex()
}

/// One tuning pass. Its `events` and `clamped` are the process-wide
/// engine totals at its end: exact only when the totals were reset before
/// it and no other pass ran meanwhile.
fn tune_once(inp: &Inputs, strategy: Strategy) -> Pass {
    let cache = Arc::new(CostCache::new(&inp.preset));
    let r = tune_with_opts(
        &inp.preset,
        &inp.space,
        &COLLS,
        strategy,
        Some(Arc::clone(&cache)),
        OPTS,
    );
    Pass::new(r, &cache)
}

pub fn run(strategy: Strategy, args: &Args, report: &mut Report) {
    let mut setup_samples = Vec::new();
    let inp = setup_batch(&mut setup_samples, || setup(strategy, args.seed));
    let rss_after_setup = proc_status_mib("VmRSS");
    report.info(&format!(
        "preset shaheen2 {NODES}x{PPN} ({} ranks), {} message sizes up to {MAX_MSG} B, {} candidates, strategy {}",
        NODES * PPN,
        inp.space.msg_sizes.len(),
        inp.candidates,
        strategy.name()
    ));

    // Timed phase (untraced): whole tuning passes, each with a fresh
    // in-memory cost cache, until the run length is used up. Pass 1 runs
    // alone and is the reference for the checks and the later passes,
    // which run in `callers` concurrent closed loops. A traced run times
    // its untraced passes alone, as its replay runs.
    let callers = if args.trace { 1 } else { callers(strategy) };
    han_mpi::reset_engine_totals();
    let start = Instant::now();
    let first = tune_once(&inp, strategy);
    let mut walls = vec![start.elapsed().as_secs_f64()];
    // Peak memory of setup plus one pass: later passes only add allocator
    // retention, which would tie the figure to how many passes fit in the
    // run.
    let peak_rss = proc_status_mib("VmHWM");
    setup_batch(&mut setup_samples, || setup(strategy, args.seed));
    let digest = table_digest(&first.table);
    han_mpi::reset_engine_totals();
    let per_caller: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..callers)
            .map(|c| {
                let (inp, first, digest) = (&inp, &first, &digest);
                s.spawn(move || {
                    let (mut walls, mut setups, mut bad, mut drift) =
                        (Vec::new(), Vec::new(), 0u64, Vec::new());
                    while walls.len() < 2
                        || (!args.trace && start.elapsed().as_secs_f64() < args.seconds)
                    {
                        let t0 = Instant::now();
                        let pass = tune_once(inp, strategy);
                        walls.push(t0.elapsed().as_secs_f64());
                        setup_batch(&mut setups, || setup(strategy, args.seed));
                        if table_digest(&pass.table) != *digest || pass.samples != first.samples {
                            bad += 1;
                        }
                        for ((name, a), (_, b)) in first.own_counts().iter().zip(pass.own_counts())
                        {
                            if *a != b {
                                drift.push(format!(
                                    "{name} was {a} in pass 1, {b} in pass {} of caller {c}",
                                    walls.len() + 1
                                ));
                            }
                        }
                    }
                    (walls, setups, bad, drift)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("tuning caller panicked"))
            .collect()
    });
    let mut bad_passes = 0;
    for (w, st, bad, drift) in per_caller {
        walls.extend(w);
        setup_samples.extend(st);
        bad_passes += bad;
        for d in drift {
            report.flag_drift(d);
        }
    }
    // Every later pass simulates exactly pass 1's events.
    let later = walls.len() as u64 - 1;
    let e = han_mpi::engine_totals();
    for (name, total, one) in [
        ("sim.events", e.pops, first.events),
        ("sim.clamped", e.clamped, first.clamped),
    ] {
        if total != later * one {
            report.flag_drift(format!(
                "{name} totalled {total} over {later} later passes, not {later} x {one}"
            ));
        }
    }
    let passes = walls.len() as u64;
    report.attempted = passes;

    let checks_ok = check(strategy, &inp, &first, args.seed, report);
    report.failed = if checks_ok { bad_passes } else { passes };
    for (name, v) in first.counts() {
        report.count(name, v);
    }
    report.info(&format!(
        "virtual tuning time {} s ({}), {} searches, {} pruned",
        first.tuning_time.as_secs_f64(),
        strategy.name(),
        first.searches,
        first.pruned
    ));

    if !args.trace {
        report.timed("setup_s", "s", &setup_samples);
        report.per_pass(after_warmup(&walls), inp.candidates as f64);
        report.metric("peak_rss_mb", "MiB", peak_rss);
        return;
    }

    // Traced run: replay the sweep with spans and compare bit-for-bit.
    let untraced = mean(after_warmup(&walls));
    let traced = if strategy.task_based() {
        replay_task(&inp)
    } else {
        replay_exhaustive(&inp)
    };
    let same = traced.pass.table.entries.len() == first.table.entries.len()
        && table_digest(&traced.pass.table) == table_digest(&first.table)
        && traced.pass.samples == first.samples
        && traced.pass.searches == first.searches
        && traced.pass.pruned == first.pruned
        && traced.pass.tuning_time == first.tuning_time;
    report.check(same, || {
        "traced replay did not reproduce the untraced winners bit-for-bit".to_string()
    });
    match write_spans(
        &traced.spans,
        &format!("trace-{}-seed{}.tsv", args.workload, args.seed),
    ) {
        Ok(path) => report.info(&format!("spans written to {path}")),
        Err(e) => report.check(false, || format!("writing spans: {e}")),
    }
    let acc = account(&traced.spans, traced.workers, traced.wall_s);
    crate::trace::report_layers(report, &acc, traced.wall_s, untraced);
    let p = &traced.pass;
    report.layer("proc.rss_after_setup_mb", rss_after_setup);
    report.layer("sim.events", p.events as f64);
    report.layer("sim.clamped", p.clamped as f64);
    let sim_s = acc.of(Layer::Delta) + acc.of(Layer::TaskBench);
    report.layer("sim.ns_per_event", sim_s * 1e9 / p.events.max(1) as f64);
    report.layer("colls.template.build_s", acc.of(Layer::Template));
    report.layer("colls.template.calls", acc.calls_of(Layer::Template) as f64);
    let (hits, misses) = traced.template_hits_misses;
    report.layer("colls.template.hit_ratio", ratio(hits, hits + misses));
    report.layer("colls.template.keys", traced.template_keys as f64);
    report.layer("core.with_config_s", acc.of(Layer::Core));
    report.layer("tuner.bound.s", acc.of(Layer::Bound));
    report.layer("tuner.bound.calls", traced.bound_calls as f64);
    report.layer(
        "tuner.search.prune_ratio",
        ratio(p.pruned, p.pruned + p.searches),
    );
    report.layer("tuner.search.simulated", p.searches as f64);
    report.layer("tuner.search.self_s", acc.of(Layer::Search));
    report.layer("tuner.search.idle_s", acc.idle_s);
    let d = traced.delta;
    report.layer("tuner.delta.s", acc.of(Layer::Delta));
    report.layer(
        "tuner.delta.hit_ratio",
        ratio(d.delta_hits, d.delta_hits + d.recorded_runs + d.full_runs),
    );
    report.layer("tuner.delta.recorded_runs", d.recorded_runs as f64);
    report.layer("tuner.delta.full_runs", d.full_runs as f64);
    report.layer("tuner.cache.s", acc.of(Layer::Cache));
    report.layer(
        "tuner.cache.hit_ratio",
        ratio(p.cache_hits, p.cache_hits + p.cache_misses),
    );
    report.layer("tuner.taskbench.s", acc.of(Layer::TaskBench));
    report.layer(
        "tuner.taskbench.runs",
        if strategy.task_based() { p.searches } else { 0 } as f64,
    );
    report.layer("tuner.model.s", acc.of(Layer::Model));
    report.layer("tuner.model.calls", acc.calls_of(Layer::Model) as f64);
    report.layer("tuner.virtual_tuning_s", p.tuning_time.as_secs_f64());
    for (name, v) in [
        ("template.hits", hits),
        ("template.misses", misses),
        ("template.keys", traced.template_keys as u64),
        ("delta.hits", d.delta_hits),
        ("delta.recorded", d.recorded_runs),
    ] {
        report.count(name, v);
    }
}

/// Output checks on the first pass (outside the timed phase). Returns
/// whether every check passed.
fn check(strategy: Strategy, inp: &Inputs, p: &Pass, seed: u64, report: &mut Report) -> bool {
    let before = report.failures();
    report.check(p.skipped.is_empty(), || {
        format!("TuneResult.skipped is not empty: {:?}", p.skipped)
    });
    report.check(p.clamped == 0, || {
        format!("{} events were clamped into the past", p.clamped)
    });
    let digest = table_digest(&p.table);
    report.info(&format!("winner table digest {digest}"));
    let key = format!(
        "tune-{}",
        if strategy.task_based() {
            "task"
        } else {
            "exhaustive"
        }
    );
    if seed == DEFAULT_SEED {
        let want = reference(&key);
        report.check(want == Some(digest.as_str()), || {
            format!("{key} digest {digest} differs from reference {want:?}")
        });
    }
    let groups = COLLS.len() * inp.space.msg_sizes.len();
    report.check(p.table.entries.len() == groups, || {
        format!(
            "table has {} entries for {groups} groups",
            p.table.entries.len()
        )
    });
    if !strategy.task_based() {
        let mut machine = Machine::from_preset(&inp.preset);
        for e in &p.table.entries {
            let coll = coll_named(&e.coll);
            let cold = time_coll_on(
                &Han::with_config(e.cfg),
                &mut machine,
                &inp.preset,
                coll,
                e.m,
                0,
            );
            report.check(cold == Ok(Time::from_ps(e.cost_ps)), || {
                format!(
                    "{} m={} winner cost {} ps but cold re-simulation gives {cold:?}",
                    e.coll, e.m, e.cost_ps
                )
            });
        }
        for &(coll, m, cfg) in &inp.losers {
            let Some(w) = p.table.get(coll, m) else {
                continue;
            };
            let cold = time_coll_on(
                &Han::with_config(cfg),
                &mut machine,
                &inp.preset,
                coll,
                m,
                0,
            );
            report.check(
                matches!(cold, Ok(t) if t.as_ps() >= w.cost_ps),
                || {
                    format!(
                        "{} m={m}: candidate {cfg} re-simulated cold ({cold:?}) beats the winner ({} ps)",
                        coll.name(),
                        w.cost_ps
                    )
                },
            );
        }
    }
    report.failures() == before
}

pub fn coll_named(name: &str) -> Coll {
    *Coll::ALL
        .iter()
        .find(|c| c.name() == name)
        .unwrap_or_else(|| panic!("unknown collective {name}"))
}

/// A traced replay of one tuning pass.
struct Traced {
    pass: Pass,
    spans: Vec<Vec<Span>>,
    workers: usize,
    wall_s: f64,
    bound_calls: u64,
    template_hits_misses: (u64, u64),
    template_keys: usize,
    delta: DeltaStats,
}

enum Outcome {
    Cost(Result<Time, Unsupported>),
    Pruned,
}

/// The exhaustive sweep of `han_tuner::search`, rebuilt from its public
/// parts: cursor-scheduled `(coll, m)` groups on `available_parallelism`
/// workers sharing one template store and one delta base cache,
/// cheapest-bound-first visits with strict bound pruning, cost-cache
/// memoization, and results merged by group index.
fn replay_exhaustive(inp: &Inputs) -> Traced {
    han_mpi::reset_engine_totals();
    let epoch = Instant::now();
    let mut main = Tracer::new(epoch, 0);
    let preset = &inp.preset;
    let cache = Arc::new(CostCache::new(preset));
    let groups = main.span(Layer::Space, || {
        enumerate(preset, &inp.space, Strategy::Exhaustive)
    });
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(groups.len().max(1));
    let templates = TemplateStore::new();
    let bases = DeltaSim::shared_bases();
    let next = AtomicUsize::new(0);
    let mut spans = Vec::new();
    let mut delta = DeltaStats::default();
    let mut bound_calls = 0;
    let mut merged: Vec<Option<Vec<Outcome>>> = (0..groups.len()).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (groups, next, cache, templates, bases) =
                    (&groups, &next, &*cache, &templates, &bases);
                s.spawn(move || {
                    let mut tr = Tracer::new(epoch, w as u16 + 1);
                    let mut machine = Machine::from_preset(preset);
                    let mut scratch = Program::default();
                    let mut ds = DeltaSim::with_shared(bases.clone());
                    let mut bound_calls = 0u64;
                    let mut out = Vec::new();
                    loop {
                        let g = next.fetch_add(1, Ordering::Relaxed);
                        if g >= groups.len() {
                            break;
                        }
                        tr.group = g as u32;
                        let span = tr.open(Layer::Search);
                        let (coll, m, cfgs) = &groups[g];
                        let mut ctx = Ctx {
                            tr: &mut tr,
                            machine: &mut machine,
                            scratch: &mut scratch,
                            ds: &mut ds,
                            templates,
                            preset,
                        };
                        bound_calls += cfgs.len() as u64;
                        let r = run_group(&mut ctx, *coll, *m, cfgs, cache);
                        tr.close(span);
                        out.push((g, r));
                    }
                    (out, tr.into_spans(), ds.stats(), bound_calls)
                })
            })
            .collect();
        for h in handles {
            let (out, sp, st, bc) = h.join().expect("sweep worker panicked");
            for (g, r) in out {
                merged[g] = Some(r);
            }
            spans.push(sp);
            delta.full_runs += st.full_runs;
            delta.recorded_runs += st.recorded_runs;
            delta.delta_hits += st.delta_hits;
            bound_calls += bc;
        }
    });
    let merge = main.open(Layer::Search);
    let mut pass = Pass {
        table: LookupTable::for_topology(&preset.topology),
        tuning_time: Time::ZERO,
        searches: 0,
        pruned: 0,
        samples: Vec::new(),
        skipped: Vec::new(),
        events: 0,
        clamped: 0,
        cache_hits: 0,
        cache_misses: 0,
    };
    for ((coll, m, cfgs), results) in groups.iter().zip(merged) {
        let results = results.expect("every group ran");
        for (cfg, r) in cfgs.iter().zip(results) {
            match r {
                Outcome::Cost(Ok(t)) => {
                    pass.tuning_time += t * BENCH_ITERS;
                    pass.searches += 1;
                    pass.samples.push((*coll, *m, *cfg, t));
                }
                Outcome::Cost(Err(e)) => {
                    if !pass.skipped.contains(&e) {
                        pass.skipped.push(e);
                    }
                }
                Outcome::Pruned => pass.pruned += 1,
            }
        }
    }
    for coll in COLLS {
        for &m in &inp.space.msg_sizes {
            if let Some((_, _, cfg, cost)) = pass
                .samples
                .iter()
                .filter(|(c, mm, _, _)| *c == coll && *mm == m)
                .min_by_key(|s| s.3)
            {
                pass.table.insert(coll, m, *cfg, *cost);
            }
        }
    }
    main.close(merge);
    let wall_s = epoch.elapsed().as_secs_f64();
    let e = han_mpi::engine_totals();
    let c = cache.stats();
    (
        pass.events,
        pass.clamped,
        pass.cache_hits,
        pass.cache_misses,
    ) = (e.pops, e.clamped, c.hits, c.misses);
    spans.push(main.into_spans());
    let st = templates.stats();
    Traced {
        pass,
        spans,
        workers,
        wall_s,
        bound_calls,
        template_hits_misses: (st.hits, st.misses),
        template_keys: templates.len(),
        delta,
    }
}

/// One sweep worker's state.
pub struct Ctx<'a> {
    pub tr: &'a mut Tracer,
    pub machine: &'a mut Machine,
    pub scratch: &'a mut Program,
    pub ds: &'a mut DeltaSim,
    pub templates: &'a TemplateStore,
    pub preset: &'a MachinePreset,
}

fn run_group(
    cx: &mut Ctx,
    coll: Coll,
    m: u64,
    cfgs: &[HanConfig],
    cache: &CostCache,
) -> Vec<Outcome> {
    let preset = cx.preset;
    let mut order: Vec<(Option<Time>, usize)> = cx.tr.span(Layer::Bound, || {
        cfgs.iter()
            .enumerate()
            .map(|(i, cfg)| (lower_bound(preset, cfg, coll, m), i))
            .collect()
    });
    order.sort_by_key(|&(b, i)| (b.unwrap_or(Time::ZERO), i));
    let mut results: Vec<Option<Outcome>> = (0..cfgs.len()).map(|_| None).collect();
    let mut incumbent: Option<Time> = None;
    for (bound, i) in order {
        if let (Some(b), Some(inc)) = (bound, incumbent) {
            if b > inc {
                results[i] = Some(Outcome::Pruned);
                continue;
            }
        }
        let r = coll_cost(cx, coll, m, cfgs[i], cache);
        if let Ok(t) = &r {
            incumbent = Some(incumbent.map_or(*t, |inc| inc.min(*t)));
        }
        results[i] = Some(Outcome::Cost(r));
    }
    results
        .into_iter()
        .map(|r| r.expect("every candidate visited"))
        .collect()
}

/// One candidate: cache lookup, stack construction, templated build,
/// delta-served simulation, cache record — each call in its own span.
fn coll_cost(
    cx: &mut Ctx,
    coll: Coll,
    m: u64,
    cfg: HanConfig,
    cache: &CostCache,
) -> Result<Time, Unsupported> {
    if let Some(t) = cx
        .tr
        .span(Layer::Cache, || cache.lookup_coll(coll, &cfg, m))
    {
        return Ok(t);
    }
    let t = sim_cost(cx, coll, m, cfg)?;
    cx.tr
        .span(Layer::Cache, || cache.record_coll(coll, &cfg, m, t));
    Ok(t)
}

/// Build and simulate one candidate the way the sweeps do.
pub fn sim_cost(cx: &mut Ctx, coll: Coll, m: u64, cfg: HanConfig) -> Result<Time, Unsupported> {
    let han = cx.tr.span(Layer::Core, || Han::with_config(cfg));
    let (templates, preset, scratch) = (cx.templates, cx.preset, &mut *cx.scratch);
    let key = cx.tr.span(Layer::Template, || {
        templates.build_into(&han, preset, coll, m, 0, scratch)
    })?;
    let opts = ExecOpts::timing(han.flavor().p2p());
    let (machine, ds, scratch) = (&mut *cx.machine, &mut *cx.ds, &*cx.scratch);
    Ok(cx
        .tr
        .span(Layer::Delta, || ds.time(machine, scratch, &opts, key)))
}

/// The task-based strategy of `han_tuner::search` with `model::predict`
/// unrolled, so model self time and task benchmark runs get their own
/// spans.
fn replay_task(inp: &Inputs) -> Traced {
    han_mpi::reset_engine_totals();
    let epoch = Instant::now();
    let mut tr = Tracer::new(epoch, 0);
    let preset = &inp.preset;
    let cache = Arc::new(CostCache::new(preset));
    let mut tb = TaskBench::new(preset).with_shared_cache(Arc::clone(&cache));
    let mut pass = Pass {
        table: LookupTable::for_topology(&preset.topology),
        tuning_time: Time::ZERO,
        searches: 0,
        pruned: 0,
        samples: Vec::new(),
        skipped: Vec::new(),
        events: 0,
        clamped: 0,
        cache_hits: 0,
        cache_misses: 0,
    };
    for (g, coll) in COLLS.into_iter().enumerate() {
        for &m in &inp.space.msg_sizes {
            tr.group = g as u32;
            let span = tr.open(Layer::Search);
            let cfgs = tr.span(Layer::Space, || {
                inp.space.configs_for(m, &preset.topology, false)
            });
            let mut best: Option<(HanConfig, Time)> = None;
            for cfg in cfgs {
                let t = match predict(&mut tr, &mut tb, &cfg, coll, m) {
                    Ok(t) => t,
                    Err(e) => {
                        if !pass.skipped.contains(&e) {
                            pass.skipped.push(e);
                        }
                        continue;
                    }
                };
                pass.samples.push((coll, m, cfg, t));
                if best.map(|(_, bt)| t < bt).unwrap_or(true) {
                    best = Some((cfg, t));
                }
            }
            if let Some((cfg, cost)) = best {
                pass.table.insert(coll, m, cfg, cost);
            }
            tr.close(span);
        }
    }
    let wall_s = epoch.elapsed().as_secs_f64();
    pass.tuning_time = tb.spent;
    pass.searches = tb.runs;
    let e = han_mpi::engine_totals();
    let c = cache.stats();
    (
        pass.events,
        pass.clamped,
        pass.cache_hits,
        pass.cache_misses,
    ) = (e.pops, e.clamped, c.hits, c.misses);
    Traced {
        pass,
        spans: vec![tr.into_spans()],
        workers: 1,
        wall_s,
        bound_calls: 0,
        template_hits_misses: (0, 0),
        template_keys: 0,
        delta: DeltaStats::default(),
    }
}

/// `han_tuner::model::predict`, with each task benchmark call spanned.
fn predict(
    tr: &mut Tracer,
    tb: &mut TaskBench,
    cfg: &HanConfig,
    coll: Coll,
    m: u64,
) -> Result<Time, Unsupported> {
    let span = tr.open(Layer::Model);
    let preset = *tb.preset();
    let fs = coarsen_fs(cfg.fs.max(1), m, &preset.node, &preset.level_params());
    let u = if m == 0 { 1 } else { m.div_ceil(fs) } as usize;
    let seq = match coll {
        Coll::Bcast => bcast_sequence(u),
        Coll::Allreduce => allreduce_sequence(u),
        other => {
            tr.close(span);
            return Err(Unsupported {
                stack: "HAN task-based cost model".to_string(),
                coll: other,
            });
        }
    };
    let seg = fs.min(m.max(1));
    let mut acc = vec![Time::ZERO; tb.leaders()];
    for spec in seq {
        let cost = tr.span(Layer::TaskBench, || tb.pipeline_cost(cfg, spec, seg, &acc));
        for (a, c) in acc.iter_mut().zip(&cost) {
            *a += *c;
        }
    }
    tr.close(span);
    Ok(acc.into_iter().max().unwrap_or(Time::ZERO))
}

//! `synth`: `han_synth::synthesize` for Bcast/Allreduce/Reduce on three
//! small presets with `repro synth`'s full-scale space, repeated for the
//! timed phase. Every front point then goes through the full-payload
//! oracle `verify_schedule`, outside the timed phase.

use crate::stats::{
    after_warmup, mean, proc_status_mib, ratio, reference, rng, setup_batch, Fnv, Report,
};
use crate::trace::{account, write_spans, Layer, Span, Tracer};
use crate::tune::{sim_cost, Ctx};
use crate::{Args, DEFAULT_SEED};
use han_colls::stack::{time_coll_on, Unsupported};
use han_colls::{Coll, IntraModule, TemplateStore};
use han_core::Han;
use han_machine::{dgx_like, mini, mini3, Machine, MachinePreset};
use han_mpi::Program;
use han_sim::Time;
use han_synth::{
    candidates, pareto_front, synthesize, verify_schedule, Candidate, Front, FrontPoint, SynthOpts,
    SynthResult,
};
use han_tuner::{lower_bound, DeltaSim, DeltaStats, SearchSpace};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

const COLLS: [Coll; 3] = [Coll::Bcast, Coll::Allreduce, Coll::Reduce];
/// Simulated samples per run re-simulated cold against their recorded
/// cost and their group's winner.
const LOSERS: usize = 24;

struct Inputs {
    presets: Vec<MachinePreset>,
    space: SearchSpace,
    candidates: u64,
    /// Seeded `(preset index, draw)` pairs picking simulated samples for
    /// the cold loser check.
    losers: Vec<(usize, u64)>,
}

fn setup(seed: u64) -> Inputs {
    let presets = vec![mini(4, 4), mini3(2, 2, 2), dgx_like(2, 4)];
    let space = SearchSpace {
        msg_sizes: vec![16 * 1024, 256 * 1024, 2 << 20, 8 << 20],
        seg_sizes: vec![32 * 1024, 256 * 1024, 1 << 20],
        inter: SearchSpace::standard().inter,
        intra: vec![IntraModule::Sm, IntraModule::Solo],
    };
    let candidates = presets
        .iter()
        .flat_map(|p| enumerate(p, &space))
        .map(|g| g.2.len() as u64)
        .sum();
    let mut r = rng(seed, 2);
    let losers = (0..LOSERS)
        .map(|_| (r.u64(presets.len() as u64) as usize, r.u64(u64::MAX)))
        .collect();
    Inputs {
        presets,
        space,
        candidates,
        losers,
    }
}

/// The groups of one preset in `synthesize` order.
fn enumerate(preset: &MachinePreset, space: &SearchSpace) -> Vec<(Coll, u64, Vec<Candidate>)> {
    let mut groups = Vec::new();
    for coll in COLLS {
        for &m in &space.msg_sizes {
            groups.push((coll, m, candidates(space, preset, coll, m)));
        }
    }
    groups
}

struct Pass {
    results: Vec<SynthResult>,
    events: u64,
    clamped: u64,
}

impl Pass {
    fn sum(&self, f: impl Fn(&SynthResult) -> u64) -> u64 {
        self.results.iter().map(f).sum()
    }

    fn counts(&self) -> [(&'static str, u64); 6] {
        [
            ("sim.events", self.events),
            ("sim.clamped", self.clamped),
            ("synth.candidates", self.sum(|r| r.candidates)),
            ("synth.simulated", self.sum(|r| r.simulated)),
            ("synth.pruned", self.sum(|r| r.pruned)),
            ("synth.beamed", self.sum(|r| r.beamed)),
        ]
    }

    fn digest(&self) -> String {
        fronts_digest(self.results.iter().map(|r| r.fronts.as_slice()))
    }
}

/// Digest of every front: group key, menu baseline and each point.
fn fronts_digest<'a>(per_preset: impl Iterator<Item = &'a [Front]>) -> String {
    let mut h = Fnv::default();
    for fronts in per_preset {
        h.u64(fronts.len() as u64);
        for f in fronts {
            h.str(f.coll.name());
            h.u64(f.m);
            h.u64(f.menu_best_ps.unwrap_or(u64::MAX));
            for p in &f.points {
                h.str(&format!("{:?}", p.cfg));
                h.u64(p.menu as u64);
                h.u64(p.lat_ps);
                h.u64(p.bw_ps);
            }
        }
    }
    h.hex()
}

fn synth_once(inp: &Inputs) -> Pass {
    han_mpi::reset_engine_totals();
    let results = inp
        .presets
        .iter()
        .map(|p| synthesize(p, &inp.space, &COLLS, SynthOpts::default()))
        .collect();
    let e = han_mpi::engine_totals();
    Pass {
        results,
        events: e.pops,
        clamped: e.clamped,
    }
}

pub fn run(args: &Args, report: &mut Report) {
    let mut setup_samples = Vec::new();
    let inp = setup_batch(&mut setup_samples, || setup(args.seed));
    let rss_after_setup = proc_status_mib("VmRSS");
    report.info(&format!(
        "presets mini(4,4) mini3(2,2,2) dgx_like(2,4), {} message sizes, {} candidates",
        inp.space.msg_sizes.len(),
        inp.candidates
    ));

    let mut walls = Vec::new();
    let mut first: Option<Pass> = None;
    let mut peak_rss = 0.0;
    let mut bad_passes = 0u64;
    let passes_wanted = if args.trace { 3 } else { usize::MAX };
    let start = Instant::now();
    while walls.len() < 3
        || (walls.len() < passes_wanted && start.elapsed().as_secs_f64() < args.seconds)
    {
        let t0 = Instant::now();
        let pass = synth_once(&inp);
        walls.push(t0.elapsed().as_secs_f64());
        setup_batch(&mut setup_samples, || setup(args.seed));
        match &first {
            None => {
                peak_rss = proc_status_mib("VmHWM");
                first = Some(pass);
            }
            Some(f) => {
                if pass.digest() != f.digest() {
                    bad_passes += 1;
                }
                for ((name, a), (_, b)) in f.counts().iter().zip(pass.counts()) {
                    if *a != b {
                        report.flag_drift(format!(
                            "{name} was {a} in pass 1, {b} in pass {}",
                            walls.len()
                        ));
                    }
                }
            }
        }
    }
    let first = first.expect("at least one pass");
    let passes = walls.len() as u64;
    report.attempted = passes;
    let (checks_ok, oracle) = check(&inp, &first, args.seed, report);
    report.failed = if checks_ok { bad_passes } else { passes };
    for (name, v) in first.counts() {
        report.count(name, v);
    }

    if !args.trace {
        report.timed("setup_s", "s", &setup_samples);
        report.per_pass(after_warmup(&walls), inp.candidates as f64);
        report.metric("peak_rss_mb", "MiB", peak_rss);
        return;
    }

    let untraced = mean(after_warmup(&walls));
    let traced = replay(&inp);
    let same = traced.fronts.len() == first.results.len()
        && traced
            .fronts
            .iter()
            .zip(&first.results)
            .all(|(t, r)| *t == r.fronts)
        && traced.counts
            == [
                first.sum(|r| r.candidates),
                first.sum(|r| r.simulated),
                first.sum(|r| r.pruned),
                first.sum(|r| r.beamed),
            ]
        && (traced.skipped == 0) == first.results.iter().all(|r| r.skipped.is_empty());
    report.check(same, || {
        "traced replay did not reproduce the untraced fronts bit-for-bit".to_string()
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
    report.layer("proc.rss_after_setup_mb", rss_after_setup);
    report.layer("sim.events", traced.events as f64);
    report.layer("sim.clamped", traced.clamped as f64);
    report.layer(
        "sim.ns_per_event",
        acc.of(Layer::Delta) * 1e9 / traced.events.max(1) as f64,
    );
    report.layer("colls.template.build_s", acc.of(Layer::Template));
    report.layer("colls.template.calls", acc.calls_of(Layer::Template) as f64);
    let (hits, misses) = traced.template_hits_misses;
    report.layer("colls.template.hit_ratio", ratio(hits, hits + misses));
    report.layer("colls.template.keys", traced.template_keys as f64);
    report.layer("core.with_config_s", acc.of(Layer::Core));
    report.layer("tuner.bound.s", acc.of(Layer::Bound));
    report.layer("tuner.bound.calls", traced.bound_calls as f64);
    let [cands, simulated, pruned, beamed] = traced.counts;
    report.layer("tuner.search.prune_ratio", ratio(pruned, cands));
    report.layer("tuner.search.simulated", simulated as f64);
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
    report.layer("synth.space.s", acc.of(Layer::Space));
    report.layer("synth.candidates", cands as f64);
    report.layer("synth.simulated", simulated as f64);
    report.layer("synth.pruned", pruned as f64);
    report.layer("synth.beamed", beamed as f64);
    report.layer("synth.pareto.s", acc.of(Layer::Pareto));
    let points: usize = traced.fronts.iter().flatten().map(|f| f.points.len()).sum();
    report.layer("synth.pareto_points", points as f64);
    let wins = traced
        .fronts
        .iter()
        .flatten()
        .filter(|f| f.strict_win())
        .count();
    report.layer("synth.strict_wins", wins as f64);
    report.layer("synth.oracle.s", oracle.0);
    report.layer("synth.oracle.checks", oracle.1 as f64);
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

/// Output checks on the first pass. Returns whether all passed, and the
/// oracle's host time and check count.
fn check(inp: &Inputs, p: &Pass, seed: u64, report: &mut Report) -> (bool, (f64, u64)) {
    let before = report.failures();
    report.check(p.clamped == 0, || {
        format!("{} events were clamped into the past", p.clamped)
    });
    let digest = p.digest();
    report.info(&format!("pareto fronts digest {digest}"));
    if seed == DEFAULT_SEED {
        let want = reference("synth");
        report.check(want == Some(digest.as_str()), || {
            format!("synth digest {digest} differs from reference {want:?}")
        });
    }
    let lat_probe = SynthOpts::default().lat_probe;
    for (preset, r) in inp.presets.iter().zip(&p.results) {
        report.check(r.skipped.is_empty(), || {
            format!(
                "{}: SynthResult.skipped is not empty: {:?}",
                preset.name, r.skipped
            )
        });
        let mut machine = Machine::from_preset(preset);
        let mut cold = |coll: Coll, m: u64, cfg| {
            time_coll_on(&Han::with_config(cfg), &mut machine, preset, coll, m, 0)
        };
        for f in &r.fronts {
            let Some(w) = f.winner() else { continue };
            let lat_m = f.m.min(lat_probe).max(1);
            let (bw, lat) = (cold(f.coll, f.m, w.cfg), cold(f.coll, lat_m, w.cfg));
            report.check(
                bw == Ok(Time::from_ps(w.bw_ps)) && lat == Ok(Time::from_ps(w.lat_ps)),
                || {
                    format!(
                        "{} {} m={}: winner ({}, {}) ps but cold re-simulation gives ({bw:?}, {lat:?})",
                        preset.name,
                        f.coll.name(),
                        f.m,
                        w.lat_ps,
                        w.bw_ps
                    )
                },
            );
        }
    }
    for &(pi, draw) in &inp.losers {
        let (preset, r) = (&inp.presets[pi], &p.results[pi]);
        let s = &r.samples[(draw % r.samples.len() as u64) as usize];
        let Some(w) = r.front(s.coll, s.m).and_then(|f| f.winner()) else {
            continue;
        };
        let mut machine = Machine::from_preset(preset);
        let bw = time_coll_on(
            &Han::with_config(s.cfg),
            &mut machine,
            preset,
            s.coll,
            s.m,
            0,
        );
        report.check(bw == Ok(s.bw) && s.bw.as_ps() >= w.bw_ps, || {
            format!(
                "{} {} m={}: sample {} recorded {} ps, cold {bw:?}, winner {} ps",
                preset.name,
                s.coll.name(),
                s.m,
                s.cfg,
                s.bw.as_ps(),
                w.bw_ps
            )
        });
    }
    // The full-payload oracle over every front point.
    let t0 = Instant::now();
    let mut checks = 0u64;
    for (preset, r) in inp.presets.iter().zip(&p.results) {
        for f in &r.fronts {
            for pt in &f.points {
                checks += 1;
                let v = verify_schedule(preset, &pt.cfg, f.coll, f.m, 0);
                report.check(v.is_ok(), || {
                    format!(
                        "{} {} m={} {}: oracle failed: {v:?}",
                        preset.name,
                        f.coll.name(),
                        f.m,
                        pt.cfg
                    )
                });
            }
        }
    }
    let oracle_s = t0.elapsed().as_secs_f64();
    report.info(&format!(
        "oracle: {checks} front points verified in {oracle_s:.3} s"
    ));
    (report.failures() == before, (oracle_s, checks))
}

struct Traced {
    fronts: Vec<Vec<Front>>,
    /// Candidates, simulated, pruned, beamed (summed over presets).
    counts: [u64; 4],
    /// Collectives a group's stack declined.
    skipped: u64,
    spans: Vec<Vec<Span>>,
    workers: usize,
    wall_s: f64,
    events: u64,
    clamped: u64,
    bound_calls: u64,
    template_hits_misses: (u64, u64),
    template_keys: usize,
    delta: DeltaStats,
}

/// One simulated schedule of a group.
struct Sample {
    cfg: han_core::HanConfig,
    menu: bool,
    lat: Time,
    bw: Time,
}

struct GroupOut {
    samples: Vec<Sample>,
    pruned: u64,
    beamed: u64,
    skipped: Vec<Unsupported>,
    bound_calls: u64,
}

/// `han_synth::synthesize` over every preset, rebuilt from its public
/// parts with a span around each call.
fn replay(inp: &Inputs) -> Traced {
    han_mpi::reset_engine_totals();
    let epoch = Instant::now();
    let mut main = Tracer::new(epoch, 0);
    let opts = SynthOpts::default();
    let mut out = Traced {
        fronts: Vec::new(),
        counts: [0; 4],
        skipped: 0,
        spans: Vec::new(),
        workers: 1,
        wall_s: 0.0,
        events: 0,
        clamped: 0,
        bound_calls: 0,
        template_hits_misses: (0, 0),
        template_keys: 0,
        delta: DeltaStats::default(),
    };
    for preset in &inp.presets {
        let groups = main.span(Layer::Space, || enumerate(preset, &inp.space));
        let workers = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4)
            .min(groups.len().max(1))
            .max(1);
        out.workers = workers;
        let templates = TemplateStore::new();
        let bases = DeltaSim::shared_bases();
        let next = AtomicUsize::new(0);
        let mut merged: Vec<Option<GroupOut>> = (0..groups.len()).map(|_| None).collect();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let (groups, next, templates, bases, opts) =
                        (&groups, &next, &templates, &bases, &opts);
                    s.spawn(move || {
                        let mut tr = Tracer::new(epoch, w as u16 + 1);
                        let mut machine = Machine::from_preset(preset);
                        let mut scratch = Program::default();
                        let mut ds = DeltaSim::with_shared(bases.clone());
                        let mut done = Vec::new();
                        loop {
                            let g = next.fetch_add(1, Ordering::Relaxed);
                            if g >= groups.len() {
                                break;
                            }
                            tr.group = g as u32;
                            let span = tr.open(Layer::Search);
                            let (coll, m, cands) = &groups[g];
                            let mut cx = Ctx {
                                tr: &mut tr,
                                machine: &mut machine,
                                scratch: &mut scratch,
                                ds: &mut ds,
                                templates,
                                preset,
                            };
                            let r = run_group(&mut cx, *coll, *m, cands, opts);
                            tr.close(span);
                            done.push((g, r));
                        }
                        (done, tr.into_spans(), ds.stats())
                    })
                })
                .collect();
            for h in handles {
                let (done, sp, st) = h.join().expect("synthesis worker panicked");
                for (g, r) in done {
                    merged[g] = Some(r);
                }
                out.spans.push(sp);
                out.delta.full_runs += st.full_runs;
                out.delta.recorded_runs += st.recorded_runs;
                out.delta.delta_hits += st.delta_hits;
            }
        });
        let merge = main.open(Layer::Search);
        let mut fronts = Vec::new();
        out.counts[0] += groups.iter().map(|g| g.2.len() as u64).sum::<u64>();
        for ((coll, m, _), group) in groups.iter().zip(merged) {
            let group = group.expect("every group ran");
            out.counts[1] += group.samples.len() as u64;
            out.counts[2] += group.pruned;
            out.counts[3] += group.beamed;
            out.skipped += group.skipped.len() as u64;
            out.bound_calls += group.bound_calls;
            if group.samples.is_empty() {
                continue;
            }
            let menu_best_ps = group
                .samples
                .iter()
                .filter(|s| s.menu)
                .map(|s| s.bw.as_ps())
                .min();
            let points: Vec<FrontPoint> = group
                .samples
                .iter()
                .map(|s| FrontPoint {
                    cfg: s.cfg,
                    menu: s.menu,
                    lat_ps: s.lat.as_ps(),
                    bw_ps: s.bw.as_ps(),
                })
                .collect();
            let points = main.span(Layer::Pareto, || pareto_front(points));
            fronts.push(Front {
                coll: *coll,
                m: *m,
                points,
                menu_best_ps,
            });
        }
        main.close(merge);
        out.fronts.push(fronts);
        let st = templates.stats();
        out.template_hits_misses.0 += st.hits;
        out.template_hits_misses.1 += st.misses;
        out.template_keys += templates.len();
    }
    out.wall_s = epoch.elapsed().as_secs_f64();
    let e = han_mpi::engine_totals();
    (out.events, out.clamped) = (e.pops, e.clamped);
    out.spans.push(main.into_spans());
    out
}

/// `han_synth::search::run_group`: menu candidates always simulated,
/// extras visited cheapest-bound-first under the beam, each pruned when a
/// simulated point strictly dominates its bound pair.
fn run_group(cx: &mut Ctx, coll: Coll, m: u64, cands: &[Candidate], opts: &SynthOpts) -> GroupOut {
    let preset = cx.preset;
    let lat_m = m.min(opts.lat_probe).max(1);
    let mut out = GroupOut {
        samples: Vec::new(),
        pruned: 0,
        beamed: 0,
        skipped: Vec::new(),
        bound_calls: 0,
    };
    let menu_idx: Vec<usize> = (0..cands.len()).filter(|&i| cands[i].menu).collect();
    let extra_idx: Vec<usize> = (0..cands.len()).filter(|&i| !cands[i].menu).collect();
    out.bound_calls += extra_idx.len() as u64;
    let mut extras: Vec<(Option<Time>, usize)> = cx.tr.span(Layer::Bound, || {
        extra_idx
            .iter()
            .map(|&i| (lower_bound(preset, &cands[i].cfg, coll, m), i))
            .collect()
    });
    extras.sort_by_key(|&(b, i)| (b.unwrap_or(Time::ZERO), i));
    if extras.len() > opts.beam {
        out.beamed = (extras.len() - opts.beam) as u64;
        extras.truncate(opts.beam);
    }
    let mut points: Vec<(Time, Time)> = Vec::new();
    for &i in &menu_idx {
        out.bound_calls += 1;
        cx.tr
            .span(Layer::Bound, || lower_bound(preset, &cands[i].cfg, coll, m));
        simulate(cx, coll, m, lat_m, cands[i], &mut points, &mut out);
    }
    for &(bound_bw, i) in &extras {
        if opts.prune {
            out.bound_calls += 1;
            let bound_lat = cx.tr.span(Layer::Bound, || {
                lower_bound(preset, &cands[i].cfg, coll, lat_m)
            });
            if let (Some(bl), Some(bb)) = (bound_lat, bound_bw) {
                if points.iter().any(|&(pl, pb)| pl < bl && pb < bb) {
                    out.pruned += 1;
                    continue;
                }
            }
        }
        simulate(cx, coll, m, lat_m, cands[i], &mut points, &mut out);
    }
    out
}

/// Simulate one schedule at the full and the latency-probe size.
fn simulate(
    cx: &mut Ctx,
    coll: Coll,
    m: u64,
    lat_m: u64,
    cand: Candidate,
    points: &mut Vec<(Time, Time)>,
    out: &mut GroupOut,
) {
    let Candidate { cfg, menu } = cand;
    let bw = match sim_cost(cx, coll, m, cfg) {
        Ok(t) => t,
        Err(e) => return note_skip(&mut out.skipped, e),
    };
    let lat = if lat_m == m {
        bw
    } else {
        match sim_cost(cx, coll, lat_m, cfg) {
            Ok(t) => t,
            Err(e) => return note_skip(&mut out.skipped, e),
        }
    };
    points.push((lat, bw));
    // `synthesize` keeps each sample's latency-size bound for the verify
    // guidelines; the call is part of its cost.
    out.bound_calls += 1;
    let preset = cx.preset;
    cx.tr
        .span(Layer::Bound, || lower_bound(preset, &cfg, coll, lat_m));
    out.samples.push(Sample { cfg, menu, lat, bw });
}

fn note_skip(skipped: &mut Vec<Unsupported>, e: Unsupported) {
    if !skipped.contains(&e) {
        skipped.push(e);
    }
}

//! The sweep engine shared by exhaustive tuning ([`crate::search`]) and
//! schedule synthesis (`han-synth`).
//!
//! Both sweeps simulate candidate configurations for each `(coll, m)`
//! group; they differ only in the per-group policy — which candidates to
//! visit, in what order, and what to keep. This module owns everything
//! else:
//!
//! * [`Evaluator`] — one per worker: the worker's [`Machine`], scratch
//!   [`Program`] and optional [`DeltaSim`], plus borrows of the sweep's
//!   [`TemplateStore`] and optional [`CostCache`]. [`Evaluator::cost`] is
//!   the one evaluation path: cache lookup → template build → delta
//!   replay or plain execution → cache record. Every cost is bit-identical
//!   to a cold [`han_colls::stack::time_coll_on`].
//! * [`par_groups`] — the driver: work-stealing over groups via an atomic
//!   cursor (large message sizes cost orders of magnitude more than small
//!   ones, so static striping load-imbalances badly), outputs merged by
//!   group index. As long as the per-group policy visits its candidates in
//!   a fixed order, the sweep is bit-identical to a sequential one for any
//!   worker count.
//! * [`note_skip`] — deduplicated skip reporting.

use crate::cache::CostCache;
use crate::delta::DeltaSim;
use han_colls::stack::{Coll, Unsupported};
use han_colls::{MpiStack, TemplateStore};
use han_core::{Han, HanConfig};
use han_machine::{Machine, MachinePreset};
use han_mpi::{execute, ExecOpts, Program};
use han_sim::Time;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A sweep worker's simulation state. Built by [`par_groups`], one per
/// worker thread; the machine is reset between runs by the executor and
/// the scratch program's allocations are reused by template
/// specialization.
pub struct Evaluator<'a> {
    preset: &'a MachinePreset,
    machine: Machine,
    scratch: Program,
    delta: Option<DeltaSim>,
    templates: &'a TemplateStore,
    cache: Option<&'a CostCache>,
}

impl Evaluator<'_> {
    /// Simulated latency of HAN configured as `cfg` running `coll` on `m`
    /// bytes from root 0 (or its cached value).
    pub fn cost(&mut self, cfg: HanConfig, coll: Coll, m: u64) -> Result<Time, Unsupported> {
        if let Some(t) = self.cache.and_then(|c| c.lookup_coll(coll, &cfg, m)) {
            return Ok(t);
        }
        let han = Han::with_config(cfg);
        let key = self
            .templates
            .build_into(&han, self.preset, coll, m, 0, &mut self.scratch)?;
        let opts = ExecOpts::timing(han.flavor().p2p());
        let t = match &mut self.delta {
            Some(ds) => ds.time(&mut self.machine, &self.scratch, &opts, key),
            None => execute(&mut self.machine, &self.scratch, &opts).makespan,
        };
        if let Some(c) = self.cache {
            c.record_coll(coll, &cfg, m, t);
        }
        Ok(t)
    }
}

/// Run `run` over every group on `workers` threads (`None` = available
/// parallelism) and return its outputs in group order.
///
/// The workers share one [`TemplateStore`] and, when `delta` is set, one
/// pool of recorded delta bases: structurally identical candidates
/// usually sit in different groups (same config, neighbouring message
/// sizes), which the cursor hands to different workers — sharing is what
/// lets one worker's template or recording serve another's.
pub fn par_groups<G, Out, F>(
    preset: &MachinePreset,
    groups: &[G],
    workers: Option<usize>,
    delta: bool,
    cache: Option<&CostCache>,
    run: F,
) -> Vec<Out>
where
    G: Sync,
    Out: Send,
    F: Fn(&mut Evaluator<'_>, &G) -> Out + Sync,
{
    let workers = workers
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4)
        })
        .min(groups.len())
        .max(1);
    let templates = TemplateStore::new();
    let bases = DeltaSim::shared_bases();
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<Out>> = (0..groups.len()).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut eval = Evaluator {
                        preset,
                        machine: Machine::from_preset(preset),
                        scratch: Program::default(),
                        delta: delta.then(|| DeltaSim::with_shared(bases.clone())),
                        templates: &templates,
                        cache,
                    };
                    let mut out = Vec::new();
                    loop {
                        let g = next.fetch_add(1, Ordering::Relaxed);
                        if g >= groups.len() {
                            break;
                        }
                        out.push((g, run(&mut eval, &groups[g])));
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            for (g, r) in h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)) {
                slots[g] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every group ran"))
        .collect()
}

/// Record `e` in `skipped` unless an equal skip is already there.
pub fn note_skip(skipped: &mut Vec<Unsupported>, e: Unsupported) {
    if !skipped.contains(&e) {
        skipped.push(e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use han_colls::stack::time_coll_on;
    use han_colls::{InterAlg, InterModule, IntraModule};
    use han_machine::{mini, mini3};

    #[test]
    fn outputs_come_back_in_group_order() {
        let preset = mini(2, 2);
        let groups: Vec<usize> = (0..7).collect();
        for workers in [1, 2, 3, groups.len() + 2] {
            let out = par_groups(&preset, &groups, Some(workers), false, None, |_, &g| g * 10);
            assert_eq!(out, (0..7).map(|g| g * 10).collect::<Vec<_>>(), "{workers}");
        }
        let none: Vec<usize> = Vec::new();
        let out = par_groups(&preset, &none, Some(3), true, None, |_, &g| g);
        assert!(out.is_empty());
    }

    fn probes() -> Vec<(HanConfig, Coll, u64)> {
        let base = HanConfig::default();
        vec![
            (base, Coll::Bcast, 4096),
            (base.with_fs(64 << 10), Coll::Bcast, 1 << 20),
            (base.with_fs(64 << 10), Coll::Bcast, (1 << 20) + 4096),
            (
                base.with_inter(InterModule::Adapt, InterAlg::Chain),
                Coll::Allreduce,
                256 << 10,
            ),
            (base.with_intra(IntraModule::Solo), Coll::Allreduce, 1 << 20),
            (base, Coll::Reduce, 64 << 10),
        ]
    }

    #[test]
    fn cost_matches_a_cold_simulation() {
        for preset in [mini(2, 4), mini3(2, 2, 2)] {
            let mut machine = Machine::from_preset(&preset);
            let cold: Vec<Result<Time, Unsupported>> = probes()
                .into_iter()
                .map(|(cfg, coll, m)| {
                    time_coll_on(&Han::with_config(cfg), &mut machine, &preset, coll, m, 0)
                })
                .collect();
            for delta in [false, true] {
                for cached in [false, true] {
                    let cache = cached.then(|| CostCache::new(&preset));
                    // Two passes: the second is served by templates, delta
                    // replays and (when on) the cache.
                    let groups = [probes(), probes()];
                    let out = par_groups(
                        &preset,
                        &groups,
                        Some(1),
                        delta,
                        cache.as_ref(),
                        |eval, group| {
                            group
                                .iter()
                                .map(|&(cfg, coll, m)| eval.cost(cfg, coll, m))
                                .collect::<Vec<_>>()
                        },
                    );
                    for pass in &out {
                        assert_eq!(*pass, cold, "{} delta={delta} cache={cached}", preset.name);
                    }
                    if let Some(c) = &cache {
                        assert!(c.stats().hits > 0, "{}", preset.name);
                    }
                }
            }
        }
    }
}

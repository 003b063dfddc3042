//! `serve`: a live `han_serve` daemon on loopback, driven by one closed-
//! loop caller running sequential job sessions. Each session connects a
//! fresh caching `Client`, resolves single queries for its job's machine,
//! and disconnects; every few sessions a second connection hot-swaps that
//! machine's table mid-session. No simulation runs in the timed phase.

use crate::stats::{
    after_warmup, mean, median, percentile, proc_status_mib, ratio, repeat_timed, rng, Report,
};
use crate::Args;
use han_decide::{preset_fingerprint, LookupTable};
use han_machine::MachinePreset;
use han_serve::proto::{read_frame, write_frame, Request, Response};
use han_serve::{
    resolve_batch, serve, serve_space, tune_table, Answer, Client, Query, ServerHandle, TableStore,
    SERVE_COLLS,
};
use han_tuner::{tune_with_opts, SearchSpace, Strategy, TuneOpts};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Lookups per session. Each fresh client misses once per size bucket it
/// touches (about a dozen per machine), so misses are ~5% of lookups:
/// the median lookup is a local cache hit and the 99th percentile a
/// server round trip, each well clear of the boundary between them.
const SESSION_LOOKUPS: usize = 240;
/// Every this many sessions, the writer hot-swaps the session's machine
/// to its other table halfway through the session.
const SWAP_EVERY: usize = 16;
/// Sessions per timed block (one `wall_s` sample, tens of milliseconds).
const BLOCK_SESSIONS: usize = 50;
/// Distinct seeded sessions generated at set-up; the timed phase cycles
/// through them.
const POOL_SESSIONS: usize = 2000;
/// Deterministic counts are taken over this many sessions.
const COUNT_SESSIONS: usize = 1000;
/// Query sizes are log-uniform in `[1, 2^MAX_LOG2_M)` bytes.
const MAX_LOG2_M: f64 = 24.0;
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 5;

struct Session {
    /// Index of the job's machine.
    job: usize,
    queries: Vec<Query>,
}

/// The machines served, each with two alternative tables.
struct Served {
    fps: Vec<u64>,
    /// `tables[job][alt]`.
    tables: Vec<[LookupTable; 2]>,
}

/// The alternative table: the same tuner over message samples that
/// interleave `serve_space`'s, so its size buckets differ.
fn alt_space() -> SearchSpace {
    SearchSpace {
        msg_sizes: vec![2 * 1024, 16 * 1024, 128 * 1024, 1 << 20, 8 << 20],
        ..serve_space()
    }
}

fn tune_served(presets: &[MachinePreset]) -> Served {
    let opts = TuneOpts {
        prune: true,
        delta: true,
    };
    Served {
        fps: presets.iter().map(preset_fingerprint).collect(),
        tables: presets
            .iter()
            .map(|p| {
                let alt = tune_with_opts(
                    p,
                    &alt_space(),
                    &SERVE_COLLS,
                    Strategy::Exhaustive,
                    None,
                    opts,
                );
                [tune_table(p), alt.table]
            })
            .collect(),
    }
}

fn traffic(seed: u64, served: &Served) -> Vec<Session> {
    let mut r = rng(seed, 3);
    (0..POOL_SESSIONS)
        .map(|_| {
            let job = r.u64(served.fps.len() as u64) as usize;
            let queries = (0..SESSION_LOOKUPS)
                .map(|_| Query {
                    fingerprint: served.fps[job],
                    coll: SERVE_COLLS[r.u64(SERVE_COLLS.len() as u64) as usize],
                    m: (MAX_LOG2_M * r.f64()).exp2() as u64,
                })
                .collect();
            Session { job, queries }
        })
        .collect()
}

/// A running daemon with its write connection and the table behind
/// every generation it has published.
struct Daemon {
    handle: ServerHandle,
    writer: Client,
    /// `(fingerprint, generation)` → alternative index.
    generations: HashMap<(u64, u64), usize>,
    /// Alternative currently served per job.
    current: Vec<usize>,
}

impl Daemon {
    fn start(served: &Served) -> std::io::Result<Daemon> {
        let handle = serve("127.0.0.1:0", Arc::new(TableStore::new()))?;
        let writer = Client::connect(handle.addr())?;
        let mut d = Daemon {
            handle,
            writer,
            generations: HashMap::new(),
            current: vec![0; served.fps.len()],
        };
        for job in 0..served.fps.len() {
            d.publish(served, job, 0)?;
        }
        Ok(d)
    }

    fn publish(&mut self, served: &Served, job: usize, alt: usize) -> std::io::Result<()> {
        let fp = served.fps[job];
        let generation = self.writer.publish(fp, served.tables[job][alt].clone())?;
        self.generations.insert((fp, generation), alt);
        self.current[job] = alt;
        Ok(())
    }
}

struct Setup {
    served: Served,
    sessions: Vec<Session>,
    daemon: Daemon,
}

fn setup(seed: u64) -> std::io::Result<Setup> {
    let presets = han_verify::standard_presets();
    let served = tune_served(&presets);
    let sessions = traffic(seed, &served);
    let daemon = Daemon::start(&served)?;
    Ok(Setup {
        served,
        sessions,
        daemon,
    })
}

/// Everything the session loop observed.
#[derive(Default)]
struct Observed {
    block_walls: Vec<f64>,
    block_lookups: Vec<f64>,
    /// Per-lookup latency as the caller sees it, seconds.
    lookup_s: Vec<f64>,
    /// Split by whether the client went to the server (traced runs).
    hit_s: Vec<f64>,
    miss_s: Vec<f64>,
    connect_s: Vec<f64>,
    /// Time inside connect, resolve and publish calls (traced runs).
    in_calls_s: f64,
    sessions: usize,
    lookups: u64,
    publishes: u64,
    errors: u64,
    wrong: u64,
    hits: u64,
    misses: u64,
    /// Counts after [`COUNT_SESSIONS`] sessions.
    counts: Option<[(&'static str, u64); 5]>,
    /// `VmHWM` after set-up and the first block, before the latency
    /// samples grow with the number of lookups the run fits in.
    peak_rss_mb: f64,
}

/// Run blocks of sessions until `seconds` of timed blocks have passed and
/// at least [`COUNT_SESSIONS`] sessions ran. Answers are checked between
/// blocks, outside the timed intervals.
fn drive(s: &mut Setup, seconds: f64, traced: bool, obs: &mut Observed) {
    let addr = s.daemon.handle.addr();
    let mut answers: Vec<(usize, Answer)> = Vec::with_capacity(BLOCK_SESSIONS * SESSION_LOOKUPS);
    let mut timed = 0.0;
    while timed < seconds || obs.sessions < COUNT_SESSIONS {
        answers.clear();
        let block_start = Instant::now();
        let mut block_lookups = 0u64;
        for _ in 0..BLOCK_SESSIONS {
            let session = &s.sessions[obs.sessions % s.sessions.len()];
            let swap = obs.sessions % SWAP_EVERY == SWAP_EVERY - 1;
            obs.sessions += 1;
            let t0 = Instant::now();
            let client = Client::connect(addr);
            let dt = t0.elapsed().as_secs_f64();
            obs.connect_s.push(dt);
            obs.in_calls_s += dt;
            let mut client = match client {
                Ok(c) => c,
                Err(e) => {
                    println!("connect failed: {e}");
                    obs.errors += 1;
                    continue;
                }
            };
            for (k, q) in session.queries.iter().enumerate() {
                if swap && k == SESSION_LOOKUPS / 2 {
                    let t0 = Instant::now();
                    let alt = 1 - s.daemon.current[session.job];
                    if let Err(e) = s.daemon.publish(&s.served, session.job, alt) {
                        println!("publish failed: {e}");
                        obs.errors += 1;
                    }
                    obs.in_calls_s += t0.elapsed().as_secs_f64();
                    obs.publishes += 1;
                }
                let misses_before = client.misses();
                let t0 = Instant::now();
                let a = client.resolve(*q);
                let dt = t0.elapsed().as_secs_f64();
                obs.lookup_s.push(dt);
                if traced {
                    obs.in_calls_s += dt;
                    if client.misses() > misses_before {
                        obs.miss_s.push(dt);
                    } else {
                        obs.hit_s.push(dt);
                    }
                }
                block_lookups += 1;
                match a {
                    Ok(a) => answers.push((session.job, a)),
                    Err(e) => {
                        println!("resolve failed: {e}");
                        obs.errors += 1;
                    }
                }
            }
            obs.hits += client.hits();
            obs.misses += client.misses();
            drop(client);
            if obs.sessions == COUNT_SESSIONS {
                let st = s.daemon.handle.stats();
                obs.counts = Some([
                    ("client.hits", obs.hits),
                    ("client.misses", obs.misses),
                    ("server.requests", st.batches),
                    ("server.lookups", st.lookups),
                    ("publishes", st.publishes),
                ]);
            }
        }
        let wall = block_start.elapsed().as_secs_f64();
        timed += wall;
        obs.block_walls.push(wall);
        if obs.block_walls.len() == 1 {
            obs.peak_rss_mb = proc_status_mib("VmHWM");
        }
        obs.block_lookups.push(block_lookups as f64);
        obs.lookups += block_lookups;
        for (job, a) in &answers {
            if !answer_ok(s, *job, a) {
                if obs.wrong < 5 {
                    println!("wrong answer: {a:?}");
                }
                obs.wrong += 1;
            }
        }
    }
}

/// A served answer must equal a direct `LookupTable::resolve` on the table
/// of the generation the answer reports.
fn answer_ok(s: &Setup, job: usize, a: &Answer) -> bool {
    let fp = s.served.fps[job];
    let Some(&alt) = s.daemon.generations.get(&(fp, a.generation)) else {
        return false;
    };
    let Some(r) = s.served.tables[job][alt].resolve(a.coll, a.m) else {
        return false;
    };
    a.fingerprint == fp
        && (a.cfg, a.sample, a.lo, a.hi, a.cost_ps) == (r.cfg, r.m, r.lo, r.hi, r.cost_ps)
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restrict the calling thread, and every thread it spawns from now on,
/// to the last CPU it may run on; returns that CPU. Only one thread of the
/// closed loop is runnable at a time (the caller waits for the daemon's
/// answer), so one CPU loses no parallelism, and a request hands the CPU
/// straight to the daemon's thread instead of waking an idle vCPU, whose
/// wake-up latency on a shared VM host varies with the other tenants'
/// load: unpinned, `wall_s` moved up to 1.4× between consecutive runs;
/// pinned, it stayed within 1.17×.
fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..size * 8)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of `size` bytes.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

pub fn run(args: &Args, report: &mut Report) {
    // Before set-up, so the daemon's threads and the set-up's tuning
    // workers inherit it: the whole workload runs on one CPU.
    match pin_to_one_cpu() {
        Some(cpu) => report.info(&format!("pinned to CPU {cpu}")),
        None => report.info("could not pin to one CPU; running unpinned"),
    }
    let t0 = Instant::now();
    let mut s = match setup(args.seed) {
        Ok(s) => s,
        Err(e) => {
            report.check(false, || format!("daemon set-up failed: {e}"));
            report.attempted = 1;
            report.failed = 1;
            return;
        }
    };
    let mut setup_samples = vec![t0.elapsed().as_secs_f64()];
    let rss_after_setup = proc_status_mib("VmRSS");
    report.info(&format!(
        "{} machines x 2 tables, sessions of {SESSION_LOOKUPS} lookups, hot swap every {SWAP_EVERY} sessions",
        s.served.fps.len()
    ));

    let mut obs = Observed::default();
    let untraced_seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    drive(&mut s, untraced_seconds, false, &mut obs);
    report.attempted = obs.lookups + obs.publishes + obs.sessions as u64;
    report.failed = obs.errors + obs.wrong;
    report.check(obs.wrong == 0, || {
        format!(
            "{} served answers differ from the table of their generation",
            obs.wrong
        )
    });
    if let Some(counts) = obs.counts {
        for (name, v) in counts {
            report.count(name, v);
        }
    }
    // Per-lookup latency as the calling rank sees it: the median is a
    // client cache hit, the 99th percentile a server round trip. Printed
    // by name, outside the JSON result, which carries only the metrics
    // every workload reports.
    let mut lat = std::mem::take(&mut obs.lookup_s);
    report.extra("resolve_p50_us", "us", percentile(&mut lat, 50.0) * 1e6);
    report.extra("resolve_p99_us", "us", percentile(&mut lat, 99.0) * 1e6);
    let (walls, lookups) = (
        after_warmup(&obs.block_walls),
        after_warmup(&obs.block_lookups),
    );
    let lookups_per_block = mean(lookups);
    report.extra("lookups_per_s", "1/s", lookups_per_block / mean(walls));
    report.info(&format!(
        "{} lookups, client hit rate {:.4}",
        lat.len(),
        ratio(obs.hits, obs.hits + obs.misses)
    ));

    if !args.trace {
        // The remaining set-up repetitions run after the timed phase, so
        // `peak_rss_mb` holds one set-up's memory, not the allocator's
        // retention across several. Each repetition's daemon stops when
        // it is dropped, outside the timed interval.
        let (more, _) = repeat_timed(SETUP_REPS - 1, SETUP_REPS - 1, 0.0, || setup(args.seed));
        setup_samples.extend(more);
        report.timed("setup_s", "s", &setup_samples);
        report.per_pass(walls, lookups_per_block);
        report.metric("peak_rss_mb", "MiB", obs.peak_rss_mb);
        shutdown(s, report);
        return;
    }

    // Traced half: the same loop, splitting each lookup by whether it went
    // to the server, then the in-process layers under the wire path.
    let untraced_wall = mean(walls);
    let mut t = Observed {
        sessions: obs.sessions,
        ..Observed::default()
    };
    let before = s.daemon.handle.stats();
    drive(&mut s, args.seconds / 2.0, true, &mut t);
    let after = s.daemon.handle.stats();
    report.attempted += t.lookups + t.publishes + (t.sessions - obs.sessions) as u64;
    report.failed += t.errors + t.wrong;
    report.check(t.wrong == 0, || {
        format!(
            "{} served answers differ from the table of their generation",
            t.wrong
        )
    });
    let traced_wall = mean(after_warmup(&t.block_walls));
    let total_wall: f64 = t.block_walls.iter().sum();
    report.layer("trace.wall_s", traced_wall);
    report.layer("trace.overhead_s", traced_wall - untraced_wall);
    // Time of the session loop outside connect/resolve/publish calls:
    // disconnects and the loop itself.
    report.layer("trace.idle_share", 1.0 - t.in_calls_s / total_wall);
    report.layer("proc.rss_after_setup_mb", rss_after_setup);
    let miss_us = median(&t.miss_s) * 1e6;
    report.layer("serve.connect_us", median(&t.connect_s) * 1e6);
    report.layer("serve.client.hit_ratio", ratio(t.hits, t.hits + t.misses));
    report.layer("serve.hit_us", median(&t.hit_s) * 1e6);
    report.layer("serve.miss_us", miss_us);
    report.layer("serve.miss_p99_us", percentile(&mut t.miss_s, 99.0) * 1e6);
    report.layer(
        "serve.server.requests",
        (after.batches - before.batches) as f64,
    );

    let queries: Vec<(usize, Query)> = s
        .sessions
        .iter()
        .flat_map(|sess| sess.queries.iter().map(move |q| (sess.job, *q)))
        .take(20_000)
        .collect();
    let decide_ns = per_call(&queries, |(job, q)| {
        s.served.tables[*job][0].resolve(q.coll, q.m)
    }) * 1e9;
    report.layer("decide.resolve_ns", decide_ns);
    let store = TableStore::new();
    for (job, fp) in s.served.fps.iter().enumerate() {
        store.publish(*fp, s.served.tables[job][0].clone());
    }
    let store_us = per_call(&queries, |(_, q)| {
        resolve_batch(&store, std::slice::from_ref(q))
    }) * 1e6;
    report.layer("serve.store.resolve_us", store_us);
    let resolved: Vec<(Query, Answer)> = queries
        .iter()
        .map(|(_, q)| {
            let a = resolve_batch(&store, std::slice::from_ref(q)).expect("known fingerprint");
            (*q, a[0])
        })
        .collect();
    let codec_us = per_call(&resolved, |(q, a)| codec_round_trip(*q, *a)) * 1e6;
    report.layer("serve.proto.codec_us", codec_us);
    report.layer("serve.net_us", miss_us - store_us - codec_us);
    report.layer("serve.store.publish_us", publish_us(&s.served));
    shutdown(s, report);
}

fn shutdown(mut s: Setup, report: &mut Report) {
    s.daemon.handle.shutdown();
    report.info(&format!(
        "daemon stopped after {} publishes",
        s.daemon.generations.len()
    ));
}

/// Median host time of one `f` call, from 11 batches over `inputs`, each
/// batch long enough (>= 10 ms) to leave timer noise behind.
fn per_call<T, R>(inputs: &[T], mut f: impl FnMut(&T) -> R) -> f64 {
    let mut batch = 64usize;
    loop {
        let t0 = Instant::now();
        for x in inputs.iter().cycle().take(batch) {
            black_box(f(x));
        }
        if t0.elapsed().as_secs_f64() >= 0.010 {
            break;
        }
        batch *= 2;
    }
    let (samples, _) = repeat_timed(11, 11, 0.0, || {
        for x in inputs.iter().cycle().take(batch) {
            black_box(f(x));
        }
    });
    median(&samples) / batch as f64
}

/// The wire codec work of one cache miss, on memory buffers: the client
/// encodes a one-query `Resolve`, the server decodes it and encodes the
/// `Resolved` answer, the client decodes that. The answer is resolved
/// beforehand, so the store's work is not counted twice.
fn codec_round_trip(q: Query, answer: Answer) -> Response {
    let mut wire = Vec::new();
    write_frame(&mut wire, &Request::Resolve { queries: vec![q] }.to_value()).expect("encode");
    let frame = read_frame(&mut wire.as_slice())
        .expect("decode")
        .expect("frame");
    let Ok(Request::Resolve { queries }) = Request::from_value(&frame) else {
        panic!("request did not round-trip");
    };
    assert_eq!(queries.len(), 1, "one query per miss");
    wire.clear();
    let answers = vec![answer];
    write_frame(&mut wire, &Response::Resolved { answers }.to_value()).expect("encode");
    let frame = read_frame(&mut wire.as_slice())
        .expect("decode")
        .expect("frame");
    Response::from_value(&frame).expect("response round-trips")
}

/// Median host time of one in-process `TableStore::publish` hot swap.
fn publish_us(served: &Served) -> f64 {
    let store = TableStore::new();
    for (job, fp) in served.fps.iter().enumerate() {
        store.publish(*fp, served.tables[job][0].clone());
    }
    const SWAPS: usize = 500;
    let mut inner = Vec::new();
    for _ in 0..11 {
        let tables: Vec<(u64, LookupTable)> = (0..SWAPS)
            .map(|i| {
                let job = i % served.fps.len();
                (served.fps[job], served.tables[job][1 - i % 2].clone())
            })
            .collect();
        let t0 = Instant::now();
        for (fp, t) in tables {
            store.publish(fp, t);
        }
        inner.push(t0.elapsed().as_secs_f64() / SWAPS as f64);
    }
    median(&inner) * 1e6
}

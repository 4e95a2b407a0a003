//! `zipf_churn_k2`: a 1-worker `Server` with the default result cache,
//! kept saturated by one client thread, with an update barrier every
//! segment.
//!
//! The client keeps a deep window of outstanding tickets and sleeps only
//! until the window is half drained, so the worker always has queued work
//! and never parks inside a timed segment. At each barrier the client
//! drains the window, checks every answer of the segment against a fresh
//! engine over that epoch's environment, applies one update batch and
//! swaps the new environment in. Barriers start each epoch with a cold
//! cache (cache keys carry the epoch), which makes the hit/miss split a
//! function of the seed alone.
//!
//! Ticket latency at saturation is time spent queueing behind the window,
//! and it moved with the relative speed of the two threads, so the
//! latency this workload reports is that of the engine runs behind its
//! misses, timed where the barrier replays them on the client thread.

use crate::metrics::{end_to_end, per_layer, write_spans, Best, BestLatency, EndToEnd, Layers};
use crate::report::{Exact, Report};
use crate::rng::{stream, SplitMix64, Zipf};
use crate::spans::Tracer;
use crate::sys::process_cpu_ns;
use crate::workload::{
    build_env, generate_timed, query_pool, shard_replay, timed_setups, Plan, Spread, UpdateBatches,
    Workload,
};
use std::collections::VecDeque;
use std::time::Instant;
use tnn_broadcast::MultiChannelEnv;
use tnn_core::{QueryEngine, QueryOutcome, TnnError};
use tnn_geom::Point;
use tnn_serve::{ServeConfig, Server, ShutdownMode, Ticket};

/// Zipf exponent of the query draws.
const ZIPF_S: f64 = 1.1;

/// What one served phase measured.
struct Segments {
    setup_s: Vec<f64>,
    /// Best repeat of each draw set, over the untraced passes.
    best: Best,
    /// The same over the traced passes, in a traced run.
    traced_best: Option<Best>,
    /// Best latency of each distinct query of each draw set, replayed on
    /// a fresh engine at the barrier.
    miss_latency: BestLatency,
    /// Update batches (edit, cut, advance, swap), one per barrier.
    batches: UpdateBatches,
    queries: u64,
    failed: u64,
    /// Counters over the first pass over the draw sets.
    exact: Exact,
    problems: Vec<String>,
    final_env: MultiChannelEnv,
}

/// Builds a server, then serves Zipf segments and their barriers until
/// `seconds` have gone by and at least `min_passes` passes over the draw
/// sets are done. When `tracer` is on, untraced and traced passes
/// alternate, so the two sample the same moments of the host.
fn served_phase(
    points: &[Vec<Point>],
    plan: &Plan,
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
) -> Segments {
    let config = ServeConfig::new().workers(1);
    let spawn = |t: &mut Tracer| {
        let env = build_env(points, t);
        t.span("serve.spawn", || Server::spawn(env, config))
    };
    // A traced run times its set-ups up front, under spans; an untraced
    // one spreads them over its segments (see `embedded::SideWork`).
    let (up_front, spread) = if tracer.is_on() {
        (plan.setup_reps, 0)
    } else {
        (1, plan.setup_reps - 1)
    };
    let (setup_s, server) = timed_setups(up_front, tracer, spawn);
    let mut setups = Spread::new(spread, seconds);
    let mut env = server.engine().env();
    let pool = query_pool(
        &env,
        plan.zipf_pool,
        &mut SplitMix64::new(stream(seed, 0x300)),
    );
    let zipf = Zipf::new(pool.len(), ZIPF_S);
    let draw_sets: Vec<Vec<usize>> = (0..plan.draw_sets as u64)
        .map(|set| {
            let mut rng = SplitMix64::new(stream(seed, 0x500 + set));
            (0..plan.segment).map(|_| zipf.sample(&mut rng)).collect()
        })
        .collect();
    let mut out = Segments {
        setup_s,
        best: Best::new(draw_sets.iter().map(Vec::len)),
        traced_best: tracer
            .is_on()
            .then(|| Best::new(draw_sets.iter().map(Vec::len))),
        miss_latency: BestLatency::new(draw_sets.iter().map(|d| count_distinct(d))),
        batches: UpdateBatches::new(&env, seed, plan),
        queries: 0,
        failed: 0,
        exact: Exact::default(),
        problems: Vec::new(),
        final_env: env.clone(),
    };
    let passes = plan.min_passes * if tracer.is_on() { 2 } else { 1 };
    let mut untraced = Tracer::new(false);
    let start = Instant::now();
    let mut latency_us = Vec::new();
    for segment in 0.. {
        let counted = segment < draw_sets.len();
        let key = segment % draw_sets.len();
        let traced_pass = tracer.is_on() && (segment / draw_sets.len()) % 2 == 1;
        let tracer: &mut Tracer = if traced_pass { tracer } else { &mut untraced };
        let draws = &draw_sets[key];
        if counted {
            draws
                .iter()
                .for_each(|&i| out.exact.add_to_stream(i as u64));
        }

        let before = server.stats();
        let wall0 = Instant::now();
        let cpu0 = process_cpu_ns();
        let answers = drive(&server, &pool, draws, plan, tracer);
        let cpu_ns = process_cpu_ns() - cpu0;
        let wall = wall0.elapsed().as_secs_f64();
        // The worker books its counters after resolving a micro-batch's
        // tickets; wait (untimed) until the last batch is booked.
        let after = loop {
            let stats = server.stats();
            if stats.queued == 0 && stats.in_flight == 0 {
                break stats;
            }
            std::thread::yield_now();
        };
        match &mut out.traced_best {
            Some(traced) if traced_pass => traced.record(key, wall, cpu_ns),
            _ => out.best.record(key, wall, cpu_ns),
        }
        out.queries += draws.len() as u64;

        // Barrier, untimed: every answer against a fresh engine over this
        // epoch's environment (each distinct query runs once).
        let fresh = QueryEngine::new(env.clone());
        let mut scratch = fresh.scratch();
        let mut want: Vec<Option<Result<QueryOutcome, TnnError>>> = vec![None; pool.len()];
        latency_us.clear();
        for (&i, got) in draws.iter().zip(&answers) {
            let expected = want[i].get_or_insert_with(|| {
                let span = tracer.enter("core.run_with", Some(i as u64), 1);
                let t0 = Instant::now();
                let run = fresh.run_with(&pool[i], &mut scratch);
                latency_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
                tracer.exit(span);
                if let (true, Ok(o)) = (counted, &run) {
                    out.exact.add_run(o);
                }
                run
            });
            out.failed += u64::from(got.is_err() || got != expected);
        }
        if !traced_pass {
            out.miss_latency.record(key, &latency_us);
        }
        let engine_runs = latency_us.len() as u64;
        let (hits, misses) = (
            after.cache_hits - before.cache_hits,
            after.cache_misses - before.cache_misses,
        );
        if misses != engine_runs || hits + misses != draws.len() as u64 {
            out.problems.push(format!(
                "segment {segment}: {hits} hits + {misses} misses for {engine_runs} distinct of {} queries",
                draws.len()
            ));
        }
        if counted {
            out.exact.cache_hits += hits;
            out.exact.cache_misses += misses;
            out.exact.updates += 1;
        }

        // The update batch, timed on its own.
        let (next, valid) = out.batches.apply(&env, tracer, |e| server.swap_env(e));
        if !valid {
            out.problems.push(format!(
                "segment {segment}: the update left an invalid environment"
            ));
        }
        env = next;
        if setups.due() {
            let (seconds, _server) = timed_setups(1, &mut Tracer::new(false), spawn);
            out.setup_s.extend(seconds);
        }

        if segment + 1 >= passes * draw_sets.len() && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    for _ in 0..setups.owed() {
        let (seconds, _server) = timed_setups(1, &mut Tracer::new(false), spawn);
        out.setup_s.extend(seconds);
    }
    let stats = server.shutdown(ShutdownMode::Drain);
    if !stats.conserved() {
        out.problems
            .push(format!("serving stats broke conservation: {stats:?}"));
    }
    out.final_env = env;
    out
}

/// Distinct queries among `draws`.
fn count_distinct(draws: &[usize]) -> usize {
    let mut seen = draws.to_vec();
    seen.sort_unstable();
    seen.dedup();
    seen.len()
}

/// Serves one segment: submits `draws` in blocks and collects every
/// answer in submission order.
///
/// Blocks have fixed bounds (`block` queries each), and a block is
/// submitted once every ticket more than `window` places behind its end
/// has resolved, so at most `window` tickets are outstanding and the
/// worker always has a block queued. A client that refilled whenever half
/// its window had drained, at bounds that depended on timing, served about
/// a quarter fewer queries per second, with three times the spread.
///
/// Each query goes in with its own `Server::submit`. One `submit_batch`
/// per block holds the queue lock while it admits the whole block, and
/// the worker waited on that lock; per-query submission served 14–25%
/// more queries per second in an interleaved comparison.
fn drive(
    server: &Server,
    pool: &[tnn_core::Query],
    draws: &[usize],
    plan: &Plan,
    tracer: &mut Tracer,
) -> Vec<Result<QueryOutcome, TnnError>> {
    let mut answers = Vec::with_capacity(draws.len());
    let mut inflight = VecDeque::new();
    for start in (0..draws.len()).step_by(plan.block) {
        let end = (start + plan.block).min(draws.len());
        collect(end.saturating_sub(plan.window), &mut inflight, &mut answers);
        let span = tracer.enter("serve.submit", Some(start as u64), (end - start) as u32);
        let tickets: Vec<_> = draws[start..end]
            .iter()
            .map(|&i| server.submit(pool[i].clone()))
            .collect();
        tracer.exit(span);
        inflight.extend(tickets);
    }
    collect(draws.len(), &mut inflight, &mut answers);
    answers
}

/// Waits until the first `done` submitted tickets have resolved and moves
/// their answers out of `inflight`.
fn collect(
    done: usize,
    inflight: &mut VecDeque<Result<Ticket, TnnError>>,
    answers: &mut Vec<Result<QueryOutcome, TnnError>>,
) {
    let range = ..done.saturating_sub(answers.len());
    // One worker serves the queue in order, so once the last queued
    // ticket of the range has resolved, every ticket ahead of it has too:
    // the client sleeps once per block. (Admission-time cache hits are
    // resolved before `submit` returns.)
    let last_queued = inflight
        .range(range)
        .rev()
        .find_map(|t| t.as_ref().ok().filter(|t| !t.is_done()));
    if let Some(ticket) = last_queued {
        let _ = ticket.wait();
    }
    while answers.len() < done {
        let front = inflight
            .pop_front()
            .expect("every submitted ticket is in flight");
        answers.push(front.and_then(|t| t.wait()));
    }
}

pub fn run(
    plan: &Plan,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_out: Option<&std::path::Path>,
) -> Report {
    let mut report = Report::default();
    let mut tracer = Tracer::new(trace);
    let reps = if trace { plan.setup_reps } else { 1 };
    let points = generate_timed(Workload::ZipfChurnK2, plan, reps, &mut tracer);

    let phase = served_phase(&points, plan, seed, seconds, &mut tracer);
    report.exact = phase.exact.clone();
    report.attempted += phase.queries;
    report.failed += phase.failed;
    phase
        .problems
        .iter()
        .for_each(|p| report.problem(p.clone()));

    // The final epoch must shard exactly as it serves.
    let env = &phase.final_env;
    let pool = query_pool(env, plan.replay, &mut SplitMix64::new(stream(seed, 0x600)));
    let shard = shard_replay(env, &pool, &mut tracer);
    report.attempted += pool.len() as u64;
    report.failed += shard.mismatches;
    if !shard.conserved {
        report.problem("shard stats broke conservation".into());
    }

    if let Some(traced) = &phase.traced_best {
        let e = &report.exact;
        let (cache_hits, cache_misses, epochs) = (e.cache_hits, e.cache_misses, e.updates);
        per_layer(
            &mut report,
            Layers {
                tracer: &tracer,
                cache_hits,
                cache_misses,
                epochs,
                shard: &shard,
                untraced: &phase.best,
                traced,
            },
        );
        write_spans(&tracer, spans_out, &mut report);
    } else {
        end_to_end(
            &mut report,
            EndToEnd {
                setup_s: &phase.setup_s,
                best: &phase.best,
                latency: &phase.miss_latency,
                update_ms: phase.batches.best_ms(),
            },
        );
    }
    report
}

//! `uniform_k2` and `city_k3`: one `QueryEngine` driven from the
//! benchmark's own thread, one query at a time through `run_with`, so no
//! thread ever parks while a query is timed.

use crate::metrics::{end_to_end, per_layer, write_spans, Best, BestLatency, EndToEnd, Layers};
use crate::report::{Exact, Report};
use crate::rng::{stream, SplitMix64};
use crate::spans::Tracer;
use crate::sys::process_cpu_ns;
use crate::workload::{
    build_env, generate_timed, matches_oracle, query_pool, served_replay, shard_replay,
    timed_setups, Plan, Spread, UpdateBatches, Workload,
};
use std::time::Instant;
use tnn_broadcast::MultiChannelEnv;
use tnn_core::{Query, QueryEngine, QueryOutcome, QueryScratch, TnnError};
use tnn_geom::Point;

/// What the passes of one kind (untraced or traced) measured.
struct Passes {
    best: Best,
    latency: BestLatency,
    passes: usize,
    queries: u64,
    failed: u64,
    /// Counters over the first pass.
    exact: Exact,
    /// The first pass's answers, in pool order.
    answers: Vec<Result<QueryOutcome, TnnError>>,
}

impl Passes {
    fn new(chunks: &[&[Query]]) -> Passes {
        Passes {
            best: Best::new(chunks.iter().map(|c| c.len())),
            latency: BestLatency::new(chunks.iter().map(|c| c.len())),
            passes: 0,
            queries: 0,
            failed: 0,
            exact: Exact::default(),
            answers: Vec::new(),
        }
    }

    /// One pass over the pool, timing each chunk as one round. Every pass
    /// after the first must reproduce the first pass's answers.
    fn run(
        &mut self,
        engine: &QueryEngine,
        chunks: &[&[Query]],
        scratch: &mut QueryScratch,
        tracer: &mut Tracer,
    ) {
        let mut latency_us = Vec::new();
        let mut i = 0;
        for (key, chunk) in chunks.iter().enumerate() {
            latency_us.clear();
            let wall0 = Instant::now();
            let cpu0 = process_cpu_ns();
            for query in chunk.iter() {
                let span = tracer.enter("core.run_with", Some(i as u64), 1);
                let t0 = Instant::now();
                let got = engine.run_with(query, scratch);
                let dt = t0.elapsed();
                tracer.exit(span);
                latency_us.push(dt.as_nanos() as f64 / 1e3);
                if self.passes == 0 {
                    if let Ok(o) = &got {
                        self.exact.add_run(o);
                    }
                    self.failed += u64::from(got.is_err());
                    self.answers.push(got);
                } else {
                    self.failed += u64::from(got.is_err() || got != self.answers[i]);
                }
                i += 1;
            }
            let cpu_ns = process_cpu_ns() - cpu0;
            self.best.record(key, wall0.elapsed().as_secs_f64(), cpu_ns);
            self.latency.record(key, &latency_us);
        }
        self.passes += 1;
        self.queries += i as u64;
    }
}

/// Runs whole passes over `pool` until `seconds` have gone by and at
/// least `min_passes` passes are done, calling `between` after each.
/// When `tracer` is on, untraced and traced passes alternate, so the two
/// sample the same moments of the host and their difference is the
/// tracing overhead; the traced passes come back second.
fn timed_passes(
    engine: &QueryEngine,
    pool: &[Query],
    plan: &Plan,
    seconds: f64,
    tracer: &mut Tracer,
    between: &mut dyn FnMut(),
) -> (Passes, Option<Passes>) {
    let mut scratch = engine.scratch();
    // Warm-up: grow the scratch buffers and fill the caches untimed.
    for query in pool.iter().take(pool.len() / 8 + 1) {
        let _ = engine.run_with(query, &mut scratch);
    }
    let chunks: Vec<&[Query]> = pool.chunks(plan.chunk).collect();
    let mut plain = Passes::new(&chunks);
    let mut traced = tracer.is_on().then(|| Passes::new(&chunks));
    let mut untraced = Tracer::new(false);
    let start = Instant::now();
    loop {
        plain.run(engine, &chunks, &mut scratch, &mut untraced);
        if let Some(traced) = &mut traced {
            traced.run(engine, &chunks, &mut scratch, tracer);
        }
        between();
        if plain.passes >= plan.min_passes && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    engine.recycle(scratch);
    (plain, traced)
}

/// Set-ups and update batches measured beside the timed passes. In an
/// untraced run they are spread over the timed phase, so their timings
/// sample the whole run rather than one moment of it; whatever is still
/// owed when the phase ends runs after it.
struct SideWork<'a> {
    points: &'a [Vec<Point>],
    setups: Spread,
    setup_s: Vec<f64>,
    updates: Spread,
    batches: UpdateBatches,
    /// Update batches go to this engine, not the timed one, whose answers
    /// must stay fixed from pass to pass.
    engine: QueryEngine,
    env: MultiChannelEnv,
    invalid_cuts: u64,
}

impl SideWork<'_> {
    fn between_passes(&mut self) {
        while self.setups.due() {
            self.setup();
        }
        while self.updates.due() {
            self.update(&mut Tracer::new(false));
        }
    }

    fn finish(&mut self, tracer: &mut Tracer) {
        for _ in 0..self.setups.owed() {
            self.setup();
        }
        for _ in 0..self.updates.owed() {
            self.update(tracer);
        }
    }

    fn setup(&mut self) {
        let (seconds, _engine) =
            timed_setups(1, &mut Tracer::new(false), |t| build_engine(self.points, t));
        self.setup_s.extend(seconds);
    }

    /// One update batch through the engine: delta edits, cycle cut,
    /// advance, swap.
    fn update(&mut self, tracer: &mut Tracer) {
        let engine = &self.engine;
        let (next, valid) = self
            .batches
            .apply(&self.env, tracer, |e| engine.swap_env(e));
        self.invalid_cuts += u64::from(!valid);
        self.env = next;
    }
}

fn build_engine(points: &[Vec<Point>], tracer: &mut Tracer) -> QueryEngine {
    let env = build_env(points, tracer);
    tracer.span("core.engine_new", || QueryEngine::new(env))
}

pub fn run(
    workload: Workload,
    plan: &Plan,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_out: Option<&std::path::Path>,
) -> Report {
    let mut report = Report::default();
    let mut tracer = Tracer::new(trace);
    // A traced run times its set-ups up front, under spans; an untraced
    // one spreads them over the timed phase.
    let (up_front, spread) = if trace {
        (plan.setup_reps, 0)
    } else {
        (1, plan.setup_reps - 1)
    };
    let points = generate_timed(workload, plan, up_front, &mut tracer);
    let (setup_s, engine) = timed_setups(up_front, &mut tracer, |t| build_engine(&points, t));
    let env0 = engine.env();
    let pool_size = match workload {
        Workload::CityK3 => plan.city_pool,
        _ => plan.uniform_pool,
    };
    let pool = query_pool(&env0, pool_size, &mut SplitMix64::new(stream(seed, 0x300)));

    // The timed phase.
    let mut side = SideWork {
        points: &points,
        setups: Spread::new(spread, seconds),
        setup_s,
        updates: Spread::new(plan.update_batches, seconds),
        batches: UpdateBatches::new(&env0, seed, plan),
        engine: QueryEngine::new(env0.clone()),
        env: env0.clone(),
        invalid_cuts: 0,
    };
    // A traced run does its update batches after the phase, under spans.
    let (plain, traced) = timed_passes(&engine, &pool, plan, seconds, &mut tracer, &mut || {
        if !trace {
            side.between_passes()
        }
    });
    side.finish(&mut tracer);
    if side.invalid_cuts > 0 {
        report.problem(format!(
            "{} update batches left an invalid environment",
            side.invalid_cuts
        ));
    }
    report.attempted += plain.queries;
    report.failed += plain.failed;
    report.exact = plain.exact.clone();
    report.exact.updates = side.batches.done() as u64;
    for query in &pool {
        let p = query.point();
        report
            .exact
            .add_to_stream(p.x.to_bits() ^ p.y.to_bits().rotate_left(32));
    }
    if let Some(traced) = &traced {
        report.attempted += traced.queries;
        report.failed += traced.failed;
        if traced.exact != plain.exact {
            report.problem("traced passes counted differently from untraced ones".into());
        }
    }

    // Outside the timed phase: a deterministic sample against the exact
    // oracle, on the original data and on the updated data.
    let env = side.env.clone();
    for (query, answer) in pool.iter().zip(&plain.answers).step_by(plan.oracle_every) {
        let updated = side.engine.run(query);
        report.attempted += 2;
        let ok = answer
            .as_ref()
            .is_ok_and(|o| matches_oracle(&env0, query, o));
        let ok_updated = updated.is_ok_and(|o| matches_oracle(&env, query, &o));
        report.failed += u64::from(!ok) + u64::from(!ok_updated);
    }

    // Serving and sharding must answer exactly as the engine does.
    let sample = &pool[..plan.replay.min(pool.len())];
    let shard = shard_replay(&env, sample, &mut tracer);
    let served = served_replay(&env, sample, 16, &mut tracer);
    report.attempted += 2 * sample.len() as u64;
    report.failed += shard.mismatches + served.mismatches;
    if !shard.conserved || !served.conserved {
        report.problem("serving stats broke conservation".into());
    }

    if let Some(traced) = &traced {
        per_layer(
            &mut report,
            Layers {
                tracer: &tracer,
                cache_hits: served.hits,
                cache_misses: served.misses,
                epochs: 1,
                shard: &shard,
                untraced: &plain.best,
                traced: &traced.best,
            },
        );
        write_spans(&tracer, spans_out, &mut report);
    } else {
        end_to_end(
            &mut report,
            EndToEnd {
                setup_s: &side.setup_s,
                best: &plain.best,
                latency: &plain.latency,
                update_ms: side.batches.best_ms(),
            },
        );
    }
    report
}

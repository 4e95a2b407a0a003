//! The benchmark's exact counters depend on the seed alone, at test size:
//! two runs with one seed count identically, another seed draws another
//! query stream, and every cycle cut leaves a valid environment.

use perfbench::rng::SplitMix64;
use perfbench::spans::Tracer;
use perfbench::workload::{build_env, cut_is_valid, generate, update_batch};
use perfbench::{run, Exact, Plan, Report, Workload};

fn small_run(workload: Workload, seed: u64, trace: bool) -> Report {
    let report = run(workload, &Plan::small(), seed, 0.0, trace, None);
    assert!(
        report.correct(),
        "{} seed {seed}: {} of {} failed, problems {:?}",
        workload.name(),
        report.failed,
        report.attempted,
        report.problems
    );
    report
}

fn exact(workload: Workload, seed: u64) -> Exact {
    small_run(workload, seed, false).exact
}

#[test]
fn one_seed_gives_identical_exact_counters() {
    for workload in Workload::ALL {
        let first = exact(workload, 7);
        assert_eq!(first, exact(workload, 7), "{}", workload.name());
        assert!(first.runs > 0 && first.access_pages > 0 && first.tune_in_pages > 0);
        assert!(first.updates > 0, "{} applied no update", workload.name());
        if workload == Workload::ZipfChurnK2 {
            assert!(first.cache_hits > 0 && first.cache_misses > 0, "{first:?}");
            assert_eq!(
                first.runs, first.cache_misses,
                "the engine runs exactly on misses"
            );
        }
    }
}

#[test]
fn another_seed_draws_another_query_stream() {
    for workload in Workload::ALL {
        assert_ne!(
            exact(workload, 7).stream,
            exact(workload, 8).stream,
            "{}",
            workload.name()
        );
    }
}

#[test]
fn every_cycle_cut_leaves_a_valid_environment() {
    let plan = Plan::small();
    let mut tracer = Tracer::new(false);
    for workload in [Workload::UniformK2, Workload::CityK3] {
        let mut env = build_env(&generate(workload, &plan), &mut tracer);
        let n = env.channel(0).tree().num_objects();
        let mut rng = SplitMix64::new(3);
        for cut in 0..8 {
            let base = env.channel(0).tree_arc();
            let next = update_batch(&env, base, plan.update_size, &mut rng, &mut tracer);
            assert!(cut_is_valid(&next, n), "{} cut {cut}", workload.name());
            assert_eq!(next.epoch(), env.epoch() + 1);
            env = next;
        }
    }
}

/// The declared metric `name` with `unit` in `BENCHMARK.json`'s `section`.
fn declared(section: &str, name: &str, unit: &str) -> bool {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside perfbench/");
    let start = json
        .find(&format!("\"{section}\""))
        .expect("section is declared");
    let end = json[start..].find(']').map_or(json.len(), |e| start + e);
    json[start..end].contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\""))
}

#[test]
fn runs_report_exactly_the_declared_metrics() {
    for (trace, section, count) in [(false, "end_to_end", 10), (true, "per_layer", 24)] {
        for workload in Workload::ALL {
            let report = small_run(workload, 5, trace);
            assert_eq!(report.metrics.len(), count, "{} {section}", workload.name());
            for m in &report.metrics {
                assert!(m.value.is_finite(), "{} {}", workload.name(), m.name);
                assert!(declared(section, m.name, m.unit), "{} {}", m.name, m.unit);
            }
            let json = report.to_json();
            assert!(
                json.starts_with("{\"correct\": true, \"attempted\": "),
                "{json}"
            );
        }
    }
}

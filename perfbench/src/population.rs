//! Host populations and executor passes shared by the workloads.

use crate::stats::SplitMix;
use crate::Layers;
use bce_client::ClientConfig;
use bce_controller::{run_streaming_profiled, standard_population, RunSpec};
use bce_core::{EmulatorConfig, PerfStats, Scenario};
use bce_obs::Profiler;
use std::sync::Arc;

/// `standard_population` seed of the host shapes shared by every run.
const SHAPE_SEED: u64 = 1;

/// `hosts` hosts of `standard_population(hosts, SHAPE_SEED)`, each
/// re-seeded from the workload seed. Host shapes (hardware, projects,
/// apps, availability model) stay fixed and only the random streams
/// change with the seed: resampling the shapes per seed moved the cost of
/// a 128-host study by 14% (interquartile range over 12 seeds, paired with
/// a fixed reference population), re-seeding by 3.5%.
pub fn population(hosts: usize, seed: u64) -> Vec<Arc<Scenario>> {
    let mut rng = SplitMix::new(seed);
    standard_population(hosts, SHAPE_SEED)
        .into_iter()
        .map(|s| {
            let mut s = Arc::unwrap_or_clone(s);
            s.seed = rng.next_u64();
            Arc::new(s)
        })
        .collect()
}

/// The policy x scenario spec matrix in the order `population_study`
/// submits it: all of policy 0's scenarios, then policy 1's.
pub fn specs(
    scenarios: &[Arc<Scenario>],
    policies: &[(String, ClientConfig)],
    emulator: &EmulatorConfig,
) -> Vec<RunSpec> {
    let emulator = Arc::new(emulator.clone());
    policies
        .iter()
        .flat_map(|(label, client)| {
            let emulator = emulator.clone();
            scenarios.iter().map(move |s| {
                RunSpec::new(format!("{label}/{}", s.name), s.clone(), *client)
                    .with_emulator(emulator.clone())
            })
        })
        .collect()
}

/// The executor spans of one serial (one-worker) pass over `specs`:
/// `(exec.emulate, exec.reduce)` in milliseconds.
pub fn serial_pass_ms(specs: &[RunSpec]) -> (f64, f64) {
    let mut prof = Profiler::enabled();
    run_streaming_profiled(specs, 1, &mut prof, |_, _, r| {
        std::hint::black_box(r);
    });
    let report = prof.report();
    let span = |name| report.span(name).map_or(0.0, |s| s.wall_ms);
    (span("exec.emulate"), span("exec.reduce"))
}

/// RR and queue counters of an op.
pub fn set_rr_counters(l: &mut Layers, perf: &PerfStats) {
    l.set("client.rr_queries", perf.rr_queries as f64);
    l.set("client.rr_full", perf.rr_runs as f64);
    l.set("client.rr_frozen", perf.rr_frozen as f64);
    l.set("client.rr_hit_rate", perf.rr_hit_rate());
    l.set("client.peak_jobs", perf.peak_jobs as f64);
}

//! Result digests the benchmark checks every op against.
//!
//! [`result_digest`] covers everything `EmulationResult::bit_fingerprint`
//! hashes except `PerfStats`: an optimisation may legitimately change how
//! many events or RR simulations a run takes, but any change in what the
//! run computed changes the digest.

use bce_controller::{fnv64, Metric, PopulationOutcome};
use bce_core::EmulationResult;
use bce_sim::{Occupancy, OnlineStats};

/// The bytes a digest covers, appended in a fixed order and hashed with
/// `fnv64` (the FNV-1a hash `bit_fingerprint` also uses).
#[derive(Default)]
struct Bytes(Vec<u8>);

impl Bytes {
    fn u64(&mut self, x: u64) {
        self.0.extend_from_slice(&x.to_le_bytes());
    }
    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.0.extend_from_slice(s.as_bytes());
    }
}

/// Digest of one emulation result without its performance counters.
pub fn result_digest(r: &EmulationResult) -> u64 {
    let mut h = Bytes::default();
    h.str(&r.scenario_name);
    let m = &r.merit;
    for x in [
        m.idle_fraction,
        m.wasted_fraction,
        m.share_violation,
        m.monotony,
        m.rpcs_per_job,
        r.available_fraction,
        r.total_flops_used,
        r.duration.secs(),
    ] {
        h.f64(x);
    }
    for p in &r.projects {
        h.u64(p.id.0 as u64);
        h.str(&p.name);
        for x in [p.share_frac, p.used_frac, p.flops_used] {
            h.f64(x);
        }
        for x in [p.jobs_completed, p.jobs_missed_deadline, p.rpcs] {
            h.u64(x);
        }
    }
    for x in [r.jobs_completed, r.jobs_missed_deadline, r.jobs_unfinished] {
        h.u64(x);
    }
    let f = &r.faults;
    for x in
        [f.transient_rpc_failures, f.transfer_failures, f.crashes, f.jobs_errored, f.recoveries]
    {
        h.u64(x);
    }
    h.f64(f.fault_wasted_fraction);
    h.f64(f.mean_recovery_secs);
    if let Some(tl) = &r.timeline {
        for track in tl.tracks() {
            h.u64(track.instance.proc_type.index() as u64);
            h.u64(track.instance.index as u64);
            for seg in track.segments() {
                h.f64(seg.start.secs());
                h.f64(seg.end.secs());
                match seg.occ {
                    Occupancy::Idle => h.u64(1),
                    Occupancy::Unavailable => h.u64(2),
                    Occupancy::Busy { project, job } => {
                        h.u64(3);
                        h.u64(project.0 as u64);
                        h.u64(job.0);
                    }
                }
            }
        }
    }
    for e in r.log.entries() {
        h.f64(e.time.secs());
        h.str(e.component.name());
        h.str(&e.message);
    }
    h.u64(r.log.dropped());
    fnv64(&h.0)
}

/// A population table at full precision: per policy, the run count and
/// each metric's exact accumulator state and p95.
pub struct Table(String);

impl Table {
    pub fn from_outcomes(outcomes: &[PopulationOutcome]) -> Self {
        let mut t = Table(String::new());
        for o in outcomes {
            let rows: Vec<_> = o.per_metric.iter().map(|ms| (&ms.stats, ms.p95)).collect();
            t.policy(&o.label, o.scenarios_run, &rows);
        }
        t
    }

    fn policy(&mut self, label: &str, runs: usize, rows: &[(&OnlineStats, f64)]) {
        use std::fmt::Write as _;
        let _ = writeln!(self.0, "{label} {runs}");
        for (metric, (stats, p95)) in Metric::ALL.iter().zip(rows) {
            let (n, mean, m2, min, max) = stats.parts();
            let _ = writeln!(
                self.0,
                "  {} {n} {:016x} {:016x} {:016x} {:016x} {:016x}",
                metric.name(),
                mean.to_bits(),
                m2.to_bits(),
                min.to_bits(),
                max.to_bits(),
                p95.to_bits()
            );
        }
    }

    pub fn digest(&self) -> u64 {
        fnv64(self.0.as_bytes())
    }
}

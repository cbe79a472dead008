//! `paper_s4`: one 10-day emulation of paper scenario 4 per op, closed
//! loop on one thread, on a reused arena.
//!
//! The paper scenario is a fixed input, so the seed does not change it:
//! every op does identical work and the counters repeat exactly.

use crate::digest::result_digest;
use crate::population::set_rr_counters;
use crate::{closed_loop, stats, Ctx, Layers, OpStat, Timed, Traced, Workload};
use bce_client::ClientConfig;
use bce_core::{Emulator, EmulatorArena, EmulatorConfig, FaultConfig, PerfStats};
use bce_scenarios::ScenarioSource;

const SCENARIO: &str = "scenarios/scenario4.json";

pub struct PaperS4 {
    emulator: Emulator,
    traced: Emulator,
    arena: EmulatorArena,
    reference: u64,
}

impl PaperS4 {
    fn op(&mut self) -> bool {
        let r = self.emulator.run_in(&mut self.arena);
        let ok = result_digest(&r) == self.reference;
        self.arena.reclaim(r);
        ok
    }
}

impl Workload for PaperS4 {
    const OP_STAT: OpStat = OpStat::Fastest;

    fn setup(_ctx: &Ctx) -> Result<Self, String> {
        let loaded = ScenarioSource::parse(SCENARIO).load().map_err(|e| e.to_string())?;
        let cfg = EmulatorConfig {
            faults: loaded.faults.unwrap_or(FaultConfig::OFF),
            ..Default::default()
        };
        let traced_cfg = EmulatorConfig { profile: true, ..cfg.clone() };
        let emulator = Emulator::new(loaded.scenario.clone(), ClientConfig::default(), cfg);
        let traced = Emulator::new(loaded.scenario, ClientConfig::default(), traced_cfg);
        // Reference: a fresh `run`, checked against the reused-arena ops.
        let reference = result_digest(&emulator.run());
        let mut w = PaperS4 { emulator, traced, arena: EmulatorArena::new(), reference };
        if !w.op() {
            return Err("paper_s4 warm-up op differs from its fresh-run reference".into());
        }
        Ok(w)
    }

    fn reference(&self) -> u64 {
        self.reference
    }

    fn timed(&mut self, seconds: f64) -> Timed {
        closed_loop(seconds, 1.0, || self.op())
    }

    fn traced(&mut self, seconds: f64) -> Result<Traced, String> {
        let untraced = self.timed(seconds / 2.0);
        let untraced_ms = Self::OP_STAT.of(&untraced.op_ms);

        let (mut advance, mut rpc, mut resched) = (Vec::new(), Vec::new(), Vec::new());
        let mut perf = PerfStats::default();
        let traced = closed_loop(seconds / 2.0, 1.0, || {
            let r = self.traced.run_in(&mut self.arena);
            let profile = r.profile.as_ref().expect("profiling is switched on");
            let span = |name| profile.span(name).map_or(0.0, |s| s.wall_ms);
            advance.push(span("emu.client_advance"));
            rpc.push(span("emu.rpc_loop"));
            resched.push(span("emu.reschedule"));
            perf = r.perf;
            let ok = result_digest(&r) == self.reference;
            self.arena.reclaim(r);
            ok
        });

        let mut l = Layers::default();
        let events = perf.events_processed as f64;
        l.set("core.events_per_op", events);
        l.set("core.ns_per_event", untraced_ms * 1e6 / events);
        // The emu.* spans are siblings with no child spans, so each one's
        // self time is its whole wall time.
        l.set("core.advance_self_ms", stats::median(&advance));
        l.set("core.rpc_self_ms", stats::median(&rpc));
        set_rr_counters(&mut l, &perf);
        l.set("client.resched_self_ms", stats::median(&resched));
        l.set("trace.overhead_frac", Self::OP_STAT.of(&traced.op_ms) / untraced_ms - 1.0);
        Ok(Traced {
            layers: l,
            attempted: untraced.attempted() + traced.attempted(),
            passed: untraced.passed + traced.passed,
        })
    }

    fn teardown(self) -> Result<(), String> {
        Ok(())
    }
}

//! `campaign_ckpt`: one checkpointed `population_campaign` per op over
//! 50 sampled hosts (re-seeded, see `population::population`) x 2
//! policies x 0.25 days (100 runs), closed loop with one worker so
//! checkpoint time adds directly to op time. Each op runs the first 50 runs, resumes to
//! the end, and deletes its fresh checkpoint directory.

use crate::digest::Table;
use crate::population::{population, serial_pass_ms, specs};
use crate::timing_io::{IoTotals, TimingIo};
use crate::{closed_loop, stats, Ctx, Layers, OpStat, Timed, Traced, Workload};
use bce_client::ClientConfig;
use bce_controller::{
    population_campaign, population_study, standard_policies, CampaignCheckpoint, CampaignOptions,
};
use bce_core::{EmulatorConfig, Scenario};
use bce_statefile::{frame, SharedIo};
use bce_types::SimDuration;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

const HOSTS: usize = 50;
const DAYS: f64 = 0.25;
const CHECKPOINT_EVERY_RUNS: usize = 4;
const FIRST_LEG_RUNS: usize = 50;
/// Repetitions of each codec call timed on the final generation.
const CODEC_REPS: usize = 9;
/// 1-worker passes timed for `exec.emulate_ms` and `exec.reduce_ms`. The
/// fastest is reported, as for `op_ms`, so there are as many as an op
/// needs to meet a quiet moment of the machine.
const SERIAL_PASSES: usize = 15;

pub struct CampaignCkpt {
    scenarios: Vec<Arc<Scenario>>,
    policies: Vec<(String, ClientConfig)>,
    emulator: EmulatorConfig,
    reference: u64,
    tmp: PathBuf,
    ops: u64,
}

impl CampaignCkpt {
    fn total_runs(&self) -> usize {
        self.scenarios.len() * self.policies.len()
    }

    /// The op without its final delete: stop after the first leg, resume
    /// to the end. Returns the checkpoint directory and whether the
    /// outcome matched the reference.
    fn run_legs(&mut self, io: Option<SharedIo>) -> Result<(PathBuf, bool), String> {
        self.ops += 1;
        let dir = self.tmp.join(format!("op-{}", self.ops));
        let first = CampaignOptions {
            checkpoint_path: Some(dir.join("campaign.ckpt")),
            checkpoint_every_runs: CHECKPOINT_EVERY_RUNS,
            stop_after_runs: Some(FIRST_LEG_RUNS),
            io,
            ..Default::default()
        };
        let r1 = population_campaign(&self.scenarios, &self.policies, &self.emulator, 1, &first)
            .map_err(|e| e.to_string())?;
        let rest = CampaignOptions { resume: true, stop_after_runs: None, ..first };
        let r2 = population_campaign(&self.scenarios, &self.policies, &self.emulator, 1, &rest)
            .map_err(|e| e.to_string())?;
        let ok = r1.completed_runs == FIRST_LEG_RUNS
            && r2.resumed_runs == FIRST_LEG_RUNS
            && r2.completed_runs == self.total_runs()
            && r2.errors.is_empty()
            && r1.checkpoint_write_failures + r2.checkpoint_write_failures == 0
            && Table::from_outcomes(&r2.outcomes).digest() == self.reference;
        Ok((dir, ok))
    }

    fn op(&mut self, io: Option<SharedIo>) -> bool {
        match self.run_legs(io) {
            Ok((dir, ok)) => std::fs::remove_dir_all(&dir).is_ok() && ok,
            Err(e) => {
                eprintln!("perfbench: campaign op failed: {e}");
                false
            }
        }
    }

    /// Time encode, frame and decode on the final generation of a
    /// completed op, read back through the store.
    fn codec_ms(&mut self) -> Result<(f64, f64, f64), String> {
        let (dir, ok) = self.run_legs(None)?;
        if !ok {
            return Err("campaign op for the codec timings failed its check".into());
        }
        let opts = CampaignOptions {
            checkpoint_path: Some(dir.join("campaign.ckpt")),
            ..Default::default()
        };
        let store = opts.store().expect("checkpoint path is set");
        let (ckpt, _) = CampaignCheckpoint::read_store(&store).map_err(|e| e.to_string())?;
        let time = |f: &mut dyn FnMut()| {
            let ms: Vec<f64> = (0..CODEC_REPS)
                .map(|_| {
                    let t = Instant::now();
                    f();
                    t.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            stats::median(&ms)
        };
        let xml = ckpt.to_xml_string();
        let encode = time(&mut || {
            std::hint::black_box(ckpt.to_xml_string());
        });
        let framing = time(&mut || {
            std::hint::black_box(frame::encode(xml.as_bytes()));
        });
        let mut decoded = Ok(());
        let decode = time(&mut || {
            if let Err(e) = CampaignCheckpoint::from_xml_str(&xml) {
                decoded = Err(e.to_string());
            }
        });
        decoded?;
        std::fs::remove_dir_all(&dir)
            .map_err(|e| format!("cannot remove {}: {e}", dir.display()))?;
        Ok((encode, framing, decode))
    }
}

impl Workload for CampaignCkpt {
    const OP_STAT: OpStat = OpStat::Fastest;

    fn setup(ctx: &Ctx) -> Result<Self, String> {
        let scenarios = population(HOSTS, ctx.seed);
        let policies = standard_policies();
        let emulator =
            EmulatorConfig { duration: SimDuration::from_days(DAYS), ..Default::default() };
        // Reference: an uncheckpointed study over the same inputs.
        let reference =
            Table::from_outcomes(&population_study(&scenarios, &policies, &emulator, 1)).digest();
        let tmp = ctx.tmp.join("campaign");
        let mut w = CampaignCkpt { scenarios, policies, emulator, reference, tmp, ops: 0 };
        if !w.op(None) {
            return Err("campaign_ckpt warm-up op differs from its uncheckpointed reference".into());
        }
        Ok(w)
    }

    fn reference(&self) -> u64 {
        self.reference
    }

    fn timed(&mut self, seconds: f64) -> Timed {
        let runs = self.total_runs() as f64;
        closed_loop(seconds, runs, || self.op(None))
    }

    fn traced(&mut self, seconds: f64) -> Result<Traced, String> {
        let untraced = self.timed(seconds / 2.0);
        let untraced_ms = Self::OP_STAT.of(&untraced.op_ms);

        let io = Arc::new(TimingIo::default());
        let mut per_op: Vec<IoTotals> = Vec::new();
        let mut io_ok = true;
        let traced = closed_loop(seconds / 2.0, self.total_runs() as f64, || {
            let ok = self.op(Some(io.clone()));
            let totals = io.take();
            io_ok &= per_op
                .first()
                .is_none_or(|first| (first.writes, first.bytes) == (totals.writes, totals.bytes));
            per_op.push(totals);
            ok
        });
        if !io_ok {
            return Err("checkpoint write counts differ between identical ops".into());
        }
        let col =
            |f: fn(&IoTotals) -> f64| stats::median(&per_op.iter().map(f).collect::<Vec<_>>());
        let (encode, framing, decode) = self.codec_ms()?;
        let specs = specs(&self.scenarios, &self.policies, &self.emulator);
        let passes: Vec<(f64, f64)> = (0..SERIAL_PASSES).map(|_| serial_pass_ms(&specs)).collect();
        let emulate_ms = Self::OP_STAT.of(&passes.iter().map(|p| p.0).collect::<Vec<_>>());
        let reduce_ms = Self::OP_STAT.of(&passes.iter().map(|p| p.1).collect::<Vec<_>>());

        let mut l = Layers::default();
        l.set("exec.emulate_ms", emulate_ms);
        l.set("exec.reduce_ms", reduce_ms);
        l.set("exec.overhead_frac", 1.0 - emulate_ms / untraced_ms);
        l.set("ckpt.writes_per_op", col(|t| t.writes as f64));
        l.set("ckpt.bytes_per_op", col(|t| t.bytes as f64));
        l.set("ckpt.write_ms", col(|t| t.write_ms));
        l.set("ckpt.rename_ms", col(|t| t.rename_ms));
        l.set("ckpt.sync_dir_ms", col(|t| t.sync_dir_ms));
        l.set("ckpt.read_ms", col(|t| t.read_ms));
        l.set("ckpt.encode_ms", encode);
        l.set("ckpt.frame_ms", framing);
        l.set("ckpt.decode_ms", decode);
        l.set("trace.overhead_frac", Self::OP_STAT.of(&traced.op_ms) / untraced_ms - 1.0);
        Ok(Traced {
            layers: l,
            attempted: untraced.attempted() + traced.attempted(),
            passed: untraced.passed + traced.passed,
        })
    }

    fn teardown(self) -> Result<(), String> {
        match std::fs::remove_dir_all(&self.tmp) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(format!("cannot remove {}: {e}", self.tmp.display())),
        }
    }
}

//! End-to-end and per-layer benchmark of the BCE workspace.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload in this process and prints, as the last line of
//! standard output, one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`. With `--trace 0` the metrics are the
//! end-to-end set ([`E2E`]); with `--trace 1` they are the per-layer set
//! ([`PER_LAYER`]). README.md explains the workloads and every metric.
//!
//! Optional flags: `--goldens <file>` replaces the committed golden
//! digests (the self-test passes a corrupted copy), and
//! `--print-reference` prints the workload's reference digest at the
//! given seed and exits (how `goldens.txt` is produced).

mod campaign;
mod digest;
mod paper;
mod population;
mod serve;
mod stats;
mod timing_io;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The seed at which reference digests are also checked against
/// `goldens.txt`.
pub const DEFAULT_SEED: u64 = 1;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// End-to-end metrics, in report order, with their units.
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_ms", "ms"),
    ("op_ms_tail", "ms"),
    ("runs_per_s", "runs/s"),
    ("peak_rss_mb", "MB"),
    ("success_frac", "ratio"),
];

/// Per-layer metrics, in report order, with their units. A workload
/// reports 0 for a layer its op never reaches (README.md lists which).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.events_per_op", "count"),
    ("core.ns_per_event", "ns"),
    ("core.advance_self_ms", "ms"),
    ("core.rpc_self_ms", "ms"),
    ("client.rr_queries", "count"),
    ("client.rr_full", "count"),
    ("client.rr_frozen", "count"),
    ("client.rr_hit_rate", "ratio"),
    ("client.resched_self_ms", "ms"),
    ("client.peak_jobs", "count"),
    ("exec.emulate_ms", "ms"),
    ("exec.reduce_ms", "ms"),
    ("exec.overhead_frac", "ratio"),
    ("ckpt.writes_per_op", "count"),
    ("ckpt.bytes_per_op", "bytes"),
    ("ckpt.write_ms", "ms"),
    ("ckpt.rename_ms", "ms"),
    ("ckpt.sync_dir_ms", "ms"),
    ("ckpt.read_ms", "ms"),
    ("ckpt.encode_ms", "ms"),
    ("ckpt.frame_ms", "ms"),
    ("ckpt.decode_ms", "ms"),
    ("serve.metrics_ms_p50", "ms"),
    ("serve.overhead_ms_p50", "ms"),
    ("http.read_request_us", "us"),
    ("serve.shed", "count"),
    ("serve.responses_5xx", "count"),
    ("gen.late_ms_p99", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// What every workload's set-up receives.
pub struct Ctx {
    pub seed: u64,
    /// Golden reference digest for this workload, present only at
    /// [`DEFAULT_SEED`].
    pub golden: Option<u64>,
    /// Per-run scratch directory; removed when the run ends.
    pub tmp: PathBuf,
}

impl Ctx {
    /// `Ok` when the reference digest computed at set-up agrees with the
    /// committed golden (or no golden applies to this seed).
    pub fn golden_ok(&self, reference: u64) -> bool {
        self.golden.is_none_or(|g| g == reference)
    }
}

/// The timed (untraced) phase of a run.
#[derive(Default)]
pub struct Timed {
    /// Wall time of each op, in milliseconds, in completion order.
    pub op_ms: Vec<f64>,
    /// Ops whose output passed its check.
    pub passed: u64,
    /// Emulation runs completed by passing ops.
    pub runs: f64,
    /// Wall time of the whole phase.
    pub wall_s: f64,
}

impl Timed {
    pub fn attempted(&self) -> u64 {
        self.op_ms.len() as u64
    }
}

/// A traced run's result: per-layer metrics plus the ops it checked.
pub struct Traced {
    pub layers: Layers,
    pub attempted: u64,
    pub passed: u64,
}

/// Per-layer metric values, every name of [`PER_LAYER`] present.
pub struct Layers(BTreeMap<&'static str, f64>);

impl Default for Layers {
    fn default() -> Self {
        Layers(PER_LAYER.iter().map(|(name, _)| (*name, 0.0)).collect())
    }
}

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        let slot = self.0.get_mut(name).unwrap_or_else(|| panic!("unknown layer metric {name}"));
        *slot = value;
    }
}

/// How `op_ms` summarises a run's op times (README.md, "End-to-end
/// metrics").
#[derive(Clone, Copy)]
pub enum OpStat {
    /// The fastest op. An op that repeats identical deterministic work on
    /// one thread varies only through interference from the machine,
    /// which only adds time.
    Fastest,
    /// The median op, where an op's time includes waiting that a user
    /// sees, such as a request queued behind others.
    Median,
}

impl OpStat {
    pub fn of(self, op_ms: &[f64]) -> f64 {
        match self {
            OpStat::Fastest => stats::min(op_ms),
            OpStat::Median => stats::median(op_ms),
        }
    }
}

/// One workload: set up, then a timed phase or a traced phase, then a
/// checked tear-down.
pub trait Workload: Sized {
    const OP_STAT: OpStat;
    fn setup(ctx: &Ctx) -> Result<Self, String>;
    /// The workload's reference digest (compared with the golden).
    fn reference(&self) -> u64;
    fn timed(&mut self, seconds: f64) -> Timed;
    fn traced(&mut self, seconds: f64) -> Result<Traced, String>;
    /// Stop everything the set-up started; an error fails the run.
    fn teardown(self) -> Result<(), String>;
}

/// Run `op` back to back until `seconds` have passed (at least once);
/// `op` returns whether its output passed the check.
pub fn closed_loop(seconds: f64, runs_per_op: f64, mut op: impl FnMut() -> bool) -> Timed {
    let mut t = Timed::default();
    let start = Instant::now();
    loop {
        let op_start = Instant::now();
        let ok = op();
        t.op_ms.push(op_start.elapsed().as_secs_f64() * 1e3);
        if ok {
            t.passed += 1;
            t.runs += runs_per_op;
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    t.wall_s = start.elapsed().as_secs_f64();
    t
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    goldens: PathBuf,
    print_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        goldens: PathBuf::from("perfbench/goldens.txt"),
        print_reference: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be a positive number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                }
            }
            "--goldens" => args.goldens = PathBuf::from(value()?),
            "--print-reference" => args.print_reference = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// `goldens.txt`: one `<workload> <16 hex digits>` line per workload. A
/// missing line is an error, so a renamed workload cannot silently turn
/// the golden check off.
fn read_golden(path: &Path, workload: &str) -> Result<u64, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    for line in text.lines().filter(|l| !l.trim().is_empty() && !l.starts_with('#')) {
        let (name, hex) =
            line.split_once(' ').ok_or_else(|| format!("{}: bad line {line:?}", path.display()))?;
        if name == workload {
            let g = u64::from_str_radix(hex.trim(), 16)
                .map_err(|e| format!("{}: bad digest for {name}: {e}", path.display()))?;
            return Ok(g);
        }
    }
    Err(format!("{} has no golden for {workload}", path.display()))
}

/// The percentile `op_ms_tail` reports for `n` samples: the highest that
/// leaves at least ten samples beyond it, capped at the 99th (and never
/// below the median). A tail read from fewer samples than that moves with
/// the machine, not with the program.
fn tail_quantile(n: usize) -> f64 {
    (1.0 - 10.0 / n as f64).clamp(0.5, 0.99)
}

/// Peak resident set size of this process (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn run<W: Workload>(args: &Args, main_start: Instant) -> Result<bool, String> {
    let golden = if args.seed == DEFAULT_SEED && !args.print_reference {
        Some(read_golden(&args.goldens, &args.workload)?)
    } else {
        None
    };
    let tmp = PathBuf::from(".bench_tmp").join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&tmp).map_err(|e| format!("cannot create {}: {e}", tmp.display()))?;
    let ctx = Ctx { seed: args.seed, golden, tmp: tmp.clone() };
    let result = measure::<W>(args, &ctx, main_start);
    let _ = std::fs::remove_dir_all(&tmp);
    // Leave no empty parent behind either; fails harmlessly while a
    // concurrent run still owns a sibling directory.
    let _ = std::fs::remove_dir(".bench_tmp");
    result
}

fn measure<W: Workload>(args: &Args, ctx: &Ctx, main_start: Instant) -> Result<bool, String> {
    if args.print_reference {
        let w = W::setup(ctx)?;
        println!("{} {:016x}", args.workload, w.reference());
        w.teardown()?;
        return Ok(true);
    }
    let golden_ok;
    let (attempted, failed, metrics): (u64, u64, Vec<(&str, &str, f64)>) = if args.trace {
        let mut w = W::setup(ctx)?;
        golden_ok = ctx.golden_ok(w.reference());
        let traced = w.traced(args.seconds)?;
        w.teardown()?;
        let passed = if golden_ok { traced.passed } else { 0 };
        let metrics =
            PER_LAYER.iter().map(|&(name, unit)| (name, unit, traced.layers.0[name])).collect();
        (traced.attempted, traced.attempted - passed, metrics)
    } else {
        let mut setups = Vec::with_capacity(SETUP_REPEATS);
        let mut w = None;
        for k in 0..SETUP_REPEATS {
            if let Some(prev) = w.take() {
                W::teardown(prev)?;
            }
            let start = if k == 0 { main_start } else { Instant::now() };
            w = Some(W::setup(ctx)?);
            setups.push(start.elapsed().as_secs_f64());
        }
        let mut w = w.expect("at least one set-up");
        golden_ok = ctx.golden_ok(w.reference());
        let t = w.timed(args.seconds);
        w.teardown()?;
        let passed = if golden_ok { t.passed } else { 0 };
        let runs = if golden_ok { t.runs } else { 0.0 };
        let n = t.attempted();
        let tail = tail_quantile(t.op_ms.len());
        let op_ms = W::OP_STAT.of(&t.op_ms);
        let wall_runs_per_s = runs / t.wall_s;
        // A run's throughput at its `op_ms`: with the fastest op, runs per
        // attempted op over that op's time; with the median op, the rate
        // over the whole phase.
        let (stat, runs_per_s) = match W::OP_STAT {
            OpStat::Fastest => ("fastest op", runs / n as f64 * 1e3 / op_ms),
            OpStat::Median => ("median op", wall_runs_per_s),
        };
        println!(
            "# {}: seed {} | {n} ops in {:.2} s | op_ms ({stat}) and op_ms_tail (p{:.1}) over {n} \
             samples | median op {:.4} ms, {:.4} runs/s over the phase | set-up median of \
             {SETUP_REPEATS}",
            args.workload,
            args.seed,
            t.wall_s,
            tail * 100.0,
            stats::median(&t.op_ms),
            wall_runs_per_s,
        );
        let values = [
            stats::median(&setups),
            op_ms,
            stats::quantile(&t.op_ms, tail),
            runs_per_s,
            peak_rss_mb(),
            passed as f64 / n as f64,
        ];
        let metrics = E2E.iter().zip(values).map(|(&(name, unit), v)| (name, unit, v)).collect();
        (n, n - passed, metrics)
    };
    if !golden_ok {
        eprintln!(
            "perfbench: {} reference digest differs from the golden in {}",
            args.workload,
            args.goldens.display()
        );
    }
    let correct = failed == 0 && golden_ok;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(correct)
}

fn main() {
    let main_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "paper_s4" => run::<paper::PaperS4>(&args, main_start),
        "campaign_ckpt" => run::<campaign::CampaignCkpt>(&args, main_start),
        "serve_mixed" => run::<serve::ServeMixed>(&args, main_start),
        other => {
            Err(format!("unknown workload {other:?} (have paper_s4, campaign_ckpt, serve_mixed)"))
        }
    };
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

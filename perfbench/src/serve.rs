//! `serve_mixed`: an open loop against an in-process `bce_serve::Server`.
//!
//! One Poisson arrival stream at [`RATE_PER_S`], with at most
//! [`CLIENTS`] connections in flight and one request per connection:
//! 70% `POST /run?scenario=scenario2&days=0.25&seed=s` (`s` from a pool
//! of 16 seeds derived from the workload seed), 15% `POST /run?days=0.25`
//! carrying `scenarios/unreliable_hosts.json`, 15% `GET /metrics`. Each
//! request is timed from its scheduled send time, so a stall also counts
//! against the requests queued behind it.

use crate::stats::{self, SplitMix};
use crate::{Ctx, Layers, OpStat, Timed, Traced, Workload, DEFAULT_SEED};
use bce_client::ClientConfig;
use bce_controller::fnv64;
use bce_core::{Emulator, EmulatorConfig, FaultConfig, Scenario};
use bce_scenarios::{builtin, load_scenario_text};
use bce_serve::{read_request, ServeConfig, ServeSummary, Server, ServerHandle};
use bce_types::SimDuration;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Mean arrival rate: about half the capacity measured with two
/// connections in flight (README.md gives the measurement).
const RATE_PER_S: f64 = 55.0;
const CLIENTS: usize = 2;
const DAEMON_WORKERS: usize = 2;
const RUN_DAYS: f64 = 0.25;
const SEED_POOL: usize = 16;
const BODY_SCENARIO: &str = "scenarios/unreliable_hosts.json";
const SHARE_SCENARIO2: f64 = 0.70;
const SHARE_BODY: f64 = 0.15;
const SHARE_METRICS: f64 = 1.0 - SHARE_SCENARIO2 - SHARE_BODY;
const IO_TIMEOUT: Duration = Duration::from_secs(30);
/// In-process emulations timed per `/run` kind at set-up.
const EMU_REPS: usize = 3;
/// Parses timed per request kind for `http.read_request_us`.
const PARSE_REPS: usize = 501;

enum Expect {
    /// A `/run` response whose `# fingerprint:` line must equal this.
    Fingerprint(u64),
    /// A `/metrics` response that must be 200 and parse.
    Metrics,
}

struct Kind {
    bytes: Vec<u8>,
    expect: Expect,
    /// In-process wall time of the same emulation, measured at set-up.
    emu_ms: f64,
}

pub struct ServeMixed {
    /// [0, SEED_POOL): scenario2 runs; then the body run; then /metrics.
    kinds: Vec<Kind>,
    seed: u64,
    addr: SocketAddr,
    handle: ServerHandle,
    server: JoinHandle<ServeSummary>,
    dir: PathBuf,
    reference: u64,
}

const BODY_KIND: usize = SEED_POOL;
const METRICS_KIND: usize = SEED_POOL + 1;

struct Arrival {
    due_s: f64,
    kind: usize,
}

struct Outcome {
    kind: usize,
    latency_ms: f64,
    late_ms: f64,
    ok: bool,
}

/// The arrival stream of one `seconds`-long phase (at least one arrival).
/// The arrival times are one fixed Poisson stream, drawn at
/// [`DEFAULT_SEED`]; the workload seed draws each arrival's kind. The
/// daemon serves a request in about one acceptor poll, so the p99 is set
/// by the few bursts in the times: with times drawn from the workload
/// seed, it read 47 ms on every run at one seed and 69-114 ms at another
/// (README.md).
fn schedule(seed: u64, seconds: f64) -> Vec<Arrival> {
    let mut times = SplitMix::new(DEFAULT_SEED ^ 0x5e7e_a771_0a5d_0001);
    let mut kinds = SplitMix::new(seed ^ 0x5e7e_a771_0a5d_0002);
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - times.unit()).ln() / RATE_PER_S;
        if t >= seconds && !out.is_empty() {
            return out;
        }
        let u = kinds.unit();
        let kind = if u < SHARE_SCENARIO2 {
            (kinds.next_u64() % SEED_POOL as u64) as usize
        } else if u < SHARE_SCENARIO2 + SHARE_BODY {
            BODY_KIND
        } else {
            METRICS_KIND
        };
        out.push(Arrival { due_s: t, kind });
    }
}

/// Send one request on a fresh connection; `(status, body)`.
fn exchange(addr: SocketAddr, bytes: &[u8]) -> std::io::Result<(u16, String)> {
    let mut s = TcpStream::connect(addr)?;
    s.set_read_timeout(Some(IO_TIMEOUT))?;
    s.set_write_timeout(Some(IO_TIMEOUT))?;
    s.write_all(bytes)?;
    let mut raw = Vec::new();
    s.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let (head, body) = text.split_once("\r\n\r\n").unwrap_or((&text, ""));
    let status = head.split(' ').nth(1).and_then(|c| c.parse().ok()).unwrap_or(0);
    Ok((status, body.to_string()))
}

/// `/metrics` text: every line is `name  value`, the value a number or
/// a histogram's `n=.. mean=..`.
fn parse_metrics(body: &str) -> Option<Vec<(String, f64)>> {
    let mut out = Vec::new();
    for line in body.lines().filter(|l| !l.trim().is_empty()) {
        let (name, value) = line.split_once(' ')?;
        let value = value.trim();
        if let Some(rest) = value.strip_prefix("n=") {
            rest.split(' ').next()?.parse::<u64>().ok()?;
            continue;
        }
        out.push((name.to_string(), value.parse().ok()?));
    }
    (!out.is_empty()).then_some(out)
}

fn run_request(query: &str, body: &str) -> Vec<u8> {
    format!(
        "POST /run?{query} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The daemon's `/run` emulation, reproduced in process through the
/// public API: `(fingerprint, median wall ms)`.
fn in_process(scenario: Scenario, faults: Option<FaultConfig>) -> Result<(u64, f64), String> {
    scenario.validate().map_err(|e| e.to_string())?;
    let cfg = EmulatorConfig {
        duration: SimDuration::from_days(RUN_DAYS),
        trace_capacity: ServeConfig::default().trace_capacity,
        faults: faults.unwrap_or(FaultConfig::OFF),
        ..Default::default()
    };
    let emu = Emulator::new(scenario, ClientConfig::default(), cfg);
    let mut fingerprint = None;
    let mut ms = Vec::with_capacity(EMU_REPS);
    for _ in 0..EMU_REPS {
        let t = Instant::now();
        let r = emu.run();
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        fingerprint = Some(r.bit_fingerprint());
    }
    Ok((fingerprint.expect("EMU_REPS > 0"), stats::median(&ms)))
}

impl ServeMixed {
    fn request(&self, kind: usize) -> bool {
        let k = &self.kinds[kind];
        let Ok((status, body)) = exchange(self.addr, &k.bytes) else {
            return false;
        };
        status == 200
            && match k.expect {
                Expect::Fingerprint(want) => {
                    body.lines()
                        .find_map(|l| l.strip_prefix("# fingerprint: "))
                        .and_then(|hex| u64::from_str_radix(hex.trim(), 16).ok())
                        == Some(want)
                }
                Expect::Metrics => parse_metrics(&body).is_some(),
            }
    }

    /// Play `arrivals` with [`CLIENTS`] connections; outcomes and the
    /// phase's wall time.
    fn open_loop(&self, arrivals: &[Arrival]) -> (Vec<Outcome>, f64) {
        let next = AtomicUsize::new(0);
        let start = Instant::now();
        let mut outcomes: Vec<Outcome> = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    scope.spawn(|| {
                        let mut mine = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(a) = arrivals.get(i) else { return mine };
                            let due = start + Duration::from_secs_f64(a.due_s);
                            let ready = Instant::now();
                            if due > ready {
                                std::thread::sleep(due - ready);
                            }
                            // Generator lateness: how long after the
                            // later of "due" and "client free" it sent.
                            let late = Instant::now().duration_since(due.max(ready));
                            let ok = self.request(a.kind);
                            mine.push(Outcome {
                                kind: a.kind,
                                latency_ms: due.elapsed().as_secs_f64() * 1e3,
                                late_ms: late.as_secs_f64() * 1e3,
                                ok,
                            });
                        }
                    })
                })
                .collect();
            clients
                .into_iter()
                .flat_map(|c| c.join().expect("load client thread panicked"))
                .collect()
        });
        let wall = start.elapsed().as_secs_f64();
        outcomes.sort_by(|a, b| a.latency_ms.total_cmp(&b.latency_ms));
        (outcomes, wall)
    }

    fn metrics(&self) -> Result<Vec<(String, f64)>, String> {
        let (status, body) = exchange(self.addr, &self.kinds[METRICS_KIND].bytes)
            .map_err(|e| format!("GET /metrics: {e}"))?;
        if status != 200 {
            return Err(format!("GET /metrics returned {status}"));
        }
        parse_metrics(&body).ok_or_else(|| "unparsable /metrics body".to_string())
    }
}

impl Workload for ServeMixed {
    const OP_STAT: OpStat = OpStat::Median;

    fn setup(ctx: &Ctx) -> Result<Self, String> {
        let mut rng = SplitMix::new(ctx.seed);
        let mut kinds = Vec::with_capacity(SEED_POOL + 2);
        for _ in 0..SEED_POOL {
            let seed = rng.next_u64();
            let mut scenario = builtin("scenario2").ok_or("no builtin scenario2")?;
            scenario.seed = seed;
            let (fingerprint, emu_ms) = in_process(scenario, None)?;
            kinds.push(Kind {
                bytes: run_request(&format!("scenario=scenario2&days={RUN_DAYS}&seed={seed}"), ""),
                expect: Expect::Fingerprint(fingerprint),
                emu_ms,
            });
        }
        let body = std::fs::read_to_string(BODY_SCENARIO)
            .map_err(|e| format!("cannot read {BODY_SCENARIO}: {e}"))?;
        let loaded =
            load_scenario_text(&body, Path::new("posted-scenario")).map_err(|e| e.to_string())?;
        let (fingerprint, emu_ms) = in_process(loaded.scenario, loaded.faults)?;
        kinds.push(Kind {
            bytes: run_request(&format!("days={RUN_DAYS}"), &body),
            expect: Expect::Fingerprint(fingerprint),
            emu_ms,
        });
        kinds.push(Kind {
            bytes: b"GET /metrics HTTP/1.1\r\nHost: bench\r\n\r\n".to_vec(),
            expect: Expect::Metrics,
            emu_ms: 0.0,
        });
        let mut fps = Vec::new();
        for k in &kinds {
            if let Expect::Fingerprint(f) = k.expect {
                fps.extend_from_slice(&f.to_le_bytes());
            }
        }
        let reference = fnv64(&fps);

        let dir = ctx.tmp.join("serve-checkpoints");
        let cfg = ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: DAEMON_WORKERS,
            checkpoint_dir: dir.clone(),
            ..Default::default()
        };
        let server = Server::bind(cfg).map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let handle = server.handle();
        let server = std::thread::spawn(move || server.run());
        let w = ServeMixed { kinds, seed: ctx.seed, addr, handle, server, dir, reference };

        let ready = b"GET /readyz HTTP/1.1\r\nHost: bench\r\n\r\n";
        let deadline = Instant::now() + Duration::from_secs(10);
        while !matches!(exchange(addr, ready), Ok((200, _))) {
            if Instant::now() > deadline {
                w.teardown()?;
                return Err("daemon never became ready".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        // Warm-up: one request of each kind of the mix.
        for kind in [0, BODY_KIND, METRICS_KIND] {
            if !w.request(kind) {
                w.teardown()?;
                return Err(format!("serve_mixed warm-up request kind {kind} failed its check"));
            }
        }
        Ok(w)
    }

    fn reference(&self) -> u64 {
        self.reference
    }

    fn timed(&mut self, seconds: f64) -> Timed {
        let (outcomes, wall_s) = self.open_loop(&schedule(self.seed, seconds));
        let passed = outcomes.iter().filter(|o| o.ok).count() as u64;
        let runs = outcomes.iter().filter(|o| o.ok && o.kind != METRICS_KIND).count();
        Timed {
            op_ms: outcomes.iter().map(|o| o.latency_ms).collect(),
            passed,
            runs: runs as f64,
            wall_s,
        }
    }

    fn traced(&mut self, seconds: f64) -> Result<Traced, String> {
        let (outcomes, _) = self.open_loop(&schedule(self.seed, seconds));
        let metrics_ms: Vec<f64> =
            outcomes.iter().filter(|o| o.kind == METRICS_KIND).map(|o| o.latency_ms).collect();
        let overhead_ms: Vec<f64> = outcomes
            .iter()
            .filter(|o| o.kind != METRICS_KIND)
            .map(|o| o.latency_ms - self.kinds[o.kind].emu_ms)
            .collect();
        let late_ms: Vec<f64> = outcomes.iter().map(|o| o.late_ms).collect();
        let counters = self.metrics()?;
        let counter =
            |name: &str| counters.iter().find(|(k, _)| k == name).map_or(0.0, |(_, v)| *v);

        // Parse cost per request, weighted by the mix.
        let parse_us = |bytes: &[u8]| -> Result<f64, String> {
            let mut us = Vec::with_capacity(PARSE_REPS);
            for _ in 0..PARSE_REPS {
                let t = Instant::now();
                let req = read_request(&mut &bytes[..], ServeConfig::default().max_body_bytes)
                    .map_err(|e| format!("recorded request does not parse: {e}"))?;
                us.push(t.elapsed().as_secs_f64() * 1e6);
                std::hint::black_box(req);
            }
            Ok(stats::median(&us))
        };
        let read_request_us = SHARE_SCENARIO2 * parse_us(&self.kinds[0].bytes)?
            + SHARE_BODY * parse_us(&self.kinds[BODY_KIND].bytes)?
            + SHARE_METRICS * parse_us(&self.kinds[METRICS_KIND].bytes)?;

        let mut l = Layers::default();
        l.set("serve.metrics_ms_p50", stats::median(&metrics_ms));
        l.set("serve.overhead_ms_p50", stats::median(&overhead_ms));
        l.set("http.read_request_us", read_request_us);
        l.set("serve.shed", counter("serve.shed_queue_full") + counter("serve.shed_draining"));
        l.set("serve.responses_5xx", counter("serve.responses_5xx"));
        l.set("gen.late_ms_p99", stats::quantile(&late_ms, 0.99));
        Ok(Traced {
            layers: l,
            attempted: outcomes.len() as u64,
            passed: outcomes.iter().filter(|o| o.ok).count() as u64,
        })
    }

    /// Drain the daemon, require a clean summary, remove its directory.
    fn teardown(self) -> Result<(), String> {
        self.handle.drain();
        let summary = self.server.join().map_err(|_| "daemon thread panicked".to_string())?;
        if self.dir.exists() {
            std::fs::remove_dir_all(&self.dir)
                .map_err(|e| format!("cannot remove {}: {e}", self.dir.display()))?;
        }
        if summary.panics_quarantined != 0 || summary.workers_abandoned != 0 {
            return Err(format!("daemon did not drain cleanly: {summary}"));
        }
        Ok(())
    }
}

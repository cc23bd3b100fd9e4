//! napmon's benchmark: one workload per run, served through the wire
//! server on loopback to a load generator in the same process.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload drive_indist --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with no
//! tracing; with `--trace 1` it replays the workload down the layer ladder
//! and reports per-layer metrics instead. Either way the last line of
//! standard output is one JSON object (`correct`, `attempted`, `failed`,
//! `metrics`); the lines before it print every metric by name with its
//! unit. `perfbench/DESIGN.md` records the workloads and metrics.

mod deploy;
mod inputs;
mod ladder;
mod load;
mod rollout;
#[cfg(test)]
mod selftest;
mod stats;

use deploy::{set_up, BenchResult, Deployer, Versions, TENANT, WRITER};
use inputs::{Inputs, Workload};
use load::{closed_loop, open_loop, Conn, Ledger, Target};
use napmon_wire::{TenantRoute, WireClient};
use stats::{cores, median, peak_rss_mb, quantile};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Timed set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Length of one closed-loop slice and one open-loop slice; a round is
/// one of each, and rounds fill four fifths of `--seconds`.
const CLOSED_SECS: f64 = 0.5;
const OPEN_SECS: f64 = 1.0;
/// Directory (under the working directory) for run scratch and traces.
const OUT_DIR: &str = ".bench_out";

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// A finished run: the correctness gate, the failure ledger, the metrics.
pub struct Outcome {
    pub ledger: Ledger,
    pub lemma_warnings: u64,
    /// Share of version 1's reference verdicts over the frame pool that
    /// warn; fixed by the seed.
    pub warn_rate: f64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The correctness gate: the names of every check that failed.
    fn violations(&self) -> Vec<String> {
        let mut bad = Vec::new();
        if self.ledger.mismatches > 0 {
            bad.push(format!("verdict_mismatches = {}", self.ledger.mismatches));
        }
        if self.lemma_warnings > 0 {
            bad.push(format!("lemma1_warns = {}", self.lemma_warnings));
        }
        for m in &self.metrics {
            if !m.value.is_finite() {
                bad.push(format!("{} is not finite", m.name));
            }
        }
        bad
    }

    fn json(&self, correct: bool) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() {
                    format!("{}", m.value)
                } else {
                    "null".into()
                };
                format!(
                    r#""{}": {{"value": {value}, "unit": "{}"}}"#,
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.ledger.attempted.max(1),
            self.ledger.failed,
            metrics.join(", ")
        )
    }
}

/// Prints one `name = value unit` report line.
pub fn report(name: &str, value: f64, unit: &str) {
    println!("{name:<28} {value:>14.3} {unit}");
}

/// Share of warnings among reference verdicts.
pub fn warn_rate(refs: &[Vec<napmon_core::Verdict>]) -> f64 {
    let verdicts: usize = refs.iter().map(Vec::len).sum();
    let warns = refs.iter().flatten().filter(|v| v.warning).count();
    warns as f64 / verdicts as f64
}

/// The run's scratch directory, removed when the run ends.
struct Work(PathBuf);

impl Work {
    fn create(args: &Args) -> std::io::Result<Self> {
        static RUNS: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::current_dir()?.join(OUT_DIR).join(format!(
            "run-{}-{}-{}-{}",
            args.workload.name(),
            args.seed,
            std::process::id(),
            RUNS.fetch_add(1, Ordering::SeqCst)
        ));
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }
}

impl Drop for Work {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Connections (one thread each) the load generator may use for queries:
/// every core, less one when a second stream (absorb writes or rollouts)
/// runs beside the queries. The generator never uses more threads or
/// connections than the host has cores.
fn query_conns(workload: Workload) -> BenchResult<usize> {
    let side = usize::from(workload != Workload::DriveIndist);
    let conns = cores().saturating_sub(side).max(1);
    if conns + side > cores() {
        return Err(format!(
            "{} needs at least {} cores, the host has {}",
            workload.name(),
            conns + side,
            cores()
        )
        .into());
    }
    Ok(conns)
}

/// What the redeploy cycles of a run measured.
#[derive(Default)]
struct Redeploys {
    /// `rollout_s` samples.
    secs: Vec<f64>,
    lemma_warnings: u64,
    ledger: Ledger,
}

/// One redeploy cycle to `version`. A failed cycle is reported and
/// counted, and the run goes on.
fn redeploy(
    dep: &mut Deployer,
    admin: &mut WireClient,
    inputs: &Inputs,
    versions: &Versions,
    version: u32,
    done: &mut Redeploys,
) {
    match rollout::cycle(dep, admin, inputs, versions, version, &mut done.ledger) {
        Ok(cycle) => {
            done.secs.push(cycle.secs);
            done.lemma_warnings += cycle.lemma_warnings;
        }
        Err(e) => eprintln!("perfbench: rollout to v{version} failed: {e}"),
    }
}

/// A stream that runs beside the queries until the flag is raised.
type Background<'a> = dyn Fn(&AtomicBool) -> Ledger + Sync + 'a;

/// Runs `background` on its own thread while `traffic` runs on this one,
/// then stops and joins it.
fn beside<T>(
    background: Option<&Background<'_>>,
    traffic: impl FnOnce() -> T,
) -> (T, Option<Ledger>) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let handle = background.map(|bg| s.spawn(|| bg(&stop)));
        let out = traffic();
        stop.store(true, Ordering::SeqCst);
        (out, handle.map(|h| h.join().expect("background stream")))
    })
}

fn run(args: &Args, work: &Path) -> BenchResult<Outcome> {
    let workload = args.workload;
    let design = workload.design();
    let inputs = Inputs::generate(workload, args.seed);
    let mut dep = Deployer::new(workload, work);
    if args.trace {
        return ladder::run(&mut dep, &inputs, args, work);
    }
    let conns = query_conns(workload)?;
    println!(
        "workload {} seed {} on {} cores: {} query connection(s){}",
        workload.name(),
        args.seed,
        cores(),
        conns,
        match workload {
            Workload::DriveIndist => "",
            Workload::OodTolerant => " + 1 absorb connection",
            Workload::Rollout => " + 1 admin connection",
        }
    );

    // Set-up, repeated after one untimed warm-up (the first build of a
    // process pays for page faults the later ones do not); the last server
    // stays up for the measured phases.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for k in 0..=SETUPS {
        let last = k == SETUPS;
        let up = set_up(&mut dep, &inputs, last)?;
        if k > 0 {
            setups.push(up.secs);
        }
        if last {
            kept = Some(up);
        } else {
            up.server.shutdown();
        }
    }
    println!("set-ups (s): {setups:.4?}");
    let up = kept.expect("at least one set-up");
    let server = up.server;
    let refs = up.refs.expect("references of the kept set-up");
    let warn_rate = warn_rate(&refs);
    let versions = Versions::first(refs);
    let addr = server.local_addr();
    let registry = std::sync::Arc::clone(server.registry().expect("registry backend"));
    let mut ledger = Ledger::default();
    let degraded_before = WireClient::connect(addr)?.stats()?.degraded;
    let mut lemma_warnings = load::lemma_warnings(
        &mut Conn::new(addr, TENANT, 0),
        &inputs.lemma[0],
        &mut ledger,
    );

    if workload == Workload::OodTolerant {
        let monitor = dep.build(&inputs.writer_train)?;
        let json = dep.artifact_json(monitor, inputs.writer_train.len())?;
        let mut admin = WireClient::connect(addr)?;
        admin.set_route(Some(TenantRoute::pinned(WRITER, 1)));
        admin.mount_artifact(false, &json)?;
    }
    let target = Target {
        frames: &inputs.frames,
        versions: &versions,
        depth: None,
    };

    // `ood_tolerant` streams absorb writes beside all its traffic.
    let writes = |stop: &AtomicBool| {
        load::absorb_stream(addr, WRITER, &inputs.writes, design.write_fps, stop)
    };
    let writer: Option<&Background> = (workload == Workload::OodTolerant).then_some(&writes);

    // Rounds of one closed-loop slice and one open-loop slice at the
    // nominal rate, until four fifths of the run are spent, so every
    // figure samples the whole run. On `rollout` each open-loop slice
    // lasts exactly one redeploy cycle, which runs beside it.
    let mut admin = WireClient::connect(addr)?;
    let mut redeploys = Redeploys::default();
    let mut version = 2u32;
    let mut conns = Conn::spread(addr, TENANT, conns, inputs.frames.len());
    let (mut rates, mut p50, mut p90, mut p99, mut lags) = (vec![], vec![], vec![], vec![], vec![]);
    let (mut samples, mut nominal_failed) = (0, 0);
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds * 0.8);
    let (_, writes_done) = beside(writer, || {
        while Instant::now() < deadline {
            let (rate, closed) = closed_loop(target, &mut conns, CLOSED_SECS);
            rates.push(rate);
            ledger.add(closed);
            // Versions run out only on runs far longer than `run_seconds`.
            let open = if workload == Workload::Rollout && version as usize <= inputs.versions.len()
            {
                let done = AtomicBool::new(false);
                let open = std::thread::scope(|s| {
                    s.spawn(|| {
                        redeploy(
                            &mut dep,
                            &mut admin,
                            &inputs,
                            &versions,
                            version,
                            &mut redeploys,
                        );
                        done.store(true, Ordering::SeqCst);
                    });
                    open_loop(
                        target,
                        &mut conns,
                        design.nominal_fps,
                        f64::INFINITY,
                        Some(&done),
                    )
                });
                registry.reap_retired();
                version += 1;
                open
            } else {
                open_loop(target, &mut conns, design.nominal_fps, OPEN_SECS, None)
            };
            p50.push(open.p50_us);
            p90.push(open.p90_us);
            p99.push(open.p99_us);
            lags.extend(open.lag_us);
            samples += open.samples;
            nominal_failed += open.ledger.failed;
            ledger.add(open.ledger);
        }
    });
    if let Some(writes) = writes_done {
        ledger.add(writes);
    }
    println!("closed-loop slices (verdicts/s): {rates:.0?}");
    println!("open-loop slices p50 (us): {p50:.0?}");
    println!("open-loop slices p99 (us): {p99:.0?}");

    // Rate ladder: the highest rate up to which every rung meets the
    // latency limit without a growing backlog.
    let rung_secs = args.seconds * 0.2 / design.ladder_fps.len() as f64;
    let mut slo_rate = 0.0;
    let mut meeting = true;
    for &rate in design.ladder_fps {
        let rung = open_loop(target, &mut conns, rate, rung_secs, None);
        ledger.add(rung.ledger);
        meeting &= rung.p99_us <= design.limit_us && rung.final_behind_us <= design.limit_us;
        println!(
            "ladder {rate:>8.0} frames/s: p99 {:>10.1} us, behind {:>10.1} us{}",
            rung.p99_us,
            rung.final_behind_us,
            if meeting { "" } else { "  (misses the limit)" }
        );
        if meeting {
            slo_rate = rate;
        }
    }

    // The other workloads redeploy after their traffic.
    if workload != Workload::Rollout {
        for v in 2..=design.rollouts as u32 + 1 {
            redeploy(&mut dep, &mut admin, &inputs, &versions, v, &mut redeploys);
            registry.reap_retired();
        }
    }
    let cycle_secs = redeploys.secs;
    lemma_warnings += redeploys.lemma_warnings;
    ledger.add(redeploys.ledger);
    println!("redeploys (s): {cycle_secs:.4?}");
    let degraded = WireClient::connect(addr)?.stats()?.degraded;
    server.shutdown_registry();
    let rss = peak_rss_mb();

    println!("-- {} (cores {}) --", workload.name(), cores());
    let metrics = vec![
        Metric::new("setup_s", median(&setups), "s"),
        Metric::new("throughput_vps", median(&rates), "verdicts/s"),
        Metric::new("frame_p50_us", median(&p50), "us"),
        Metric::new("rollout_s", median(&cycle_secs), "s"),
    ];
    for m in &metrics {
        report(m.name, m.value, m.unit);
    }
    report("frame_p90_us", median(&p90), "us");
    report("frame_p99_us", median(&p99), "us");
    report("frame_samples", samples as f64, "count");
    report("nominal_rate_fps", design.nominal_fps, "frames/s");
    report("nominal_failed", nominal_failed as f64, "count");
    report("slo_rate_fps", slo_rate, "frames/s");
    report("latency_limit_us", design.limit_us, "us");
    report("rollout_cycles", cycle_secs.len() as f64, "count");
    report(
        "failed_ratio",
        ledger.failed as f64 / ledger.attempted.max(1) as f64,
        "ratio",
    );
    report("attempted", ledger.attempted as f64, "count");
    report("verdict_mismatches", ledger.mismatches as f64, "count");
    report("lemma1_warns", lemma_warnings as f64, "count");
    report("warn_rate", warn_rate, "ratio");
    report("peak_rss_mb", rss, "MB");
    report("bench.sched_lag_p99_us", quantile(&lags, 0.99), "us");
    report(
        "wire.busy",
        (degraded.busy_total() - degraded_before.busy_total()) as f64,
        "count",
    );
    report(
        "wire.shed",
        (degraded.shed_watermark - degraded_before.shed_watermark) as f64,
        "count",
    );
    report(
        "wire.evicted",
        (degraded.evicted_total() - degraded_before.evicted_total()) as f64,
        "count",
    );
    report("cores", cores() as f64, "count");

    Ok(Outcome {
        ledger,
        lemma_warnings,
        warn_rate,
        metrics,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <drive_indist|ood_tolerant|rollout> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let started = Instant::now();
    let outcome = Work::create(&args)
        .map_err(Into::into)
        .and_then(|work| run(&args, &work.0));
    match outcome {
        Ok(outcome) => {
            let bad = outcome.violations();
            for violation in &bad {
                eprintln!("perfbench: correctness gate failed: {violation}");
            }
            eprintln!(
                "perfbench: run took {:.1} s",
                started.elapsed().as_secs_f64()
            );
            println!("{}", outcome.json(bad.is_empty()));
            if !bad.is_empty() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

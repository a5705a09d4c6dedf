//! `certbench` — the campaign benchmark.
//!
//! ```text
//! certbench --workload <e3_fig3|e2_lifecycle|e7_sharded_traced|all>
//!           [--seed <n>] [--seconds <n>] [--trace <0|1>] [--trials <n>]
//! ```
//!
//! With `--trace 0` a run reports the end-to-end metrics of one
//! workload, measured with the benchmark's per-layer timing off:
//! closed-loop rounds through the workload's engine for `--seconds`
//! seconds, interleaved with a per-seed latency sample and set-up
//! probes. With `--trace 1` it reports the per-layer metrics from a
//! separate run that drives each layer through its public functions
//! (see `layers.rs`). Every run checks the campaign's outputs against
//! an independent path and prints, as its last line, one JSON object
//! with the keys `correct`, `attempted`, `failed` and `metrics`; host
//! facts go on the line before it. `--trials` shrinks rounds and
//! samples to `n` trials (the self-test uses it); `all` runs every
//! workload and reports its metrics prefixed by the workload's name.
//!
//! Estimators: host speed on a shared machine swings by more than 1.5×
//! over seconds, so single means and raw percentiles do not repeat.
//! These do: `trials_per_s` splits every round's delivery after its
//! first row into `SEGMENTS` segments and adds up each segment's
//! fastest time over the run (best-of-rounds, segment by segment);
//! latency is each seed's best of all its samples (at least
//! `LATENCY_REPEATS`); `setup_s` is the median of `SETUP_PROBES` fresh
//! processes.

mod layers;
mod measure;
mod workload;

use certify_analysis::report::ExperimentReport;
use certify_core::{CampaignStats, Json};
use measure::{median, peak_rss_mb, quantile, HostFacts};
use std::hint::black_box;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;
use workload::{trial_path, Delivery, Engine, RoundContext, Workload, WORKLOADS};

/// The default campaign seed: the paper's Figure-3 seed.
const DEFAULT_SEED: u64 = 0xD5_2022;
/// Seeds in the latency sample (and the per-layer run): enough for a
/// p99 with ten samples beyond it.
const LATENCY_SAMPLE: usize = 1000;
/// Samples of every latency seed at least; each seed reports its
/// fastest.
const LATENCY_REPEATS: usize = 3;
/// Fresh processes timed for `setup_s`, spread over the run.
const SETUP_PROBES: usize = 21;
/// Timed rounds at least, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;
/// Segments a round's delivery time is split into; each reports its
/// fastest over the run.
const SEGMENTS: usize = 10;

/// One run's verdict and metrics.
#[derive(Debug)]
pub struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn new() -> Report {
        Report {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        }
    }

    /// Counts `trials` failed trials; any failure makes the run
    /// incorrect.
    fn fail(&mut self, trials: u64) {
        if trials > 0 {
            self.failed += trials;
            self.correct = false;
        }
    }

    fn metric(&mut self, name: String, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let entry = Json::obj([("value", Json::F64(*value)), ("unit", Json::str(*unit))]);
                (name.clone(), entry)
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::U64(self.attempted)),
            ("failed", Json::U64(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

#[derive(Debug)]
struct Args {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    trials: Option<usize>,
    /// Child mode: time one cold set-up and print it.
    probe_setup: bool,
}

fn parse_number(text: &str) -> Option<u64> {
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: 30,
        trace: false,
        trials: None,
        probe_setup: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--probe-setup" {
            args.probe_setup = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || parse_number(&value).ok_or_else(|| format!("{flag}: bad number {value}"));
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = WORKLOADS.iter().collect(),
            "--workload" => {
                args.workloads =
                    vec![Workload::by_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?]
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--trials" => {
                args.trials = Some(match number()? {
                    n @ 2..=1_000_000 => n as usize,
                    _ => return Err("--trials takes 2 to 1000000".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// A scratch directory under the working directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new() -> Result<TempDir, String> {
        let dir = PathBuf::from(".certbench-tmp").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(TempDir(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Child mode: spec in to first row out, in a process whose testbed
/// has not been built yet. The round is one trial per worker.
fn probe_setup(workload: &Workload, seed: u64, dir: &TempDir) -> Result<f64, String> {
    let start = Instant::now();
    let ctx = RoundContext::new(workload, &dir.0)?;
    let preflight_s = start.elapsed().as_secs_f64();
    let round = ctx.run(workload, workload.workers(), seed)?;
    Ok(preflight_s + round.first_row_s())
}

/// The set-up time of one fresh process.
fn setup_time(workload: &Workload, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--probe-setup", "--workload", workload.name, "--seed"])
        .arg(seed.to_string())
        .output()
        .map_err(|e| format!("spawning a set-up probe: {e}"))?;
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .and_then(|line| line.strip_prefix("setup_s "))
        .and_then(|t| t.parse::<f64>().ok())
        .filter(|_| out.status.success())
        .ok_or_else(|| {
            format!(
                "set-up probe failed: {}",
                String::from_utf8_lossy(&out.stderr).trim()
            )
        })
}

/// Shuffles `items` with a xorshift stream keyed by `key`.
fn shuffle(items: &mut [usize], key: u64) {
    let mut state = key.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    for i in (1..items.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        items.swap(i, (state % (i as u64 + 1)) as usize);
    }
}

/// Compares what a round delivered against the independent path.
fn mismatch(reference: &Delivery, got: &Delivery) -> Option<String> {
    if got.rows != reference.rows {
        Some(format!("{} rows, expected {}", got.rows, reference.rows))
    } else if got.csv != reference.csv {
        Some("CSV digest differs".into())
    } else if got.stats != reference.stats {
        Some("CampaignStats differ".into())
    } else if got.dumps != reference.dumps {
        Some(format!("{} dumps, expected {}", got.dumps, reference.dumps))
    } else {
        None
    }
}

/// The end-to-end run of one workload.
///
/// Host speed on a shared machine drifts over seconds, so the run
/// interleaves its three measurements over the whole `seconds`
/// window instead of taking them one after another: each iteration
/// times one engine round, one slice of the latency sample and, on
/// schedule, one set-up probe. The latency slices are also the output
/// gate's independent path: the first one covers the round's seeds
/// through `TrialRunner` and `trial_to_csv_row`, and every round must
/// deliver exactly what it did.
fn end_to_end(
    workload: &Workload,
    ctx: &RoundContext,
    seed: u64,
    seconds: u64,
    trials: usize,
    sample: usize,
) -> Result<Report, String> {
    let mut report = Report::new();
    let scenario = workload.scenario();
    let runner = scenario.runner();
    let trace = workload.trace();
    let mut reference = Delivery::new(&scenario.name);
    let mut sample_stats = CampaignStats::new(scenario.name.clone());
    let mut best = vec![f64::INFINITY; sample];
    let mut latency_samples = 0;
    let mut next_seq = 0;
    let mut row = String::new();
    let mut setup_times = Vec::new();
    let segments = SEGMENTS.min(trials - 1);
    let mut best_segments = vec![f64::INFINITY; segments];
    let mut rounds = 0;
    // Each iteration times as many latency seeds as a round has trials,
    // and the first slice covers the round's seeds, so it can serve as
    // the gate's reference from the first round on.
    let slice = trials.min(sample);
    let seconds = seconds as f64;
    let started = Instant::now();
    for iteration in 0.. {
        let elapsed = started.elapsed().as_secs_f64();
        if iteration > MIN_ROUNDS
            && elapsed >= seconds
            && latency_samples >= LATENCY_REPEATS * sample
            && setup_times.len() >= SETUP_PROBES
        {
            break;
        }
        if setup_times.len() < SETUP_PROBES
            && elapsed >= setup_times.len() as f64 * seconds / SETUP_PROBES as f64
        {
            setup_times.push(setup_time(workload, seed)?);
        }

        // The first passes cover the sample in order; later samples go
        // to the seeds whose best is still highest, which a slow spell
        // of the host can leave without a single fast sample. They run
        // in a fresh order each time: what a trial costs also depends on
        // the heap the trials before it left behind.
        let seqs: Vec<usize> = if latency_samples < LATENCY_REPEATS * sample {
            let end = (next_seq + slice).min(sample);
            let seqs = (next_seq..end).collect();
            next_seq = if end == sample { 0 } else { end };
            seqs
        } else {
            let mut order: Vec<usize> = (0..sample).collect();
            order.sort_by(|&a, &b| best[b].total_cmp(&best[a]));
            order.truncate(slice);
            shuffle(&mut order, iteration as u64);
            order
        };
        // Untimed: the first trial after a round would otherwise
        // always pay for the caches the round evicted.
        black_box(trial_path(
            &runner,
            seed.wrapping_add(seqs[0] as u64),
            trace.as_ref(),
            &mut row,
        ));
        for &seq in &seqs {
            let start = Instant::now();
            let (trial, dump) = trial_path(
                &runner,
                seed.wrapping_add(seq as u64),
                trace.as_ref(),
                &mut row,
            );
            best[seq] = best[seq].min(start.elapsed().as_secs_f64() * 1e6);
            if latency_samples < sample {
                sample_stats.record(&trial);
            }
            if iteration == 0 && seq < trials {
                reference.add_trial(&trial, &row);
                if let Some(json) = dump {
                    reference.add_dump(seq as u64, &json);
                }
            }
        }
        latency_samples += seqs.len();

        report.attempted += trials as u64;
        let round = match ctx.run(workload, trials, seed) {
            Ok(round) => round,
            Err(e) => {
                eprintln!("round failed: {e}");
                report.fail(trials as u64);
                continue;
            }
        };
        report.fail(round.failed);
        if let Some(why) = mismatch(&reference, &round.delivery) {
            eprintln!("gate: round differs from the independent path: {why}");
            report.fail(trials as u64);
        }
        if iteration > 0 {
            rounds += 1;
            for (best, time) in best_segments.iter_mut().zip(round.segments_s(segments)) {
                *best = best.min(time);
            }
        } else if workload.engine == Engine::Sharded {
            // The warm-up round's dump files are the delivered
            // artifacts the gate checks.
            let files = ctx.dump_files()?;
            if files != (reference.dumps, reference.dump_digest) {
                eprintln!("gate: dump files differ from the independent path");
                report.fail(trials as u64);
            }
        }
    }
    let peak_rss = peak_rss_mb();
    if workload.name == "e3_fig3" && seed == DEFAULT_SEED {
        let e3 = ExperimentReport::e3(&sample_stats);
        eprintln!("figure 3 at the default seed: {}", e3.measured);
        if !e3.reproduced {
            eprintln!("gate: Figure 3 is not reproduced");
            report.fail(trials as u64);
        }
    }

    eprintln!(
        "{}: {rounds} rounds of {trials} trials at {} worker(s), each of {segments} segments \
         at its fastest; latency over {sample} seeds, best of {:.1} samples per seed on \
         average; set-up median of {} processes; failed_share {}",
        workload.name,
        workload.workers(),
        latency_samples as f64 / sample as f64,
        setup_times.len(),
        report.failed as f64 / report.attempted as f64,
    );
    let delivery_s: f64 = best_segments.iter().sum();
    report.metric(
        "trials_per_s".into(),
        (trials - 1) as f64 / delivery_s,
        "1/s",
    );
    report.metric("setup_s".into(), median(&setup_times), "s");
    report.metric("trial_us_p50".into(), median(&best), "us");
    report.metric("trial_us_p99".into(), quantile(&best, 0.99), "us");
    report.metric("peak_rss_mb".into(), peak_rss, "MB");
    Ok(report)
}

fn run(args: &Args) -> Result<(), String> {
    let dir = TempDir::new()?;
    if args.probe_setup {
        let time = probe_setup(args.workloads[0], args.seed, &dir)?;
        println!("setup_s {time}");
        return Ok(());
    }
    let mut reports = Vec::new();
    for workload in &args.workloads {
        let host = HostFacts::start();
        // Resolves the shard worker before anything is timed.
        let ctx = RoundContext::new(workload, &dir.0)?;
        let (trials, sample) = match args.trials {
            Some(n) => (n, n),
            None => (workload.trials, LATENCY_SAMPLE),
        };
        let report = if args.trace {
            layers::per_layer(workload, &ctx, args.seed, args.seconds, sample)?
        } else {
            end_to_end(workload, &ctx, args.seed, args.seconds, trials, sample)?
        };
        for (name, value, unit) in &report.metrics {
            println!("{:<18} {name:<36} {value:>16.4} {unit}", workload.name);
        }
        let facts = host.finish(workload.name, args.seed, args.seconds, args.trace);
        println!("{}", Json::obj([("host", facts)]).render());
        reports.push((workload.name, report));
    }
    let last = match reports.len() {
        1 => reports.pop().map(|(_, report)| report),
        _ => {
            // `all`: one object with every workload's metrics prefixed
            // by its name.
            let mut all = Report::new();
            for (name, report) in reports {
                all.correct &= report.correct;
                all.attempted += report.attempted;
                all.failed += report.failed;
                for (metric, value, unit) in report.metrics {
                    all.metric(format!("{name}.{metric}"), value, unit);
                }
            }
            Some(all)
        }
    };
    let last = last.expect("at least one workload ran");
    println!("{}", last.to_json().render());
    Ok(())
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| run(&args));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("certbench: {e}");
            ExitCode::FAILURE
        }
    }
}

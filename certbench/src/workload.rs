//! The three campaign workloads and the engine calls that run them.
//!
//! Every workload is a closed-loop batch campaign: a round is one
//! campaign of `trials` trials seeded `base_seed + i`, run through the
//! workload's engine with its CSV going to a [`DigestWriter`].

use crate::measure::{nproc, Digest, DigestWriter};
use certify_analysis::export::{trial_to_csv_row, CsvSink, CSV_HEADER};
use certify_core::campaign::{Campaign, Scenario, TrialResult, TrialRunner};
use certify_core::{
    CampaignStats, ConformanceMonitor, DumpPolicy, ScenarioCertificate, TraceConfig, TraceDump,
};
use certify_lint::{certify_scenario, has_errors, lint_scenario};
use certify_obs::{MonotonicClock, NullObserver};
use certify_shard::{run_sharded_observed, ShardOptions, ShardedRun};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// How a workload's trials are executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `Campaign::run_parallel_streamed` on `nproc` threads.
    Parallel,
    /// `Campaign::run_streamed` on one thread (the shard workers' engine).
    Sequential,
    /// `certify_shard::run_sharded` over `nproc` worker processes.
    Sharded,
}

/// One benchmark workload.
#[derive(Debug)]
pub struct Workload {
    /// The name `--workload` selects.
    pub name: &'static str,
    scenario: fn() -> Scenario,
    /// The engine the workload's trials run through.
    pub engine: Engine,
    /// Whether the campaign runs with the flight recorder and anomaly
    /// dumps.
    traced: bool,
    /// Trials per round: short rounds, so that many of them sample the
    /// host's speed over a run.
    pub trials: usize,
}

/// The workloads, in the order `--workload all` runs them.
///
/// * `e3_fig3` — the paper's headline campaign. About 97 % of its time
///   is `System::step` and ~71 % of each trial is a fault-free prefix,
///   so step hot-path and prefix-sharing work shows here.
/// * `e2_lifecycle` — cell create/start/destroy cycles through the
///   hypercall paths with injections from step 50 (no shared prefix)
///   and ~7 KB rows, on the sequential engine shard workers run.
/// * `e7_sharded_traced` — the only workload through the shard tier,
///   the trace layer and the memory injector.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "e3_fig3",
        scenario: Scenario::e3_fig3,
        engine: Engine::Parallel,
        traced: false,
        trials: 250,
    },
    Workload {
        name: "e2_lifecycle",
        scenario: Scenario::e2_nonroot_high,
        engine: Engine::Sequential,
        traced: false,
        trials: 100,
    },
    Workload {
        name: "e7_sharded_traced",
        scenario: Scenario::e7_mixed,
        engine: Engine::Sharded,
        traced: true,
        trials: 250,
    },
];

/// The ring capacity of the traced workload's flight recorder.
const TRACE_CAPACITY: usize = 512;

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The scenario under test.
    pub fn scenario(&self) -> Scenario {
        (self.scenario)()
    }

    /// The campaign's tracing configuration, if it is traced.
    pub fn trace(&self) -> Option<TraceConfig> {
        self.traced.then(|| {
            TraceConfig::new()
                .with_capacity(TRACE_CAPACITY)
                .with_policy(DumpPolicy::anomalies())
        })
    }

    /// Threads or processes the engine uses.
    pub fn workers(&self) -> usize {
        match self.engine {
            Engine::Sequential => 1,
            Engine::Parallel | Engine::Sharded => nproc(),
        }
    }

    /// The campaign of one round.
    pub fn campaign(&self, trials: usize, base_seed: u64) -> Campaign {
        let campaign = Campaign::new(self.scenario(), trials, base_seed);
        match self.trace() {
            Some(config) => campaign.with_trace(config),
            None => campaign,
        }
    }
}

/// What a campaign delivered, in a form two paths can compare.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// Data rows delivered.
    pub rows: u64,
    /// Digest of the CSV bytes, header included.
    pub csv: Digest,
    /// The campaign's folded stats.
    pub stats: CampaignStats,
    /// Trace dumps delivered.
    pub dumps: u64,
    /// Digest over every dump's sequence number and JSON document.
    pub dump_digest: Digest,
}

impl Delivery {
    /// An empty delivery for `scenario_name` with the CSV header
    /// already counted.
    pub fn new(scenario_name: &str) -> Delivery {
        let mut csv = Digest::default();
        csv.update(CSV_HEADER.as_bytes());
        Delivery {
            rows: 0,
            csv,
            stats: CampaignStats::new(scenario_name),
            dumps: 0,
            dump_digest: Digest::default(),
        }
    }

    /// Folds one trial's CSV row and stats in.
    pub fn add_trial(&mut self, trial: &TrialResult, row: &str) {
        self.rows += 1;
        self.csv.update(row.as_bytes());
        self.stats.record(trial);
    }

    /// Folds one delivered dump's JSON document in.
    pub fn add_dump(&mut self, seq: u64, json: &str) {
        self.dumps += 1;
        self.dump_digest.update(&seq.to_le_bytes());
        self.dump_digest.update(json.as_bytes());
    }
}

/// One executed round.
#[derive(Debug)]
pub struct Round {
    /// What the engine delivered.
    pub delivery: Delivery,
    /// Wall time from the engine call to its return, in seconds.
    pub wall_s: f64,
    /// Wall time from the engine call to each data row, in seconds.
    rows_s: Vec<f64>,
    /// Trials that broke conformance or were re-run after a worker
    /// failure.
    pub failed: u64,
    /// Completed-but-undelivered reports at most (parallel engine).
    pub reorder_high_water: usize,
    /// The shard tier's report (sharded engine).
    pub sharded: Option<ShardedRun>,
}

impl Round {
    /// Wall time from the engine call to the first data row, in
    /// seconds: the round's set-up.
    pub fn first_row_s(&self) -> f64 {
        self.rows_s.first().copied().unwrap_or(self.wall_s)
    }

    /// Trials delivered per second after the first row.
    pub fn trials_per_s(&self) -> f64 {
        let after_setup = self.wall_s - self.first_row_s();
        if self.delivery.rows < 2 || after_setup <= 0.0 {
            return 0.0;
        }
        (self.delivery.rows - 1) as f64 / after_setup
    }

    /// The time after the first row split into `count` segments of
    /// about equal row counts; the last one ends when the engine
    /// returns, so it holds any work after the last row.
    pub fn segments_s(&self, count: usize) -> Vec<f64> {
        let rows = self.rows_s.len();
        if rows < count {
            return Vec::new();
        }
        let mut bounds: Vec<f64> = (0..count).map(|j| self.rows_s[j * rows / count]).collect();
        bounds.push(self.wall_s);
        bounds.windows(2).map(|w| w[1] - w[0]).collect()
    }
}

/// Seconds from `start` to each of `times`.
fn since(start: Instant, times: &[Instant]) -> Vec<f64> {
    times
        .iter()
        .map(|at| at.duration_since(start).as_secs_f64())
        .collect()
}

/// Lints and certifies the scenario, as `run_sharded` does before it
/// spawns a worker: in-process rounds run under the certificate's
/// conformance monitor.
pub fn preflight(scenario: &Scenario) -> Result<Arc<ScenarioCertificate>, String> {
    let diagnostics = lint_scenario(scenario);
    if has_errors(&diagnostics) {
        return Err(format!("scenario {} fails lint", scenario.name));
    }
    let (certificate, diagnostics) = certify_scenario(scenario);
    if has_errors(&diagnostics) {
        return Err(format!("scenario {} fails certification", scenario.name));
    }
    Ok(Arc::new(certificate))
}

/// Everything a round needs besides its size and seeds.
#[derive(Debug)]
pub struct RoundContext {
    /// The in-process engines' conformance certificate.
    certificate: Option<Arc<ScenarioCertificate>>,
    /// The sharded engine's worker executable.
    worker: Option<PathBuf>,
    /// Where the sharded engine writes dump files.
    dump_dir: PathBuf,
}

impl RoundContext {
    /// Pre-flights the workload's scenario (in-process engines) or
    /// resolves the shard worker (sharded engine).
    pub fn new(workload: &Workload, dump_dir: &Path) -> Result<RoundContext, String> {
        let (certificate, worker) = match workload.engine {
            Engine::Parallel | Engine::Sequential => (Some(preflight(&workload.scenario())?), None),
            Engine::Sharded => (None, Some(resolve_worker()?)),
        };
        Ok(RoundContext {
            certificate,
            worker,
            dump_dir: dump_dir.to_path_buf(),
        })
    }

    /// Runs one round of `trials` trials from `base_seed`. A panicking
    /// or failing engine is an error.
    pub fn run(&self, workload: &Workload, trials: usize, base_seed: u64) -> Result<Round, String> {
        let campaign = workload.campaign(trials, base_seed);
        catch_unwind(AssertUnwindSafe(|| match workload.engine {
            Engine::Parallel | Engine::Sequential => self.run_in_process(workload, &campaign),
            Engine::Sharded => self.run_sharded(workload, &campaign),
        }))
        .unwrap_or_else(|_| Err(format!("{} round panicked", workload.name)))
    }

    fn run_in_process(&self, workload: &Workload, campaign: &Campaign) -> Result<Round, String> {
        let certificate = self
            .certificate
            .clone()
            .expect("in-process rounds are pre-flighted");
        let csv = CsvSink::new(DigestWriter::new(CSV_HEADER.len())).map_err(|e| e.to_string())?;
        let mut sink = ConformanceMonitor::new(certificate, csv);
        let start = Instant::now();
        let (stats, reorder_high_water) = match workload.engine {
            Engine::Parallel => {
                campaign.run_parallel_streamed_instrumented(workload.workers(), &mut sink)
            }
            _ => (campaign.run_streamed(&mut sink), 0),
        };
        let wall_s = start.elapsed().as_secs_f64();
        let failed = sink.violations_total();
        let csv = sink.into_inner();
        let rows = csv.rows() as u64;
        let out = csv.finish().map_err(|e| e.to_string())?;
        Ok(Round {
            delivery: Delivery {
                rows,
                csv: out.digest(),
                stats,
                dumps: 0,
                dump_digest: Digest::default(),
            },
            wall_s,
            rows_s: since(start, out.rows_at()),
            failed,
            reorder_high_water,
            sharded: None,
        })
    }

    fn run_sharded(&self, workload: &Workload, campaign: &Campaign) -> Result<Round, String> {
        let worker = self
            .worker
            .clone()
            .expect("sharded rounds resolve a worker");
        let opts = ShardOptions::new(workload.workers())
            .with_worker(worker)
            .with_dump_dir(&self.dump_dir);
        let mut out = DigestWriter::new(CSV_HEADER.len());
        let clock = MonotonicClock::new();
        let start = Instant::now();
        let run = run_sharded_observed(campaign, &opts, Some(&mut out), &clock, &mut NullObserver)
            .map_err(|e| format!("sharded round failed: {e}"))?;
        let wall_s = start.elapsed().as_secs_f64();
        Ok(Round {
            delivery: Delivery {
                rows: run.rows,
                csv: out.digest(),
                stats: run.stats.clone(),
                dumps: run.dumps.len() as u64,
                dump_digest: Digest::default(),
            },
            wall_s,
            rows_s: since(start, out.rows_at()),
            failed: rerun_trials(&run),
            reorder_high_water: 0,
            sharded: Some(run),
        })
    }

    /// Digests the dump files the last sharded round wrote: the
    /// delivered artifacts, not the in-memory copies.
    pub fn dump_files(&self) -> Result<(u64, Digest), String> {
        let mut names: Vec<String> = std::fs::read_dir(&self.dump_dir)
            .map_err(|e| format!("reading {}: {e}", self.dump_dir.display()))?
            .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
            .collect();
        names.sort();
        let mut delivery = Delivery::new("");
        for name in names {
            let seq = name
                .strip_prefix("trace-")
                .and_then(|rest| rest.strip_suffix(".json"))
                .and_then(|digits| digits.parse::<u64>().ok())
                .ok_or_else(|| format!("unexpected dump file {name}"))?;
            let doc = std::fs::read_to_string(self.dump_dir.join(&name))
                .map_err(|e| format!("reading dump {name}: {e}"))?;
            delivery.add_dump(seq, doc.trim_end_matches('\n'));
        }
        Ok((delivery.dumps, delivery.dump_digest))
    }
}

/// Trials of shards that had to be re-run after a worker failure.
fn rerun_trials(run: &ShardedRun) -> u64 {
    run.shard_metrics
        .iter()
        .zip(&run.shard_ranges)
        .filter(|(metrics, _)| metrics.retries.get() > 0)
        .map(|(_, &(_, len))| len as u64)
        .sum()
}

/// How to build the benchmark's shard worker, for error messages.
const BUILD_WORKER: &str =
    "build it with `cargo build --release --manifest-path certbench/Cargo.toml`";

/// Finds the shard worker the way `run_sharded` would, before any
/// timing starts.
pub fn resolve_worker() -> Result<PathBuf, String> {
    let worker = certify_shard::resolve_worker().map_err(|e| format!("{e}; {BUILD_WORKER}"))?;
    if worker.is_file() {
        Ok(worker)
    } else {
        Err(format!(
            "shard worker {} does not exist; {BUILD_WORKER}",
            worker.display()
        ))
    }
}

/// One trial along the path the workload's trials take inside the
/// engine: the (possibly traced) run, its CSV row, and the JSON of the
/// dump the policy keeps.
pub fn trial_path(
    runner: &TrialRunner,
    seed: u64,
    trace: Option<&TraceConfig>,
    row: &mut String,
) -> (TrialResult, Option<String>) {
    let (trial, dump) = runner.run_trial_traced(seed, trace);
    row.clear();
    trial_to_csv_row(&trial, row);
    let json = dump
        .filter(|_| trace.is_some_and(|config| config.policy.wants(trial.outcome)))
        .map(|dump: TraceDump| dump.to_json().render());
    (trial, json)
}

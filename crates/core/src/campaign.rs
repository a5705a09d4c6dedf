//! Campaigns: seeded batches of independent trials.
//!
//! A *scenario* fixes the workload (management script), the injection
//! specification and the test duration; a *campaign* runs many seeded
//! trials of one scenario and aggregates the outcome distribution —
//! the data behind Figure 3. Trials are independent systems, so they
//! can run on parallel threads (cf. the "No PAIN, no gain?" parallel
//! fault injection study the paper cites \[10\]) — and because the
//! campaign's value is the aggregate, results *stream*.
//!
//! One engine runs every campaign: [`Campaign::execute`] delivers each
//! [`TrialResult`] of a trial range to a [`TrialSink`] in seed order and
//! folds it into [`CampaignStats`] online, holding at most `workers`
//! undelivered reports however large the campaign. The calling thread
//! is worker 0, so one worker runs the range inline, with no thread.
//! The other run methods are one-line wrappers over it, and the shard
//! worker calls it for its range.
//!
//! One path runs every trial: [`TrialRunner::run`] takes a [`Probe`]
//! that may carry a clock (phase timings out) and a [`TraceConfig`]
//! (a flight-recorder dump out). The two compose, an empty probe
//! observes nothing, and no observation changes a result.
//!
//! **The pristine-prefix invariant.** A trial's seed reaches the system
//! only through its injectors' RNGs, so until an injector first draws —
//! its first fire attempt, or phase jitter at construction — every
//! trial of a scenario is in the same state. A [`TrialRunner`] runs that
//! seed-free prefix once: it learns its length `P` from the first trial,
//! snapshots the system at step `P` (a snapshot of a system whose
//! injectors have drawn is refused, always, not only in debug builds)
//! and forks every later trial from a deep copy with reseeded
//! injectors. A forked trial is byte-identical to a from-scratch one.

use crate::certificate::ScenarioCertificate;
use crate::classify::{classify, Outcome, RunReport};
use crate::json::Json;
use crate::memfault::{MemFaultModel, MemTarget};
use crate::sink::{CollectSink, TrialSink};
use crate::spec::{InjectionSpec, MemorySpec};
use crate::stats::CampaignStats;
use crate::system::System;
use crate::telemetry::{outcome_rows, EngineTelemetry};
use crate::trace::{write_events_json, TraceConfig, TraceDump};
use certify_guest_linux::MgmtScript;
use certify_obs::trace::{TraceEvent, TraceKind, TraceLog, NO_CPU};
use certify_obs::{Clock, EngineMetrics, PhaseSample, ProgressTracker};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Bound, RangeBounds};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Seed offset decorrelating a trial's memory-injection RNG from its
/// register-injection RNG (both are derived from the same trial seed).
const MEM_SEED_OFFSET: u64 = 0x6d65_6d66; // "memf"

/// A fully specified experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// Scenario name (used in reports).
    pub name: String,
    /// The root-cell management script.
    pub script: MgmtScript,
    /// The register-injection specification; `None` = no register
    /// faults.
    pub spec: Option<InjectionSpec>,
    /// The memory-injection specification; `None` = no memory faults.
    /// Both specs may be set for mixed campaigns.
    pub mem_spec: Option<MemorySpec>,
    /// Simulator steps per trial (the paper's "each test lasts 1
    /// min" becomes a fixed step budget).
    pub steps: u64,
    /// Whether the RTOS workload includes the E5b safety-heartbeat
    /// task.
    pub rtos_heartbeat: bool,
}

impl Scenario {
    /// Golden (fault-free) bring-up scenario.
    pub fn golden(steps: u64) -> Scenario {
        Scenario {
            name: "golden".into(),
            script: MgmtScript::bring_up_and_run(steps),
            spec: None,
            mem_spec: None,
            steps,
            rtos_heartbeat: false,
        }
    }

    /// E1: high-intensity injection on the root-context handlers
    /// during hypervisor enable. The script issues 49 info polls
    /// before the enable, so the enable itself is the 50th
    /// hypercall — the injection cadence of the paper's high
    /// intensity lands exactly on it.
    pub fn e1_root_high() -> Scenario {
        Scenario {
            name: "e1-root-high".into(),
            script: MgmtScript::enable_attempt(49),
            spec: Some(InjectionSpec::e1_root_high()),
            mem_spec: None,
            steps: 400,
            rtos_heartbeat: false,
        }
    }

    /// E2: high-intensity injection filtered to CPU 1 while the root
    /// cell cycles the FreeRTOS cell lifecycle.
    pub fn e2_nonroot_high() -> Scenario {
        Scenario {
            name: "e2-nonroot-high".into(),
            script: MgmtScript::lifecycle_cycling(150),
            spec: Some(InjectionSpec::e2_nonroot_high()),
            mem_spec: None,
            steps: 8000,
            rtos_heartbeat: false,
        }
    }

    /// E2, boot-window aligned: the single injection lands exactly on
    /// the `CPU_BOOT` hypercall — the deterministic reproduction of
    /// the paper's inconsistent-state observation.
    pub fn e2_boot_window() -> Scenario {
        Scenario {
            name: "e2-boot-window".into(),
            script: MgmtScript::bring_up_and_run(1500),
            spec: Some(InjectionSpec::e2_boot_window()),
            mem_spec: None,
            steps: 2500,
            rtos_heartbeat: false,
        }
    }

    /// E3 (Figure 3): medium-intensity injection on the non-root
    /// cell's `arch_handle_trap` during steady-state operation.
    pub fn e3_fig3() -> Scenario {
        Scenario {
            name: "e3-fig3-medium".into(),
            script: MgmtScript::bring_up_and_run(u64::MAX / 2),
            spec: Some(InjectionSpec::e3_nonroot_trap_medium()),
            mem_spec: None,
            steps: 4500,
            rtos_heartbeat: false,
        }
    }

    /// E5a (extension): the Figure-3 campaign with the hardware
    /// watchdog armed — the root kernel feeds it from its heartbeat
    /// path, so *panic park* outcomes become detected events.
    pub fn e5a_watchdog() -> Scenario {
        Scenario {
            name: "e5a-watchdog".into(),
            script: MgmtScript::bring_up_with_watchdog(u64::MAX / 2),
            spec: Some(InjectionSpec::e3_nonroot_trap_medium()),
            mem_spec: None,
            steps: 4500,
            rtos_heartbeat: false,
        }
    }

    /// E5b (extension): the boot-window E2 scenario with the cell
    /// heartbeat + root-side safety monitor — the silent
    /// *inconsistent state* becomes a detected alarm.
    pub fn e5b_monitor() -> Scenario {
        Scenario {
            name: "e5b-monitor".into(),
            script: MgmtScript::bring_up_with_monitor(3000, 128),
            spec: Some(InjectionSpec::e2_boot_window()),
            mem_spec: None,
            steps: 4000,
            rtos_heartbeat: true,
        }
    }

    /// E6 (extension): a memory-fault campaign firing `model` at
    /// addresses drawn from `target`, paced by the non-root cell's
    /// handler stream during steady-state operation.
    pub fn e6_memory(model: MemFaultModel, target: MemTarget) -> Scenario {
        let name = format!("e6-{}", model.name());
        Scenario {
            name,
            script: MgmtScript::bring_up_and_run(u64::MAX / 2),
            spec: None,
            mem_spec: Some(MemorySpec::e6_memory(model, target)),
            steps: 4500,
            // The heartbeat task gives the victim a memory-active
            // workload (periodic ivshmem posts through stage-2) —
            // without it, table corruption could never manifest.
            rtos_heartbeat: true,
        }
    }

    /// E7 (extension): a mixed campaign — the paper's E3 register
    /// injection *and* an E6-style memory injection run in the same
    /// trials. The memory window opens after E3's single register
    /// injection (trap call 100, ~step 3160) so both domains fire.
    pub fn e7_mixed() -> Scenario {
        Scenario {
            name: "e7-mixed".into(),
            script: MgmtScript::bring_up_and_run(u64::MAX / 2),
            spec: Some(InjectionSpec::e3_nonroot_trap_medium()),
            mem_spec: Some(
                MemorySpec::e6_memory(MemFaultModel::SingleBitFlip, MemTarget::e6())
                    .with_rate(10)
                    .with_window(3300, 4500),
            ),
            steps: 4500,
            rtos_heartbeat: true,
        }
    }

    /// The fault-free twin of this scenario: same script, same step
    /// budget, same RTOS workload, both injection specs removed. Run
    /// at the same seed it is the golden baseline the
    /// `certify_analysis` golden-diff propagation analysis compares an
    /// anomalous trace against.
    pub fn fault_free(&self) -> Scenario {
        Scenario {
            name: format!("{}-fault-free", self.name),
            script: self.script.clone(),
            spec: None,
            mem_spec: None,
            steps: self.steps,
            rtos_heartbeat: self.rtos_heartbeat,
        }
    }

    /// Prepares this scenario for running many trials: the script and
    /// specs move behind `Arc`s once, so each trial clones pointers
    /// instead of deep-copying the script program and fault models
    /// (the campaign hot path).
    pub fn runner(&self) -> TrialRunner {
        TrialRunner {
            name: Arc::from(self.name.as_str()),
            script: Arc::new(self.script.clone()),
            spec: self.spec.clone().map(Arc::new),
            mem_spec: self.mem_spec.clone().map(Arc::new),
            steps: self.steps,
            rtos_heartbeat: self.rtos_heartbeat,
            prefix: Arc::default(),
        }
    }

    /// Runs one seeded trial of this scenario. For many trials,
    /// build a [`Scenario::runner`] once and reuse it.
    pub fn run_trial(&self, seed: u64) -> TrialResult {
        self.runner().run_trial(seed)
    }
}

/// A [`Scenario`] prepared for repeated trials: immutable parts are
/// shared behind `Arc`s, so `run_trial` is allocation-light and
/// `Clone` hands workers a cheap handle.
///
/// # The pristine prefix
///
/// Until an injector first draws from its RNG — its first fire
/// attempt, or phase jitter at construction — a trial's state does not
/// depend on its seed, so every trial of a scenario runs the same first
/// `P` steps. The runner learns `P` from the first trial that finishes
/// ([`System::seed_free_steps`]: `steps` when nothing fires, 0 when an
/// injector draws at construction). The next trial saves a
/// [`System::pristine_snapshot`] at step `P` on its way through, and
/// every later trial starts from a deep copy of it with its injectors
/// reseeded from the trial's seed ([`System::reseed_injectors`]).
/// Traced trials keep a snapshot of their own, whose flight-recorder
/// ring already holds the prefix's events.
///
/// Restored trials are byte-identical to from-scratch ones — results,
/// CSV rows and trace dumps (pinned by `tests/hotpath_equivalence.rs`).
/// With `P = 0` every trial runs from scratch. Clones of a runner
/// share what it learned.
#[derive(Debug, Clone)]
pub struct TrialRunner {
    name: Arc<str>,
    script: Arc<MgmtScript>,
    spec: Option<Arc<InjectionSpec>>,
    mem_spec: Option<Arc<MemorySpec>>,
    steps: u64,
    rtos_heartbeat: bool,
    prefix: Arc<Prefix>,
}

/// What a [`TrialRunner`] has learned about its scenario's pristine
/// prefix.
#[derive(Debug, Default)]
struct Prefix {
    /// `P`, known once a trial has run to the end.
    steps: OnceLock<u64>,
    /// Pristine systems at step `P`, keyed by flight-recorder capacity
    /// (`None`: untraced).
    snapshots: Mutex<Vec<(Option<usize>, Arc<System>)>>,
}

impl Prefix {
    fn snapshot(&self, capacity: Option<usize>) -> Option<Arc<System>> {
        let snapshots = self.snapshots.lock().expect("prefix snapshot lock");
        snapshots
            .iter()
            .find(|(key, _)| *key == capacity)
            .map(|(_, system)| Arc::clone(system))
    }

    fn save(&self, capacity: Option<usize>, system: System) {
        let mut snapshots = self.snapshots.lock().expect("prefix snapshot lock");
        if !snapshots.iter().any(|(key, _)| *key == capacity) {
            snapshots.push((capacity, Arc::new(system)));
        }
    }
}

impl TrialRunner {
    /// Builds the seeded system for one trial: board + guests +
    /// installed injectors, not yet stepped.
    fn build_system(&self, seed: u64) -> System {
        let mut system = if self.rtos_heartbeat {
            System::new_with_heartbeat(Arc::clone(&self.script))
        } else {
            System::new(Arc::clone(&self.script))
        };
        if let Some(spec) = &self.spec {
            system.install_injector(Arc::clone(spec), seed);
        }
        if let Some(mem_spec) = &self.mem_spec {
            system.install_mem_injector(Arc::clone(mem_spec), seed.wrapping_add(MEM_SEED_OFFSET));
        }
        system
    }

    /// Assembles the trial result from a classified report.
    fn result(seed: u64, report: RunReport) -> TrialResult {
        TrialResult {
            seed,
            outcome: report.outcome,
            injection_count: report.injections.len(),
            mem_injection_count: report.mem_injections.iter().filter(|r| r.applied()).count(),
            report,
        }
    }

    /// The step at which an injection window first opens: the earliest
    /// window start across both specs (a spec with no windows is armed
    /// from step 0). Steps before it are the trial's steady-state
    /// phase; with no injector at all the whole run is steady state.
    fn injection_open_step(&self) -> u64 {
        let spec_open = |windows: &[crate::spec::InjectionWindow]| {
            windows.iter().map(|w| w.start).min().unwrap_or(0)
        };
        let reg = self.spec.as_ref().map(|s| spec_open(&s.windows));
        let mem = self.mem_spec.as_ref().map(|s| spec_open(&s.windows));
        match (reg, mem) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => self.steps,
        }
        .min(self.steps)
    }

    /// Starts one seeded trial, with a fresh flight recorder of
    /// `capacity` events attached when traced: at step 0 while the
    /// pristine prefix `P` is unknown or 0, otherwise at step `P` —
    /// restored from the snapshot, or run there and saved as the
    /// snapshot when there is none yet.
    fn start(&self, seed: u64, capacity: Option<usize>) -> System {
        let prefix = self.prefix.steps.get().copied().filter(|&p| p > 0);
        if let Some(snapshot) = prefix.and_then(|_| self.prefix.snapshot(capacity)) {
            let mut system = System::clone(&snapshot);
            system.reseed_injectors(seed, seed.wrapping_add(MEM_SEED_OFFSET));
            return system;
        }
        let mut system = self.build_system(seed);
        if let Some(capacity) = capacity {
            system.set_tracer(TraceLog::new(capacity));
        }
        if let Some(p) = prefix {
            system.run(p);
            self.prefix.save(capacity, system.pristine_snapshot());
        }
        system
    }

    /// Runs a started trial to the end of its step budget. The first
    /// trial to get there teaches the runner its pristine prefix.
    fn finish(&self, system: &mut System) {
        system.run(self.steps - system.steps_run());
        self.prefix.steps.get_or_init(|| {
            system
                .seed_free_steps()
                .unwrap_or(self.steps)
                .min(self.steps)
        });
    }

    /// The pristine prefix `P` this runner has learned, once one of its
    /// trials has run to the end (see the type docs).
    pub fn pristine_prefix(&self) -> Option<u64> {
        self.prefix.steps.get().copied()
    }

    /// Runs one seeded trial, observing what `probe` asks for — the one
    /// path every trial of every engine takes.
    ///
    /// With an empty probe the trial runs and nothing else does: no
    /// clock read, no recorder anywhere in the stack. The probe's
    /// observations compose, and none changes the result, CSV row or
    /// dump (pinned by `tests/hotpath_equivalence.rs`):
    ///
    /// - A clock times the trial's phases into [`Probe::phases`]. The
    ///   split leans on `System::run` being a plain incremental step
    ///   loop: `run(a); run(b)` is `run(a + b)`, so timing the run in
    ///   two slices cannot perturb the trial. A trial restored at the
    ///   pristine prefix counts the copy as boot and starts steady
    ///   state at step `P`.
    /// - A [`TraceConfig`] attaches a flight recorder: every component
    ///   records causal events into one bounded ring, a final
    ///   [`TraceKind::ClassifyVerdict`] event stamps the outcome, and
    ///   the ring is captured into [`Probe::dump`] for *every* traced
    ///   trial; a campaign's [`crate::DumpPolicy`] decides which dumps
    ///   reach the sink. With `policy.on_panic` set, a panic inside the
    ///   trial prints the ring as JSON to stderr before the unwind
    ///   resumes — the trial that kills a worker process explains
    ///   itself on the way down.
    pub fn run(&self, seed: u64, probe: &mut Probe<'_>) -> TrialResult {
        let clock = probe.clock;
        let now = || clock.map_or(0, |clock| clock.now_ns());
        let t0 = now();
        let mut system = self.start(seed, probe.trace.map(|config| config.capacity));
        let t1 = now();
        if clock.is_some() {
            let start = system.steps_run();
            system.run(self.injection_open_step().max(start) - start);
        }
        let t2 = now();
        let finish = |system: &mut System| {
            self.finish(system);
            let t3 = now();
            (classify(system), t3)
        };
        let (report, t3) = match probe.trace {
            Some(config) if config.policy.on_panic => {
                let log = system
                    .tracer()
                    .expect("a traced trial starts with a recorder")
                    .clone();
                catch_unwind(AssertUnwindSafe(|| finish(&mut system))).unwrap_or_else(|payload| {
                    eprintln!("{}", self.panic_ring_json(seed, &log));
                    resume_unwind(payload)
                })
            }
            _ => finish(&mut system),
        };
        let outcome = report.outcome;
        let trial = Self::result(seed, report);
        let t4 = now();
        probe.phases = clock.map(|_| PhaseSample {
            boot_ns: t1.saturating_sub(t0),
            steady_ns: t2.saturating_sub(t1),
            injection_ns: t3.saturating_sub(t2),
            classify_ns: t4.saturating_sub(t3),
        });
        probe.dump = probe.trace.and(system.tracer()).map(|log| {
            log.record(TraceEvent {
                step: system.machine.now(),
                cpu: NO_CPU,
                kind: TraceKind::ClassifyVerdict,
                arg_a: Outcome::ALL.iter().position(|o| *o == outcome).unwrap_or(0) as u64,
                arg_b: 0,
            });
            TraceDump::capture(log, seed, &self.name, outcome)
        });
        trial
    }

    /// A panicking traced trial's ring as JSON, printed to stderr
    /// before the unwind resumes.
    fn panic_ring_json(&self, seed: u64, log: &TraceLog) -> String {
        let mut events = String::new();
        write_events_json(&log.snapshot(), &mut events);
        Json::obj([
            ("seed", Json::U64(seed)),
            ("scenario", Json::str(self.name.to_string())),
            ("panicked", Json::Bool(true)),
            ("total", Json::U64(log.total())),
            ("dropped", Json::U64(log.dropped())),
            ("events", Json::Raw(events)),
        ])
        .render()
    }

    /// Runs one seeded trial: [`TrialRunner::run`] with an empty probe.
    pub fn run_trial(&self, seed: u64) -> TrialResult {
        self.run(seed, &mut Probe::default())
    }

    /// Runs one seeded trial with a flight recorder when `config` is
    /// set: [`TrialRunner::run`] with a trace probe. `config: None` is
    /// exactly [`TrialRunner::run_trial`].
    pub fn run_trial_traced(
        &self,
        seed: u64,
        config: Option<&TraceConfig>,
    ) -> (TrialResult, Option<TraceDump>) {
        let mut probe = Probe {
            trace: config,
            ..Probe::default()
        };
        (self.run(seed, &mut probe), probe.dump)
    }
}

/// What one [`TrialRunner::run`] observes beyond the trial's result:
/// the inputs pick the observations, the outputs carry them back, and
/// the two kinds compose. `Probe::default()` observes nothing.
#[derive(Default)]
pub struct Probe<'a> {
    /// In: the clock to time the trial's phases on.
    pub clock: Option<&'a dyn Clock>,
    /// In: the flight-recorder configuration to trace the trial with.
    pub trace: Option<&'a TraceConfig>,
    /// Out: the trial's phase timings, set when `clock` is.
    pub phases: Option<PhaseSample>,
    /// Out: the trial's flight-recorder dump, set when `trace` is.
    pub dump: Option<TraceDump>,
}

/// One trial's result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialResult {
    /// The trial's RNG seed.
    pub seed: u64,
    /// The classified outcome.
    pub outcome: Outcome,
    /// Number of register injections that fired.
    pub injection_count: usize,
    /// Number of memory injections that were applied.
    pub mem_injection_count: usize,
    /// The full classified report.
    pub report: RunReport,
}

impl TrialResult {
    /// The trial as a JSON value (via [`crate::json`]): seed, outcome,
    /// injection counts and the full [`RunReport::to_json`] report.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("seed", Json::U64(self.seed)),
            ("outcome", Json::str(self.outcome.to_string())),
            ("injection_count", Json::U64(self.injection_count as u64)),
            (
                "mem_injection_count",
                Json::U64(self.mem_injection_count as u64),
            ),
            ("report", self.report.to_json()),
        ])
    }
}

/// A campaign: `trials` seeded runs of one scenario.
#[derive(Debug, Clone)]
pub struct Campaign {
    scenario: Scenario,
    trials: usize,
    base_seed: u64,
    certificate: Option<Arc<ScenarioCertificate>>,
    trace: Option<TraceConfig>,
}

impl Campaign {
    /// Creates a campaign of `trials` runs seeded `base_seed + i`.
    pub fn new(scenario: Scenario, trials: usize, base_seed: u64) -> Campaign {
        Campaign {
            scenario,
            trials,
            base_seed,
            certificate: None,
            trace: None,
        }
    }

    /// Attaches a pre-flight certificate (builder style). Debug builds
    /// then assert every trial of every engine against it — predicted
    /// outcomes, injection budgets and tracked regions — turning a
    /// certificate/engine disagreement into an immediate panic instead
    /// of a silent mis-prediction.
    pub fn with_certificate(mut self, certificate: Arc<ScenarioCertificate>) -> Campaign {
        self.certificate = Some(certificate);
        self
    }

    /// The attached pre-flight certificate, if any.
    pub fn certificate(&self) -> Option<&Arc<ScenarioCertificate>> {
        self.certificate.as_ref()
    }

    /// Attaches a tracing configuration (builder style): every trial
    /// runs with a flight recorder, and trials matching the config's
    /// [`crate::DumpPolicy`] deliver a [`TraceDump`] to the sink via
    /// [`TrialSink::accept_dump`] right after their
    /// [`TrialSink::accept`].
    ///
    /// Tracing never changes trial results, sink rows or stats — the
    /// observability law, pinned by `tests/hotpath_equivalence.rs` and
    /// `tests/determinism.rs` — and it composes with telemetry: an
    /// observed traced run records both causal events and phase
    /// timings.
    pub fn with_trace(mut self, config: TraceConfig) -> Campaign {
        self.trace = Some(config);
        self
    }

    /// The attached tracing configuration, if any.
    pub fn trace(&self) -> Option<&TraceConfig> {
        self.trace.as_ref()
    }

    /// Whether `trial`'s dump should reach the sink: its outcome is in
    /// the policy's set, or it violates the attached certificate and
    /// the policy dumps on conformance violations.
    fn should_dump(&self, trial: &TrialResult) -> bool {
        let Some(config) = &self.trace else {
            return false;
        };
        if config.policy.wants(trial.outcome) {
            return true;
        }
        if config.policy.on_conformance_violation {
            if let Some(certificate) = &self.certificate {
                return !certificate.check_trial(trial).is_empty();
            }
        }
        false
    }

    /// The scenario under test.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Total number of trials in this campaign.
    pub fn trials(&self) -> usize {
        self.trials
    }

    /// The base seed: trial `i` runs with seed `base_seed + i`.
    pub fn base_seed(&self) -> u64 {
        self.base_seed
    }

    /// Runs all trials on the calling thread, buffering every report:
    /// a [`CollectSink`] over [`Campaign::execute`].
    pub fn run(&self) -> CampaignResult {
        self.run_parallel(1)
    }

    /// Runs all trials across `workers` threads, buffering every
    /// report: a [`CollectSink`] over [`Campaign::execute`]. The
    /// returned trials are in seed order and bit-identical to
    /// [`Campaign::run`], whatever the worker count or OS scheduling.
    pub fn run_parallel(&self, workers: usize) -> CampaignResult {
        let mut sink = CollectSink::new();
        self.execute(.., workers, &mut sink, None);
        CampaignResult {
            scenario_name: self.scenario.name.clone(),
            trials: sink.into_trials(),
        }
    }

    /// Runs all trials on the calling thread, streaming them to `sink`:
    /// [`Campaign::execute`] with one worker.
    pub fn run_streamed<S: TrialSink + ?Sized>(&self, sink: &mut S) -> CampaignStats {
        self.execute(.., 1, sink, None).0
    }

    /// Runs all trials across `workers` threads, streaming them to
    /// `sink`: [`Campaign::execute`] with its reorder high-water mark.
    pub fn run_parallel_streamed_instrumented<S: TrialSink + ?Sized>(
        &self,
        workers: usize,
        sink: &mut S,
    ) -> (CampaignStats, usize) {
        self.execute(.., workers, sink, None)
    }

    /// Runs the trials of `range` (trial indices; `..` is the whole
    /// campaign) across `workers` threads, delivering each report to
    /// `sink` under its global sequence number, in seed order, and
    /// folding it into the returned [`CampaignStats`]. The second
    /// element is the high-water mark of completed-but-undelivered
    /// reports, at most `workers` (clamped to the range's length).
    ///
    /// This is the one engine behind every run method and the shard
    /// worker. The calling thread is worker 0 and spawns `workers − 1`
    /// helpers, so `workers = 1` runs every trial inline on the caller,
    /// with no thread. Workers claim trial indices in order, but a
    /// trial may only *start* once it is fewer than `workers` past the
    /// delivery front — a window that, with the reorder buffer the
    /// caller drains in seed order, holds at most `workers` undelivered
    /// [`TrialResult`]s however large the campaign. The caller claims a
    /// trial only when the next one to deliver is not yet buffered.
    ///
    /// Trial `i` is seeded `base_seed + i` and independent of every
    /// other trial, so deliveries and stats do not depend on `workers`
    /// or OS scheduling, concatenating the deliveries of a partition of
    /// the campaign reproduces the full run, and merging the per-range
    /// stats (in any order) with [`CampaignStats::merge`] reproduces
    /// the full-run stats.
    ///
    /// With `telemetry`, every trial's phase timings fold into
    /// `telemetry.metrics` and the caller emits a progress snapshot to
    /// `telemetry.progress` every `progress_every` deliveries plus a
    /// final one. Telemetry is write-only: deliveries and stats are
    /// bit-identical to an unobserved run, whatever clock is plugged in.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the campaign's trial count, and
    /// re-raises a panic from a trial or the sink once every thread
    /// has stopped.
    pub fn execute<S: TrialSink + ?Sized>(
        &self,
        range: impl RangeBounds<usize>,
        workers: usize,
        sink: &mut S,
        mut telemetry: Option<&mut EngineTelemetry<'_>>,
    ) -> (CampaignStats, usize) {
        let first = match range.start_bound() {
            Bound::Included(&i) => i,
            Bound::Excluded(&i) => i.checked_add(1).expect("trial range overflows"),
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&i) => i.checked_add(1).expect("trial range overflows"),
            Bound::Excluded(&i) => i,
            Bound::Unbounded => self.trials,
        };
        assert!(
            first <= end && end <= self.trials,
            "trial range [{first}, {end}) exceeds campaign size {}",
            self.trials
        );
        let len = end - first;
        let workers = workers.max(1).min(len.max(1));
        // Copy the clock reference out (it is `&'a dyn Clock`, Copy) so
        // helpers can read it without borrowing the bundle the caller
        // mutates.
        let clock = telemetry.as_ref().map(|t| t.clock);
        let runner = self.scenario.runner();
        // Runs trial `first + i`; observed runs fold its phase timings
        // into the worker's own metrics, merged once at exit, so the
        // trial hot path takes no lock for them.
        let run = |i: usize, local: &mut EngineMetrics| {
            let mut probe = Probe {
                clock: clock.map(|clock| clock as &dyn Clock),
                trace: self.trace.as_ref(),
                ..Probe::default()
            };
            let trial = runner.run(self.base_seed + (first + i) as u64, &mut probe);
            if let Some(sample) = probe.phases {
                local.trials.inc();
                local.phases.record(&sample);
            }
            (trial, probe.dump)
        };
        let folded = Mutex::new(EngineMetrics::default());
        let mut stats = CampaignStats::new(self.scenario.name.clone());
        let shared = Mutex::new(Reorder {
            next: 0,
            delivered: 0,
            buffer: BTreeMap::new(),
            undelivered: 0,
            high_water: 0,
            aborted: false,
        });
        // The caller waits on `ready` for the next in-order report;
        // helpers wait on `space` for the delivery window to open.
        let ready = Condvar::new();
        let space = Condvar::new();

        std::thread::scope(|scope| {
            for _ in 1..workers {
                let (run, shared, ready, space, folded) = (&run, &shared, &ready, &space, &folded);
                scope.spawn(move || {
                    // On panic (poisoned lock or unwind mid-trial), wake
                    // everyone so the scope can tear down instead of
                    // deadlocking.
                    let _guard = AbortGuard {
                        shared,
                        ready,
                        space,
                    };
                    let mut local = EngineMetrics::default();
                    loop {
                        let i = {
                            let mut state = shared.lock().expect("campaign engine lock");
                            if state.aborted || state.next >= len {
                                break;
                            }
                            let i = state.next;
                            state.next += 1;
                            while !state.aborted && i >= state.delivered + workers {
                                state = space.wait(state).expect("campaign engine lock");
                            }
                            if state.aborted {
                                break;
                            }
                            i
                        };
                        let done = run(i, &mut local);
                        let mut state = shared.lock().expect("campaign engine lock");
                        state.undelivered += 1;
                        state.high_water = state.high_water.max(state.undelivered);
                        state.buffer.insert(i, done);
                        drop(state);
                        ready.notify_all();
                    }
                    folded
                        .lock()
                        .expect("campaign telemetry lock")
                        .merge(&local);
                });
            }

            // The caller is worker 0 and the only consumer: deliver the
            // next trial in seed order once it is buffered, run a trial
            // itself while the window allows, and wait otherwise.
            let _guard = AbortGuard {
                shared: &shared,
                ready: &ready,
                space: &space,
            };
            let tracker = clock.map(|clock| ProgressTracker::new(clock, None, len as u64));
            #[cfg(debug_assertions)]
            let prediction = self.skip_prediction();
            let mut local = EngineMetrics::default();
            let mut state = shared.lock().expect("campaign engine lock");
            while state.delivered < len {
                assert!(!state.aborted, "campaign worker panicked");
                let i = state.delivered;
                let (trial, dump) = if let Some(done) = state.buffer.remove(&i) {
                    done
                } else if state.next < len && state.next < i + workers {
                    let mine = state.next;
                    state.next += 1;
                    drop(state);
                    let done = run(mine, &mut local);
                    state = shared.lock().expect("campaign engine lock");
                    state.undelivered += 1;
                    state.high_water = state.high_water.max(state.undelivered);
                    if mine != i {
                        state.buffer.insert(mine, done);
                        continue;
                    }
                    done
                } else {
                    state = ready.wait(state).expect("campaign engine lock");
                    continue;
                };
                drop(state);
                #[cfg(debug_assertions)]
                self.assert_trial_invariants(prediction.as_ref(), &trial);
                self.deliver(first + i, trial, dump, &mut stats, sink);
                if let (Some(telemetry), Some(tracker)) = (telemetry.as_deref_mut(), &tracker) {
                    let done = i + 1;
                    let due = done.is_multiple_of(telemetry.progress_every);
                    if due || done == len {
                        let snapshot =
                            tracker.snapshot(done as u64, outcome_rows(&stats.distribution));
                        telemetry.progress.on_progress(&snapshot);
                    }
                }
                state = shared.lock().expect("campaign engine lock");
                state.undelivered -= 1;
                state.delivered += 1;
                space.notify_all();
            }
            drop(state);
            folded
                .lock()
                .expect("campaign telemetry lock")
                .merge(&local);
        });

        let high_water = shared
            .into_inner()
            .expect("campaign engine lock")
            .high_water;
        if let Some(telemetry) = telemetry {
            telemetry
                .metrics
                .merge(&folded.into_inner().expect("campaign telemetry lock"));
            telemetry.metrics.reorder_residency.set(high_water as u64);
            telemetry.metrics.sink_rows.add(len as u64);
            if let Some(bytes) = sink.bytes_written() {
                telemetry.metrics.sink_bytes.add(bytes);
            }
        }
        (stats, high_water)
    }

    /// Delivers one finished trial: folds it into `stats`, hands the
    /// row to `sink`, then the dump if the policy keeps it.
    fn deliver<S: TrialSink + ?Sized>(
        &self,
        seq: usize,
        trial: TrialResult,
        dump: Option<TraceDump>,
        stats: &mut CampaignStats,
        sink: &mut S,
    ) {
        stats.record(&trial);
        let kept = dump.filter(|_| self.should_dump(&trial));
        sink.accept(seq, trial);
        if let Some(dump) = kept {
            sink.accept_dump(seq, dump);
        }
    }

    /// The static skip analysis of the scenario's memory spec, if any.
    #[cfg(debug_assertions)]
    fn skip_prediction(&self) -> Option<crate::memfault::SkipPrediction> {
        self.scenario
            .mem_spec
            .as_ref()
            .map(MemorySpec::skip_prediction)
    }

    /// The debug-build invariants asserted on each trial before it is
    /// delivered: skips the static analysis predicted, and conformance
    /// to the attached certificate.
    #[cfg(debug_assertions)]
    fn assert_trial_invariants(
        &self,
        prediction: Option<&crate::memfault::SkipPrediction>,
        trial: &TrialResult,
    ) {
        assert_skips_predicted(prediction, trial);
        assert_certificate_conformance(self.certificate.as_deref(), trial);
    }
}

/// Debug-build cross-check of the static skip analysis: every skipped
/// memory injection recorded by a trial must have been predicted as
/// *possible* by [`crate::memfault::SkipPrediction`] — if the linter
/// says a spec cannot skip, the engine holds it to that.
#[cfg(debug_assertions)]
fn assert_skips_predicted(
    prediction: Option<&crate::memfault::SkipPrediction>,
    trial: &TrialResult,
) {
    for record in &trial.report.mem_injections {
        let Some(reason) = &record.skipped else {
            continue;
        };
        let prediction = prediction.expect("a skip was recorded without a memory spec");
        assert!(
            prediction.predicts(reason),
            "trial {} skipped an injection ({reason}) the static analysis ruled out",
            trial.seed
        );
    }
}

/// Debug-build certificate conformance: every trial of a campaign
/// with an attached [`ScenarioCertificate`] must land inside its
/// predicted outcome set, injection budgets and tracked regions.
#[cfg(debug_assertions)]
fn assert_certificate_conformance(certificate: Option<&ScenarioCertificate>, trial: &TrialResult) {
    let Some(certificate) = certificate else {
        return;
    };
    let violations = certificate.check_trial(trial);
    assert!(
        violations.is_empty(),
        "trial {} violates the scenario certificate: {}",
        trial.seed,
        violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("; ")
    );
}

/// Shared state of [`Campaign::execute`], in trial indices relative to
/// the range: an in-order index queue plus the reorder buffer the
/// caller drains in seed order.
struct Reorder {
    /// Next trial index to hand to a worker.
    next: usize,
    /// Trials already delivered to the sink.
    delivered: usize,
    /// Completed trials (with their optional trace dump) waiting for
    /// their turn at the sink.
    buffer: BTreeMap<usize, (TrialResult, Option<TraceDump>)>,
    /// Completed-but-undelivered reports (buffer plus the one the
    /// caller is currently handing to the sink).
    undelivered: usize,
    /// High-water mark of `undelivered`.
    high_water: usize,
    /// A thread panicked; everyone should stop.
    aborted: bool,
}

/// Wakes all engine threads if the owning thread unwinds, so a panic
/// in a trial or in the sink tears the scope down instead of leaving
/// the other side blocked on a condvar forever.
struct AbortGuard<'a> {
    shared: &'a Mutex<Reorder>,
    ready: &'a Condvar,
    space: &'a Condvar,
}

impl Drop for AbortGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            if let Ok(mut state) = self.shared.lock() {
                state.aborted = true;
            }
            self.ready.notify_all();
            self.space.notify_all();
        }
    }
}

/// Aggregated campaign outcomes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignResult {
    /// The scenario that was run.
    pub scenario_name: String,
    /// All trial results, in seed order.
    pub trials: Vec<TrialResult>,
}

impl CampaignResult {
    /// Folds the buffered trials into the same [`CampaignStats`] a
    /// streamed run of identical seeds returns.
    pub fn stats(&self) -> CampaignStats {
        let mut stats = CampaignStats::new(self.scenario_name.clone());
        for trial in &self.trials {
            stats.record(trial);
        }
        stats
    }

    /// Outcome histogram.
    pub fn distribution(&self) -> BTreeMap<Outcome, usize> {
        let mut map = BTreeMap::new();
        for trial in &self.trials {
            *map.entry(trial.outcome).or_insert(0) += 1;
        }
        map
    }

    /// Fraction of trials with the given outcome. For several
    /// fractions at once, fold [`CampaignResult::stats`] (or
    /// [`CampaignResult::distribution`]) once and derive them from the
    /// histogram instead of re-scanning the trials per outcome.
    pub fn fraction(&self, outcome: Outcome) -> f64 {
        if self.trials.is_empty() {
            return 0.0;
        }
        let count = self.trials.iter().filter(|t| t.outcome == outcome).count();
        count as f64 / self.trials.len() as f64
    }

    /// Trials that experienced at least one injection.
    pub fn injected_trials(&self) -> usize {
        self.trials.iter().filter(|t| t.injection_count > 0).count()
    }

    /// Trials that had at least one memory injection applied.
    pub fn mem_injected_trials(&self) -> usize {
        self.trials
            .iter()
            .filter(|t| t.mem_injection_count > 0)
            .count()
    }

    /// Per-region outcome distribution of a memory-fault campaign:
    /// each trial's outcome is attributed to every region it applied
    /// at least one memory fault in. (A targeted pass; for several
    /// aggregates at once, fold [`CampaignResult::stats`] instead.)
    pub fn mem_region_distribution(&self) -> BTreeMap<(crate::MemRegionKind, Outcome), usize> {
        let mut map = BTreeMap::new();
        for trial in &self.trials {
            CampaignStats::attribute_regions(trial, &mut map);
        }
        map
    }

    /// The buffered campaign as a JSON value: the scenario name and
    /// every trial through [`TrialResult::to_json`], in seed order.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("scenario", Json::str(self.scenario_name.clone())),
            (
                "trials",
                Json::Arr(self.trials.iter().map(TrialResult::to_json).collect()),
            ),
        ])
    }
}

impl fmt::Display for CampaignResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // One fold over the trials; fractions derive from the
        // histogram (the old per-outcome `fraction` calls re-scanned
        // every trial once per outcome).
        self.stats().fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_ring_json_shares_the_dump_event_writer() {
        let log = TraceLog::new(2);
        for step in 1..=3u64 {
            log.record(TraceEvent {
                step,
                cpu: if step == 3 { NO_CPU } else { 1 },
                kind: TraceKind::TrapTaken,
                arg_a: step,
                arg_b: u64::MAX,
            });
        }
        let runner = Scenario::golden(800).runner();
        let dump = TraceDump::capture(&log, 9, &runner.name, Outcome::Correct).to_json();
        let dump = dump.render();
        let events = &dump[dump.find(",\"events\":").expect("dump has events")..];
        assert_eq!(
            runner.panic_ring_json(9, &log),
            format!(
                "{{\"seed\":9,\"scenario\":\"{}\",\"panicked\":true,\"total\":3,\"dropped\":1{events}",
                runner.name
            )
        );
    }

    #[test]
    fn golden_campaign_is_all_correct() {
        let campaign = Campaign::new(Scenario::golden(1500), 2, 1);
        let result = campaign.run();
        assert_eq!(result.trials.len(), 2);
        for trial in &result.trials {
            assert_eq!(trial.outcome, Outcome::Correct);
            assert_eq!(trial.injection_count, 0);
        }
        assert_eq!(result.fraction(Outcome::Correct), 1.0);
    }

    #[test]
    fn e1_trials_always_reject_cleanly() {
        let campaign = Campaign::new(Scenario::e1_root_high(), 4, 100);
        let result = campaign.run();
        for trial in &result.trials {
            assert_eq!(
                trial.outcome,
                Outcome::InvalidArguments,
                "seed {}: {}",
                trial.seed,
                trial.report
            );
            assert!(trial.injection_count >= 1, "injection did not fire");
        }
    }

    #[test]
    fn parallel_equals_sequential() {
        let campaign = Campaign::new(Scenario::e1_root_high(), 4, 7);
        let seq = campaign.run();
        let par = campaign.run_parallel(4);
        let seq_outcomes: Vec<Outcome> = seq.trials.iter().map(|t| t.outcome).collect();
        let par_outcomes: Vec<Outcome> = par.trials.iter().map(|t| t.outcome).collect();
        assert_eq!(seq_outcomes, par_outcomes);
    }

    #[test]
    fn distribution_sums_to_trials() {
        let campaign = Campaign::new(Scenario::golden(800), 3, 3);
        let result = campaign.run();
        let total: usize = result.distribution().values().sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn e6_campaign_applies_memory_faults_across_regions() {
        let campaign = Campaign::new(
            Scenario::e6_memory(MemFaultModel::SingleBitFlip, MemTarget::e6()),
            6,
            0xE6,
        );
        let result = campaign.run_parallel(4);
        assert!(result.mem_injected_trials() > 0, "no trial applied faults");
        assert_eq!(result.injected_trials(), 0, "no register injector in E6");
        let by_region = result.mem_region_distribution();
        assert!(!by_region.is_empty());
        let attributed: usize = by_region.values().sum();
        assert!(attributed >= result.mem_injected_trials());
    }

    #[test]
    fn mixed_campaign_runs_both_injectors() {
        let campaign = Campaign::new(Scenario::e7_mixed(), 4, 0xE7);
        let result = campaign.run();
        assert!(result.injected_trials() > 0, "register injector silent");
        assert!(result.mem_injected_trials() > 0, "memory injector silent");
    }

    #[test]
    fn range_runs_concatenate_to_the_full_run() {
        use certify_obs::{CollectObserver, ManualClock};

        let campaign = Campaign::new(Scenario::e1_root_high(), 5, 30);
        let mut full = Vec::new();
        let full_stats = campaign.run_streamed(&mut |seq: usize, t: TrialResult| {
            full.push((seq, t));
        });
        for workers in [1, 3] {
            let mut pieces = Vec::new();
            let mut merged = CampaignStats::new(campaign.scenario().name.clone());
            for range in [0..2, 2..4, 4..5] {
                let len = range.len();
                let clock = ManualClock::new();
                let mut observer = CollectObserver::default();
                let mut telemetry = EngineTelemetry::new(&clock, &mut observer, 1);
                let (stats, high_water) = campaign.execute(
                    range,
                    workers,
                    &mut |seq: usize, t: TrialResult| pieces.push((seq, t)),
                    Some(&mut telemetry),
                );
                assert!(high_water <= workers, "x{workers}: high water {high_water}");
                let last = observer.snapshots.last().expect("a final snapshot");
                assert_eq!(last.done, len as u64, "x{workers}: final snapshot");
                merged.merge(&stats);
            }
            assert_eq!(pieces, full, "x{workers}: concatenated ranges diverged");
            assert_eq!(
                merged, full_stats,
                "x{workers}: merged range stats diverged"
            );
        }
    }

    #[test]
    #[should_panic(expected = "exceeds campaign size")]
    fn out_of_bounds_range_is_rejected() {
        let campaign = Campaign::new(Scenario::golden(400), 3, 1);
        campaign.execute(2..4, 1, &mut crate::sink::NullSink, None);
    }

    /// A sink that panics on its third row must make `execute` panic —
    /// on the caller, with helpers blocked on the window or mid-trial —
    /// never hang. The run happens on a watched thread, so a hang fails
    /// the test at the timeout instead of wedging the suite.
    #[test]
    fn a_panicking_sink_aborts_the_engine_without_hanging() {
        use std::sync::mpsc;
        use std::time::Duration;

        for workers in [1, 2, 4] {
            let (tx, rx) = mpsc::channel();
            let watched = std::thread::spawn(move || {
                let campaign = Campaign::new(Scenario::golden(200), 8, 1);
                let mut rows = 0;
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    campaign.execute(
                        ..,
                        workers,
                        &mut |_seq: usize, _t: TrialResult| {
                            rows += 1;
                            assert!(rows < 3, "sink failed on row {rows}");
                        },
                        None,
                    )
                }));
                let _ = tx.send(outcome.is_err());
            });
            let panicked = rx
                .recv_timeout(Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("x{workers}: the engine hung after a sink panic"));
            assert!(panicked, "x{workers}: the sink panic was swallowed");
            watched
                .join()
                .expect("the watched run reports, it does not panic");
        }
    }

    #[test]
    fn predicted_skips_pass_the_debug_assertion() {
        // A hole-region target guarantees OutOfRange skips; the
        // prediction marks them possible, so the run's debug
        // assertion accepts every one of them.
        let scenario = Scenario::e6_memory(
            MemFaultModel::SingleBitFlip,
            MemTarget::only(crate::MemRegionKind::Custom {
                base: 0x1000_0000,
                size: 0x1000,
            }),
        );
        let stats = Campaign::new(scenario, 2, 5).run_streamed(&mut crate::sink::NullSink);
        assert_eq!(stats.trials, 2);
        assert_eq!(stats.mem_injected_trials, 0, "every injection skipped");
    }

    /// A certificate that rules out every outcome: any trial violates
    /// it.
    #[cfg(debug_assertions)]
    fn impossible_certificate() -> Arc<ScenarioCertificate> {
        Arc::new(ScenarioCertificate {
            scenario_name: "golden".into(),
            cell_reachable: true,
            script_steps: None,
            outcomes: Default::default(),
            reg_budget: None,
            mem_budget: None,
            tracked_regions: Default::default(),
            reg_phases: Vec::new(),
            mem_phases: Vec::new(),
        })
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "violates the scenario certificate")]
    fn sequential_engine_asserts_certificate_conformance() {
        Campaign::new(Scenario::golden(400), 2, 1)
            .with_certificate(impossible_certificate())
            .run_streamed(&mut crate::sink::NullSink);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "violates the scenario certificate")]
    fn parallel_engine_asserts_certificate_conformance() {
        Campaign::new(Scenario::golden(400), 4, 1)
            .with_certificate(impossible_certificate())
            .execute(.., 2, &mut crate::sink::NullSink, None);
    }

    #[test]
    fn mixed_parallel_equals_sequential() {
        let campaign = Campaign::new(Scenario::e7_mixed(), 4, 21);
        assert_eq!(campaign.run(), campaign.run_parallel(4));
    }
}

//! Hot-path overhaul equivalence suite.
//!
//! The trial hot path was rebuilt around incremental state — the
//! UART's line index, the hypervisor's online [`Evidence`] counters
//! and the RTOS kernel's ready lists — in place of per-trial scans.
//! This suite pins the refactor to the historical semantics:
//!
//! * the O(1) evidence counters must agree with a from-scratch scan
//!   of the structured event trace, for every trial of golden, E2,
//!   E3, E6 and mixed E7 campaigns;
//! * classification built on those counters must hand back the same
//!   `RunReport`s / `CampaignStats` through the buffered and streamed
//!   engines, and the streamed CSV must stay byte-identical to the
//!   buffered render;
//! * the UART's incremental line index must reproduce a naive
//!   byte-at-a-time reassembly of real trial captures;
//! * the E3 distribution at the bench seed keeps its committed shape
//!   (55 panic park / 16 cpu park / 79 correct at 0xD52022);
//! * telemetry is inert: an instrumented run (`certify_obs` clock,
//!   metrics and progress snapshots) produces the same stats and the
//!   same CSV bytes as the uninstrumented engine;
//! * restoring a trial from the runner's pristine-prefix snapshot is a
//!   from-scratch run: the same `TrialResult`, CSV row and trace-dump
//!   JSON as a `System` built from public calls, for every built-in
//!   scenario, traced and untraced, through the runner and the
//!   parallel engine.

use certify_analysis::{campaign_to_csv, CsvSink};
use certify_core::campaign::{Campaign, Scenario};
use certify_core::classify::{classify, Outcome};
use certify_core::system::System;
use certify_core::NullSink;
use certify_uncertified::arch::cpu::ParkReason;
use certify_uncertified::arch::CpuId;
use certify_uncertified::hypervisor::HvEvent;
use std::sync::Arc;

/// The scenarios the issue calls out, in cheap-to-run shapes.
fn scenarios() -> Vec<(Scenario, usize)> {
    use certify_core::memfault::{MemFaultModel, MemTarget};
    vec![
        (Scenario::golden(1500), 2),
        (Scenario::e2_boot_window(), 6),
        (Scenario::e3_fig3(), 8),
        (
            Scenario::e6_memory(MemFaultModel::SingleBitFlip, MemTarget::e6()),
            6,
        ),
        (Scenario::e7_mixed(), 6),
    ]
}

/// Runs one seeded trial of `scenario`, returning the live `System`
/// (the campaign engine classifies and drops it; the equivalence
/// checks need the carcass).
fn run_system(scenario: &Scenario, seed: u64) -> System {
    let script = Arc::new(scenario.script.clone());
    let mut system = if scenario.rtos_heartbeat {
        System::new_with_heartbeat(script)
    } else {
        System::new(script)
    };
    if let Some(spec) = &scenario.spec {
        system.install_injector(spec.clone(), seed);
    }
    if let Some(mem_spec) = &scenario.mem_spec {
        // Matches `TrialRunner`'s MEM_SEED_OFFSET derivation.
        system.install_mem_injector(mem_spec.clone(), seed.wrapping_add(0x6d65_6d66));
    }
    system.run(scenario.steps);
    system
}

/// Asserts the hypervisor's online evidence counters agree with a
/// from-scratch scan of the event trace — the queries `classify`
/// used to answer by iterating `hv.events()` four times.
fn assert_evidence_matches_event_scan(system: &System, context: &str) {
    let events = system.hv.events();
    let evidence = system.hv.evidence();

    for cpu in 0..system.machine.num_cpus() as u32 {
        let cpu = CpuId(cpu);
        let tally = evidence.park_tally(cpu);
        let scan = |pred: &dyn Fn(&ParkReason) -> bool| -> u64 {
            events
                .iter()
                .filter(|e| {
                    matches!(e, HvEvent::CpuParked { cpu: c, reason, .. }
                             if *c == cpu && pred(reason))
                })
                .count() as u64
        };
        assert_eq!(
            tally.unhandled_trap,
            scan(&|r| matches!(r, ParkReason::UnhandledTrap(_))),
            "{context}: unhandled-trap tally for {cpu}"
        );
        assert_eq!(
            tally.failed_online,
            scan(&|r| matches!(r, ParkReason::FailedOnline)),
            "{context}: failed-online tally for {cpu}"
        );
        assert_eq!(
            tally.idle,
            scan(&|r| matches!(r, ParkReason::Idle)),
            "{context}: idle tally for {cpu}"
        );
        assert_eq!(
            tally.cell_shutdown,
            scan(&|r| matches!(r, ParkReason::CellShutdown)),
            "{context}: cell-shutdown tally for {cpu}"
        );
        let first_trap = events.iter().find_map(|e| match e {
            HvEvent::CpuParked {
                cpu: c,
                reason: reason @ ParkReason::UnhandledTrap(_),
                ..
            } if *c == cpu => Some(*reason),
            _ => None,
        });
        assert_eq!(
            tally.first_unhandled_trap, first_trap,
            "{context}: first unhandled-trap reason for {cpu}"
        );
    }

    let violation_steps: Vec<u64> = events
        .iter()
        .filter_map(|e| match e {
            HvEvent::AccessViolation { step, .. } => Some(*step),
            _ => None,
        })
        .collect();
    assert_eq!(
        evidence.access_violations(),
        violation_steps.len(),
        "{context}: total access violations"
    );
    // The classifier queries violations since the first live table
    // fault; sweep representative cut points.
    let mut cuts = vec![0, u64::MAX];
    cuts.extend(violation_steps.iter().flat_map(|&s| [s, s + 1]));
    for cut in cuts {
        assert_eq!(
            evidence.violations_since(cut),
            violation_steps.iter().filter(|&&s| s >= cut).count(),
            "{context}: violations since step {cut}"
        );
    }
}

/// Naive byte-at-a-time reassembly of the serial capture — the
/// implementation the incremental line index replaced.
fn naive_lines(system: &System) -> Vec<(u64, String)> {
    let mut lines = Vec::new();
    let mut current = Vec::new();
    let mut last_step = 0;
    for tx in system.machine.uart.captured() {
        last_step = tx.step;
        if tx.byte == b'\n' {
            lines.push((last_step, String::from_utf8_lossy(&current).into_owned()));
            current.clear();
        } else {
            current.push(tx.byte);
        }
    }
    if !current.is_empty() {
        lines.push((last_step, String::from_utf8_lossy(&current).into_owned()));
    }
    lines
}

#[test]
fn evidence_counters_match_event_scans_across_scenarios() {
    for (scenario, trials) in scenarios() {
        for seq in 0..trials as u64 {
            let seed = 0xD5_2022 + seq;
            let system = run_system(&scenario, seed);
            let context = format!("{} seed {seed}", scenario.name);
            assert_evidence_matches_event_scan(&system, &context);
        }
    }
}

#[test]
fn uart_line_index_matches_naive_reassembly_on_real_captures() {
    for (scenario, _) in scenarios() {
        let system = run_system(&scenario, 0xD5_2022);
        let naive = naive_lines(&system);
        assert_eq!(
            system.serial_lines(),
            naive,
            "{}: owned lines diverged from naive reassembly",
            scenario.name
        );
        assert_eq!(
            system.machine.uart.line_count(),
            naive.len(),
            "{}: line_count",
            scenario.name
        );
        let borrowed: Vec<(u64, String)> = system
            .machine
            .uart
            .indexed_lines()
            .map(|l| (l.step, l.text().into_owned()))
            .collect();
        assert_eq!(
            borrowed, naive,
            "{}: borrowed lines diverged from naive reassembly",
            scenario.name
        );
        // classify's serial_line_count feeds the CSV; keep it honest.
        assert_eq!(classify(&system).serial_line_count, naive.len());
    }
}

#[test]
fn streamed_and_buffered_campaigns_agree_after_the_overhaul() {
    for (scenario, trials) in scenarios() {
        let campaign = Campaign::new(scenario, trials, 0xD5_2022);
        let buffered = campaign.run();
        let stats = campaign.run_streamed(&mut NullSink);
        assert_eq!(
            stats,
            buffered.stats(),
            "{}: streamed stats diverged",
            campaign.scenario().name
        );
        let mut sink = CsvSink::in_memory();
        let parallel_stats = campaign.execute(.., 4, &mut sink, None).0;
        assert_eq!(
            parallel_stats,
            stats,
            "{}: parallel streamed stats diverged",
            campaign.scenario().name
        );
        assert_eq!(
            sink.into_csv(),
            campaign_to_csv(&buffered),
            "{}: streamed CSV not byte-identical to buffered",
            campaign.scenario().name
        );
        // Same seeds through the engine and through a bare System
        // must classify identically (RunReport level).
        for trial in &buffered.trials {
            let system = run_system(campaign.scenario(), trial.seed);
            assert_eq!(
                classify(&system),
                trial.report,
                "{} seed {}: classify(report) diverged from engine",
                campaign.scenario().name,
                trial.seed
            );
        }
    }
}

/// The observability law: telemetry must never influence trial
/// results. An instrumented run — phase timings, engine metrics,
/// progress snapshots — must produce the *same stats, the same CSV
/// bytes and the same dumps* as the uninstrumented engine, for every
/// scenario shape, and it composes with tracing: an observed traced
/// run still samples every trial's phases.
#[test]
fn instrumented_runs_leave_results_and_csv_untouched() {
    use certify_core::{DumpPolicy, EngineTelemetry, TraceConfig};
    use certify_uncertified::obs::{CollectObserver, ManualClock};

    let traces = [
        None,
        Some(TraceConfig::new().with_policy(DumpPolicy::anomalies())),
    ];
    for (scenario, trials) in scenarios() {
        for trace in &traces {
            let mut campaign = Campaign::new(scenario.clone(), trials, 0xD5_2022);
            if let Some(config) = trace {
                campaign = campaign.with_trace(config.clone());
            }
            let name = format!("{} traced={}", scenario.name, trace.is_some());

            let mut plain_sink = CsvDumpSink::default();
            let plain_stats = campaign.execute(.., 4, &mut plain_sink, None).0;
            let plain_csv = plain_sink.csv.into_csv();

            let clock = ManualClock::new();
            let mut observer = CollectObserver::default();
            let mut telemetry = EngineTelemetry::new(&clock, &mut observer, 2);
            let mut observed_sink = CsvDumpSink::default();
            let observed_stats = campaign
                .execute(.., 4, &mut observed_sink, Some(&mut telemetry))
                .0;

            assert_eq!(observed_stats, plain_stats, "{name}: stats diverged");
            assert_eq!(
                observed_sink.dumps, plain_sink.dumps,
                "{name}: dumps diverged"
            );
            let observed_csv = observed_sink.csv.into_csv();
            assert_eq!(observed_csv, plain_csv, "{name}: CSV bytes diverged");

            // And the run must actually have been observed.
            let metrics = &telemetry.metrics;
            assert_eq!(metrics.trials.get(), trials as u64, "{name}: trial count");
            assert_eq!(
                metrics.phases.total.count(),
                trials as u64,
                "{name}: phase samples"
            );
            assert_eq!(metrics.sink_rows.get(), trials as u64, "{name}: sink rows");
            assert_eq!(
                metrics.sink_bytes.get(),
                plain_csv.len() as u64,
                "{name}: sink bytes"
            );
            let last = observer
                .snapshots
                .last()
                .unwrap_or_else(|| panic!("{name}: no progress snapshots"));
            assert_eq!(last.done, trials as u64, "{name}: final snapshot done");
            assert_eq!(last.total, trials as u64, "{name}: final snapshot total");
            assert_eq!(last.source, None, "{name}: campaign-level snapshot");
        }
    }
}

/// A CSV sink that also keeps every delivered dump's JSON.
struct CsvDumpSink {
    csv: CsvSink<Vec<u8>>,
    dumps: Vec<(usize, String)>,
}

impl Default for CsvDumpSink {
    fn default() -> CsvDumpSink {
        CsvDumpSink {
            csv: CsvSink::in_memory(),
            dumps: Vec::new(),
        }
    }
}

impl certify_core::TrialSink for CsvDumpSink {
    fn accept(&mut self, seq: usize, trial: certify_core::TrialResult) {
        self.csv.accept(seq, trial);
    }

    fn accept_dump(&mut self, seq: usize, dump: certify_core::TraceDump) {
        self.dumps.push((seq, dump.to_json().render()));
    }

    fn bytes_written(&self) -> Option<u64> {
        self.csv.bytes_written()
    }
}

/// The same law for the flight recorder: arming tracing must leave
/// the CampaignStats and the CSV bytes untouched, and leaving it off
/// (`run_trial_traced(seed, None)`) must be *exactly* `run_trial` —
/// no recorder allocation, no extra events, identical results.
#[test]
fn tracing_leaves_results_and_csv_untouched() {
    use certify_core::TraceConfig;

    for (scenario, trials) in scenarios() {
        let campaign = Campaign::new(scenario, trials, 0xD5_2022);
        let name = campaign.scenario().name.clone();

        let mut plain_sink = CsvSink::in_memory();
        let plain_stats = campaign.execute(.., 4, &mut plain_sink, None).0;
        let plain_csv = plain_sink.into_csv();

        // Tracing off through the traced entry point.
        let runner = campaign.scenario().runner();
        for seq in 0..trials as u64 {
            let seed = 0xD5_2022 + seq;
            let (trial, dump) = runner.run_trial_traced(seed, None);
            assert_eq!(trial, runner.run_trial(seed), "{name}: tracing-off trial");
            assert!(dump.is_none(), "{name}: tracing off must never dump");
        }

        // Tracing on: same stats, same CSV bytes, out both engines.
        let traced = campaign.clone().with_trace(TraceConfig::new());
        let mut traced_sink = CsvSink::in_memory();
        let traced_stats = traced.execute(.., 4, &mut traced_sink, None).0;
        assert_eq!(traced_stats, plain_stats, "{name}: traced stats diverged");
        assert_eq!(
            traced_sink.into_csv(),
            plain_csv,
            "{name}: traced CSV bytes diverged"
        );
        let mut streamed_sink = CsvSink::in_memory();
        let streamed_stats = traced.run_streamed(&mut streamed_sink);
        assert_eq!(streamed_stats, plain_stats, "{name}: streamed traced stats");
        assert_eq!(
            streamed_sink.into_csv(),
            plain_csv,
            "{name}: streamed traced CSV bytes"
        );
    }
}

/// Same law under the real clock: `MonotonicClock` feeds nonzero
/// timings into the histograms without perturbing the results.
#[test]
fn instrumented_run_under_the_real_clock_matches_plain() {
    use certify_core::EngineTelemetry;
    use certify_uncertified::obs::{CollectObserver, MonotonicClock};

    let campaign = Campaign::new(Scenario::e3_fig3(), 8, 0xD5_2022);
    let plain_stats = campaign.execute(.., 4, &mut NullSink, None).0;

    let clock = MonotonicClock::new();
    let mut observer = CollectObserver::default();
    let mut telemetry = EngineTelemetry::new(&clock, &mut observer, 0);
    let observed_stats = campaign
        .execute(.., 4, &mut NullSink, Some(&mut telemetry))
        .0;

    assert_eq!(observed_stats, plain_stats);
    assert_eq!(telemetry.metrics.trials.get(), 8);
    assert!(
        telemetry.metrics.phases.total.sum() > 0,
        "real-clock phase timings must be nonzero"
    );
    assert_eq!(observer.snapshots.len(), 1, "progress_every=0: final only");
}

#[test]
fn e3_shape_at_the_bench_seed_is_preserved() {
    let stats = Campaign::new(Scenario::e3_fig3(), 150, 0xD5_2022)
        .execute(.., 4, &mut NullSink, None)
        .0;
    assert_eq!(stats.count(Outcome::PanicPark), 55, "{stats}");
    assert_eq!(stats.count(Outcome::CpuPark), 16, "{stats}");
    assert_eq!(stats.count(Outcome::Correct), 79, "{stats}");
    assert_eq!(stats.trials, 150);
}

/// Every built-in scenario: golden (`P = steps`), E1, E2 free-running
/// (`P = 0`: phase jitter draws at construction), the boot window, E3,
/// E5a, E5b, each E6 memory model and mixed E7.
fn all_scenarios() -> Vec<Scenario> {
    use certify_core::memfault::{MemFaultModel, MemTarget};
    let mut scenarios = vec![
        Scenario::golden(1500),
        Scenario::e1_root_high(),
        Scenario::e2_nonroot_high(),
        Scenario::e2_boot_window(),
        Scenario::e3_fig3(),
        Scenario::e5a_watchdog(),
        Scenario::e5b_monitor(),
    ];
    for model in MemFaultModel::e6_models() {
        scenarios.push(Scenario::e6_memory(model, MemTarget::e6()));
    }
    scenarios.push(Scenario::e7_mixed());
    scenarios
}

/// A small ring, so the prefix's events overflow it and restored
/// trials must carry `dropped` over too.
fn restore_trace() -> certify_core::TraceConfig {
    certify_core::TraceConfig::new()
        .with_capacity(96)
        .with_policy(certify_core::DumpPolicy::all_outcomes())
}

/// One trial built from public calls only — `System::new*`,
/// `install_*injector`, `set_tracer`, `run`, `classify` — with the
/// ring captured the way a traced trial captures it: its CSV row and,
/// when `capacity` is set, its dump JSON.
fn reference_trial(
    scenario: &Scenario,
    seed: u64,
    capacity: Option<usize>,
) -> (certify_core::TrialResult, String, Option<String>) {
    use certify_core::TrialResult;
    use certify_uncertified::obs::trace::{TraceEvent, TraceKind, TraceLog, NO_CPU};

    let script = Arc::new(scenario.script.clone());
    let mut system = if scenario.rtos_heartbeat {
        System::new_with_heartbeat(script)
    } else {
        System::new(script)
    };
    let log = capacity.map(TraceLog::new);
    if let Some(log) = &log {
        system.set_tracer(log.clone());
    }
    if let Some(spec) = &scenario.spec {
        system.install_injector(spec.clone(), seed);
    }
    if let Some(mem_spec) = &scenario.mem_spec {
        system.install_mem_injector(mem_spec.clone(), seed.wrapping_add(0x6d65_6d66));
    }
    system.run(scenario.steps);
    let report = classify(&system);
    let dump = log.map(|log| {
        log.record(TraceEvent {
            step: system.machine.now(),
            cpu: NO_CPU,
            kind: TraceKind::ClassifyVerdict,
            arg_a: Outcome::ALL
                .iter()
                .position(|o| *o == report.outcome)
                .unwrap() as u64,
            arg_b: 0,
        });
        certify_core::TraceDump::capture(&log, seed, &scenario.name, report.outcome)
            .to_json()
            .render()
    });
    let trial = TrialResult {
        seed,
        outcome: report.outcome,
        injection_count: report.injections.len(),
        mem_injection_count: report.mem_injections.iter().filter(|r| r.applied()).count(),
        report,
    };
    (trial.clone(), csv_row(&trial), dump)
}

fn csv_row(trial: &certify_core::TrialResult) -> String {
    let mut row = String::new();
    certify_analysis::export::trial_to_csv_row(trial, &mut row);
    row
}

/// Traced and untraced trials, alternating on one runner: the first
/// finished trial teaches it `P`, the next of each kind saves a
/// snapshot, and every later one is restored from it. Each must equal
/// the public-call reference byte for byte.
#[test]
fn restored_trials_equal_from_scratch_systems_across_scenarios() {
    let config = restore_trace();
    for scenario in all_scenarios() {
        let name = &scenario.name;
        let runner = scenario.runner();
        for i in 0..5u64 {
            let seed = 0xD5_2022 + i;
            let (want, want_row, want_dump) = reference_trial(&scenario, seed, None);
            let (_, _, traced_dump) = reference_trial(&scenario, seed, Some(config.capacity));
            let untraced = || runner.run_trial(seed);
            let traced = || runner.run_trial_traced(seed, Some(&config));
            let (plain, (traced_trial, dump)) = if i % 2 == 0 {
                let plain = untraced();
                (plain, traced())
            } else {
                let traced = traced();
                (untraced(), traced)
            };
            assert_eq!(plain, want, "{name} seed {seed}: untraced trial");
            assert_eq!(csv_row(&plain), want_row, "{name} seed {seed}: CSV row");
            assert_eq!(traced_trial, want, "{name} seed {seed}: traced trial");
            assert!(want_dump.is_none());
            assert_eq!(
                dump.map(|d| d.to_json().render()),
                traced_dump,
                "{name} seed {seed}: dump JSON"
            );
        }
        let prefix = runner
            .pristine_prefix()
            .expect("a finished trial teaches P");
        let public_p = run_system(&scenario, 1)
            .seed_free_steps()
            .unwrap_or(scenario.steps);
        assert_eq!(prefix, public_p, "{name}: runner P vs public-call P");
    }
}

/// The edge cases of `P`: golden runs never draw (`P = steps`, each
/// trial is a copy plus `classify`), and E2's phase jitter draws at
/// construction (`P = 0`, the mechanism is bypassed).
#[test]
fn pristine_prefix_bounds_hold_at_both_ends() {
    let golden = Scenario::golden(1500);
    let runner = golden.runner();
    runner.run_trial(1);
    assert_eq!(runner.pristine_prefix(), Some(1500));

    let e2 = Scenario::e2_nonroot_high();
    let runner = e2.runner();
    assert_eq!(runner.pristine_prefix(), None, "nothing learned yet");
    runner.run_trial(1);
    assert_eq!(runner.pristine_prefix(), Some(0));
}

/// A collecting sink that renders rows to CSV and dumps to JSON.
#[derive(Default)]
struct RenderSink {
    rows: Vec<(usize, String)>,
    dumps: Vec<(usize, String)>,
}

impl certify_core::TrialSink for RenderSink {
    fn accept(&mut self, seq: usize, trial: certify_core::TrialResult) {
        self.rows.push((seq, csv_row(&trial)));
    }

    fn accept_dump(&mut self, seq: usize, dump: certify_core::TraceDump) {
        self.dumps.push((seq, dump.to_json().render()));
    }
}

/// The parallel engine at 1 and 4 workers hands the prefix snapshot
/// between threads: every row and kept dump must still equal the
/// public-call reference, traced and untraced.
#[test]
fn parallel_engine_restores_equal_from_scratch_at_1_and_4_workers() {
    use certify_core::memfault::{MemFaultModel, MemTarget};
    let config = restore_trace().with_policy(certify_core::DumpPolicy::anomalies());
    let scenarios = [
        Scenario::golden(1500),
        Scenario::e2_nonroot_high(),
        Scenario::e3_fig3(),
        Scenario::e6_memory(MemFaultModel::SingleBitFlip, MemTarget::e6()),
        Scenario::e7_mixed(),
    ];
    let trials = 10;
    for scenario in scenarios {
        let name = scenario.name.clone();
        let mut rows = Vec::new();
        let mut dumps = Vec::new();
        for seq in 0..trials {
            let seed = 0xD5_2022 + seq as u64;
            let (trial, row, dump) = reference_trial(&scenario, seed, Some(config.capacity));
            rows.push((seq, row));
            if config.policy.wants(trial.outcome) {
                dumps.push((seq, dump.expect("traced reference")));
            }
        }
        let campaign = Campaign::new(scenario, trials, 0xD5_2022);
        for workers in [1, 4] {
            let mut sink = RenderSink::default();
            campaign.execute(.., workers, &mut sink, None);
            assert_eq!(sink.rows, rows, "{name} x{workers}: untraced rows");
            assert!(sink.dumps.is_empty());

            let mut sink = RenderSink::default();
            campaign
                .clone()
                .with_trace(config.clone())
                .execute(.., workers, &mut sink, None);
            assert_eq!(sink.rows, rows, "{name} x{workers}: traced rows");
            assert_eq!(sink.dumps, dumps, "{name} x{workers}: dump JSON");
        }
    }
}

/// E3's pristine prefix is one value for every seed, and it ends the
/// step before the first injection: with steps counted from 1 (as
/// `System::steps_run` counts them), a first fire attempt during step
/// `s` leaves `P = s - 1` seed-free steps. E7 shares E3's register
/// spec and agrees across its seeds too.
#[test]
fn e3_pristine_prefix_is_seed_independent_and_ends_before_the_first_fire() {
    let e3 = Scenario::e3_fig3();
    let mut prefixes = std::collections::BTreeSet::new();
    for seed in 0..300u64 {
        let system = run_system(&e3, seed);
        let p = system.seed_free_steps().expect("every e3 trial fires");
        let first = system.injection_log().unwrap().records()[0].step;
        assert_eq!(p, first - 1, "seed {seed}: P vs first InjectionRecord.step");
        prefixes.insert(p);
    }
    assert_eq!(prefixes.len(), 1, "e3 P varies with the seed: {prefixes:?}");
    let runner = e3.runner();
    runner.run_trial(7);
    assert_eq!(runner.pristine_prefix(), prefixes.first().copied());

    let e7 = Scenario::e7_mixed();
    let e7_prefixes: std::collections::BTreeSet<_> = (0..20u64)
        .map(|seed| run_system(&e7, seed).seed_free_steps())
        .collect();
    assert_eq!(e7_prefixes.len(), 1, "e7 P varies: {e7_prefixes:?}");
}

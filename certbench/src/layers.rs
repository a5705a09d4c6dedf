//! The per-layer run (`--trace 1`): each layer is driven through its
//! public functions over the workload's seed sample and timed from
//! outside. Work counts are read from public getters after each trial.
//!
//! Which end-to-end metric each group should move:
//!
//! * `system.*` and the work counts — `trial_us_p50` and
//!   `trials_per_s` on `e3_fig3` and `e2_lifecycle`;
//!   `system.prefix_share` sizes what snapshot/restore could save;
//! * `classify.*`, `export.*`, `stats.*` — the same metrics on
//!   `e2_lifecycle`, negligible on `e3_fig3`;
//! * `engine.*` — `trials_per_s` on `e3_fig3`;
//! * `trace.*` — `trials_per_s` and `peak_rss_mb` on
//!   `e7_sharded_traced`;
//! * `codec.*`, `shard.*` — `trials_per_s` and `setup_s` on
//!   `e7_sharded_traced`;
//! * `lint.*` — `setup_s` on all three.
//!
//! A layer a workload's path does not pass through reports 0.

use crate::measure::{median, quantile};
use crate::workload::{trial_path, Engine, RoundContext, Workload};
use crate::Report;
use certify_analysis::export::trial_to_csv_row;
use certify_arch::CpuId;
use certify_core::campaign::{Scenario, TrialResult};
use certify_core::{classify, CampaignStats, InjectionSpec, MemorySpec, NullSink, System};
use certify_guest_linux::MgmtScript;
use certify_hypervisor::HandlerKind;
use certify_lint::{certify_scenario, lint_scenario};
use certify_shard::{read_frame, write_frame, Frame};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Steps per timed `System::run` chunk: long enough that reading the
/// clock costs well under 1 % of the chunk.
const STEP_CHUNK: u64 = 100;
/// Lint and certification repeats per pass.
const LINT_REPEATS: usize = 20;
/// The seed offset `TrialRunner` gives a trial's memory injector; the
/// fidelity check fails if the two drift apart.
const MEM_SEED_OFFSET: u64 = 0x6d65_6d66;

/// Timing metrics: each reports `.p50`, `.p99` and `.n`.
pub const TIMINGS: [(&str, &str); 11] = [
    ("system.build_us", "us"),
    ("system.step_ns.prefix", "ns"),
    ("system.step_ns.faulted", "ns"),
    ("classify.us", "us"),
    ("export.csv_row_us", "us"),
    ("stats.record_ns", "ns"),
    ("trace.traced_trial_us", "us"),
    ("trace.dump_json_us", "us"),
    ("codec.encode_us", "us"),
    ("codec.decode_us", "us"),
    ("lint.certify_us", "us"),
];

/// Work counts, reported as per-trial means; they repeat exactly for
/// a seed.
pub const COUNTS: [&str; 21] = [
    "board.uart_bytes",
    "board.uart_lines",
    "board.resident_pages",
    "arch.gic_dropped",
    "hv.calls.irqchip_handle_irq",
    "hv.calls.arch_handle_trap",
    "hv.calls.arch_handle_hvc",
    "hv.events",
    "rtos.slices",
    "rtos.ticks",
    "inject.register",
    "inject.mem_applied",
    "inject.mem_skipped",
    "export.csv_row_bytes",
    "trace.events",
    "trace.dropped",
    "trace.dump_json_bytes",
    "codec.frame_bytes",
    "shard.frames",
    "shard.wire_bytes",
    "shard.retries",
];

/// Single-run figures of the engine and the shard tier.
pub const GAUGES: [(&str, &str); 8] = [
    ("system.prefix_share", "share"),
    ("engine.reorder_high_water", "count"),
    ("engine.parallel_efficiency", "share"),
    ("shard.first_row_ms", "ms"),
    ("shard.crc_rejects", "count"),
    ("shard.wasted_rerun_trials", "count"),
    ("shard.critical_path_s", "s"),
    ("shard.tail_s", "s"),
];

/// Timing samples keyed by metric name.
type Timings = BTreeMap<&'static str, Vec<f64>>;
/// Summed work counts keyed by metric name.
type Counts = BTreeMap<&'static str, u64>;

/// The scenario's parts shared across trials, as `TrialRunner` shares
/// them.
struct Parts {
    script: Arc<MgmtScript>,
    spec: Option<Arc<InjectionSpec>>,
    mem_spec: Option<Arc<MemorySpec>>,
    steps: u64,
    heartbeat: bool,
}

impl Parts {
    fn new(scenario: &Scenario) -> Parts {
        Parts {
            script: Arc::new(scenario.script.clone()),
            spec: scenario.spec.clone().map(Arc::new),
            mem_spec: scenario.mem_spec.clone().map(Arc::new),
            steps: scenario.steps,
            heartbeat: scenario.rtos_heartbeat,
        }
    }

    /// The seeded testbed, built from public calls only.
    fn build(&self, seed: u64) -> System {
        let mut system = if self.heartbeat {
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
}

/// Register injections fired plus memory injections applied so far.
fn injections_applied(system: &System) -> usize {
    system.injection_log().map_or(0, |log| log.len())
        + system.mem_injection_log().map_or(0, |log| log.applied())
}

/// The step of the first fired register or applied memory injection.
fn first_injection_step(system: &System) -> Option<u64> {
    let register = system
        .injection_log()
        .and_then(|log| log.records().first().map(|r| r.step));
    let memory = system
        .mem_injection_log()
        .and_then(|log| log.records().iter().find(|r| r.applied()).map(|r| r.step));
    register.into_iter().chain(memory).min()
}

fn micros(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

fn add(counts: &mut Counts, name: &'static str, value: u64) {
    *counts.entry(name).or_default() += value;
}

/// What one pass over the seed sample found.
struct Pass {
    counts: Counts,
    prefix_steps: u64,
    fidelity_failures: u64,
}

/// Runs every seed of the sample through the layers once, appending
/// timings.
fn pass(workload: &Workload, parts: &Parts, seeds: &[u64], timings: &mut Timings) -> Pass {
    let scenario = workload.scenario();
    let runner = scenario.runner();
    let trace = workload.trace();
    let sharded = workload.engine == Engine::Sharded;
    let mut stats = CampaignStats::new(scenario.name.clone());
    let mut counts = Counts::new();
    let mut prefix_steps = 0;
    let mut fidelity_failures = 0;
    let mut row = String::new();
    let mut reference_row = String::new();
    let mut time = |name: &'static str, value: f64| timings.entry(name).or_default().push(value);

    for _ in 0..LINT_REPEATS {
        let start = Instant::now();
        black_box(lint_scenario(&scenario));
        black_box(certify_scenario(&scenario));
        time("lint.certify_us", micros(start));
    }

    for (seq, &seed) in (0u64..).zip(seeds) {
        let start = Instant::now();
        let mut system = parts.build(seed);
        time("system.build_us", micros(start));

        let mut run = 0;
        while run < parts.steps {
            let chunk = STEP_CHUNK.min(parts.steps - run);
            let faulted = injections_applied(&system) > 0;
            let start = Instant::now();
            system.run(chunk);
            let ns = start.elapsed().as_nanos() as f64 / chunk as f64;
            // A chunk in which the first injection lands belongs to
            // neither phase.
            if faulted {
                time("system.step_ns.faulted", ns);
            } else if injections_applied(&system) == 0 {
                time("system.step_ns.prefix", ns);
            }
            run += chunk;
        }
        prefix_steps +=
            first_injection_step(&system).map_or(parts.steps, |step| step.min(parts.steps));

        let start = Instant::now();
        let report = classify(&system);
        time("classify.us", micros(start));
        let trial = TrialResult {
            seed,
            outcome: report.outcome,
            injection_count: report.injections.len(),
            mem_injection_count: report.mem_injections.iter().filter(|r| r.applied()).count(),
            report,
        };

        row.clear();
        let start = Instant::now();
        trial_to_csv_row(&trial, &mut row);
        time("export.csv_row_us", micros(start));
        add(&mut counts, "export.csv_row_bytes", row.len() as u64);

        let start = Instant::now();
        stats.record(&trial);
        time("stats.record_ns", start.elapsed().as_nanos() as f64);

        let machine = &system.machine;
        add(
            &mut counts,
            "board.uart_bytes",
            machine.uart.byte_count() as u64,
        );
        add(
            &mut counts,
            "board.uart_lines",
            machine.uart.line_count() as u64,
        );
        add(
            &mut counts,
            "board.resident_pages",
            machine.ram().resident_pages() as u64,
        );
        add(&mut counts, "arch.gic_dropped", machine.gic.dropped_count());
        for (name, kind) in [
            ("hv.calls.irqchip_handle_irq", HandlerKind::IrqchipHandleIrq),
            ("hv.calls.arch_handle_trap", HandlerKind::ArchHandleTrap),
            ("hv.calls.arch_handle_hvc", HandlerKind::ArchHandleHvc),
        ] {
            let calls = (0..machine.num_cpus() as u32)
                .map(|cpu| system.hv.call_count(kind, CpuId(cpu)))
                .sum();
            add(&mut counts, name, calls);
        }
        add(&mut counts, "hv.events", system.hv.events().len() as u64);
        add(
            &mut counts,
            "rtos.slices",
            system.rtos.kernel().total_slices(),
        );
        add(&mut counts, "rtos.ticks", system.rtos.kernel().tick_count());
        add(&mut counts, "inject.register", trial.injection_count as u64);
        let mem_attempts = system.mem_injection_log().map_or(0, |log| log.len());
        add(
            &mut counts,
            "inject.mem_applied",
            trial.mem_injection_count as u64,
        );
        add(
            &mut counts,
            "inject.mem_skipped",
            (mem_attempts - trial.mem_injection_count) as u64,
        );

        // Fidelity: the hand-built system must be the engine's trial.
        let (reference, _) = trial_path(&runner, seed, None, &mut reference_row);
        if reference != trial || reference_row != row {
            eprintln!("fidelity: seed {seed} differs from TrialRunner::run_trial");
            fidelity_failures += 1;
        }

        if let Some(config) = &trace {
            let start = Instant::now();
            let (traced, dump) = runner.run_trial_traced(seed, Some(config));
            time("trace.traced_trial_us", micros(start));
            let dump = dump.expect("a traced trial captures its ring");
            if traced != trial {
                eprintln!("fidelity: traced seed {seed} differs from the untraced trial");
                fidelity_failures += 1;
            }
            add(&mut counts, "trace.events", dump.total);
            add(&mut counts, "trace.dropped", dump.dropped);
            let kept = config.policy.wants(trial.outcome);
            if kept {
                let start = Instant::now();
                let json = dump.to_json().render();
                time("trace.dump_json_us", micros(start));
                add(&mut counts, "trace.dump_json_bytes", json.len() as u64);
            }
            if sharded {
                let mut frames = vec![Frame::TrialRow {
                    seq,
                    row: row.clone().into_bytes(),
                }];
                if kept {
                    frames.push(Frame::TraceDump { seq, dump });
                }
                for frame in frames {
                    let mut wire = Vec::new();
                    let start = Instant::now();
                    write_frame(&mut wire, &frame).expect("writing to a Vec cannot fail");
                    time("codec.encode_us", micros(start));
                    let start = Instant::now();
                    let decoded = read_frame(&mut wire.as_slice());
                    time("codec.decode_us", micros(start));
                    if !matches!(decoded, Ok(Some(ref back)) if *back == frame) {
                        eprintln!(
                            "codec: seed {seed} {} frame does not round-trip",
                            frame.name()
                        );
                        fidelity_failures += 1;
                    }
                    add(&mut counts, "codec.frame_bytes", wire.len() as u64);
                }
            }
        }
    }
    black_box(stats);
    Pass {
        counts,
        prefix_steps,
        fidelity_failures,
    }
}

/// Engine and shard-tier figures from one run of the sample through
/// the workload's engine, against a sequential in-process reference.
fn engine_figures(
    workload: &Workload,
    ctx: &RoundContext,
    trials: usize,
    seed: u64,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let round = ctx.run(workload, trials, seed)?;
    let campaign = workload.campaign(trials, seed);
    let start = Instant::now();
    campaign.run_streamed(&mut NullSink);
    let sequential_rate = trials as f64 / start.elapsed().as_secs_f64();
    let mut figures = BTreeMap::new();
    figures.insert("engine.reorder_high_water", round.reorder_high_water as f64);
    figures.insert(
        "engine.parallel_efficiency",
        round.trials_per_s() / (workload.workers() as f64 * sequential_rate),
    );
    if let Some(run) = &round.sharded {
        let critical_ns = run
            .shard_metrics
            .iter()
            .map(|m| m.elapsed_ns.high_water())
            .max()
            .unwrap_or(0);
        let critical_s = critical_ns as f64 / 1e9;
        let per_trial = |count: u64| count as f64 / trials as f64;
        figures.insert("shard.first_row_ms", round.first_row_s() * 1e3);
        figures.insert("shard.frames", per_trial(run.metrics.frames.get()));
        figures.insert("shard.wire_bytes", per_trial(run.metrics.frame_bytes.get()));
        figures.insert("shard.retries", per_trial(run.metrics.retries.get()));
        figures.insert("shard.crc_rejects", run.metrics.crc_rejects.get() as f64);
        figures.insert(
            "shard.wasted_rerun_trials",
            run.metrics.wasted_rerun_trials.get() as f64,
        );
        figures.insert("shard.critical_path_s", critical_s);
        figures.insert("shard.tail_s", round.wall_s - critical_s);
    }
    Ok(figures)
}

/// The per-layer run: passes over the sample until `seconds` have
/// elapsed (at least two, whose counts must agree exactly), then one
/// engine run.
pub fn per_layer(
    workload: &Workload,
    ctx: &RoundContext,
    seed: u64,
    seconds: u64,
    trials: usize,
) -> Result<Report, String> {
    let scenario = workload.scenario();
    let parts = Parts::new(&scenario);
    let seeds: Vec<u64> = (0..trials as u64).map(|i| seed.wrapping_add(i)).collect();
    let mut timings = Timings::new();
    let mut report = Report::new();
    let started = Instant::now();
    let first = pass(workload, &parts, &seeds, &mut timings);
    report.attempted += trials as u64;
    report.fail(first.fidelity_failures);
    let mut passes = 1;
    while passes < 2 || started.elapsed().as_secs() < seconds {
        let again = pass(workload, &parts, &seeds, &mut timings);
        report.attempted += trials as u64;
        report.fail(again.fidelity_failures);
        if again.counts != first.counts || again.prefix_steps != first.prefix_steps {
            eprintln!("per-layer counts differ between two passes over the same seeds");
            report.fail(trials as u64);
        }
        passes += 1;
    }
    let figures = engine_figures(workload, ctx, trials, seed)?;
    report.attempted += trials as u64;

    for (name, unit) in TIMINGS {
        let values = timings.get(name).map(Vec::as_slice).unwrap_or(&[]);
        report.metric(format!("{name}.p50"), median(values), unit);
        report.metric(format!("{name}.p99"), quantile(values, 0.99), unit);
        report.metric(format!("{name}.n"), values.len() as f64, "count");
    }
    for name in COUNTS {
        let total = first.counts.get(name).copied().unwrap_or(0) as f64;
        let value = figures.get(name).copied().unwrap_or(total / trials as f64);
        report.metric(name.to_string(), value, "count");
    }
    let total_steps = parts.steps * trials as u64;
    for (name, unit) in GAUGES {
        let value = match name {
            "system.prefix_share" => first.prefix_steps as f64 / total_steps as f64,
            _ => figures.get(name).copied().unwrap_or(0.0),
        };
        report.metric(name.to_string(), value, unit);
    }
    eprintln!("per-layer: {passes} passes over {trials} seeds");
    Ok(report)
}

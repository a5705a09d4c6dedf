//! Trial tracing: flight-recorder configuration, anomaly dump policy
//! and the [`TraceDump`] artifact.
//!
//! The raw machinery — the event vocabulary and the bounded ring —
//! lives in [`certify_obs::trace`]; this module is the campaign-level
//! wiring. A [`TraceConfig`] attached to a campaign
//! ([`crate::Campaign::with_trace`]) gives every trial its own flight
//! recorder; when a trial classifies into the [`DumpPolicy`]'s
//! outcome set (or violates the attached certificate), the recorder's
//! contents are captured as a [`TraceDump`] and delivered to the sink
//! via [`crate::sink::TrialSink::accept_dump`]. Dumps export as
//! deterministic JSON ([`TraceDump::write_json`], or
//! [`TraceDump::to_json`] as a value) and as
//! `chrome://tracing` JSON ([`TraceDump::to_chrome_trace`]).
//!
//! Everything here is a pure function of the trial seed: the same
//! seed produces byte-identical dumps in-process, across worker
//! threads and across shard processes — pinned by
//! `tests/determinism.rs` and `crates/shard/tests/sharded.rs`.

use crate::classify::Outcome;
use crate::json::{write_escaped, write_u64, Json};
use certify_obs::trace::{TraceEvent, TraceLog, NO_CPU};
use std::collections::BTreeSet;

/// Default flight-recorder capacity (events retained per trial).
///
/// A 4500-step E3/E6 trial records on the order of 10k handler
/// entries; 4096 keeps the full injection-to-verdict suffix — the
/// part propagation analysis needs — while bounding memory at
/// ~120 KiB per in-flight trial.
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// When a trial's flight recorder is dumped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DumpPolicy {
    /// Outcomes that trigger a dump.
    pub outcomes: BTreeSet<Outcome>,
    /// Dump when the trial violates the campaign's attached
    /// [`crate::ScenarioCertificate`] (no-op without one).
    pub on_conformance_violation: bool,
    /// On a panic inside a traced trial, print the ring as JSON to
    /// stderr before resuming the unwind — the trial that killed the
    /// process explains itself on the way down.
    pub on_panic: bool,
}

impl DumpPolicy {
    /// The stock anomaly policy: dump on every outcome that signals
    /// something went wrong in an *interesting* way (panic park,
    /// inconsistent state, translation-fault storm, silent data
    /// corruption), plus conformance violations and panics. The
    /// expected outcomes — correct, CPU park, invalid arguments — are
    /// the campaign's bread and butter and stay quiet.
    pub fn anomalies() -> DumpPolicy {
        DumpPolicy {
            outcomes: [
                Outcome::PanicPark,
                Outcome::InconsistentState,
                Outcome::TranslationFaultStorm,
                Outcome::SilentDataCorruption,
            ]
            .into_iter()
            .collect(),
            on_conformance_violation: true,
            on_panic: true,
        }
    }

    /// Dump every trial, whatever its outcome — the propagation-
    /// analysis firehose.
    pub fn all_outcomes() -> DumpPolicy {
        DumpPolicy {
            outcomes: Outcome::ALL.into_iter().collect(),
            on_conformance_violation: true,
            on_panic: true,
        }
    }

    /// Whether `outcome` triggers a dump.
    pub fn wants(&self, outcome: Outcome) -> bool {
        self.outcomes.contains(&outcome)
    }
}

impl Default for DumpPolicy {
    fn default() -> DumpPolicy {
        DumpPolicy::anomalies()
    }
}

/// Per-campaign tracing configuration: ring capacity + dump policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceConfig {
    /// Flight-recorder capacity in events (floored at 1).
    pub capacity: usize,
    /// When to keep a trial's dump.
    pub policy: DumpPolicy,
}

impl TraceConfig {
    /// The stock configuration: [`DEFAULT_TRACE_CAPACITY`] events,
    /// [`DumpPolicy::anomalies`].
    pub fn new() -> TraceConfig {
        TraceConfig::default()
    }

    /// Builder: override the ring capacity.
    pub fn with_capacity(mut self, capacity: usize) -> TraceConfig {
        self.capacity = capacity;
        self
    }

    /// Builder: override the dump policy.
    pub fn with_policy(mut self, policy: DumpPolicy) -> TraceConfig {
        self.policy = policy;
        self
    }
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            capacity: DEFAULT_TRACE_CAPACITY,
            policy: DumpPolicy::default(),
        }
    }
}

/// One anomalous trial's flight-recorder contents, ready to persist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceDump {
    /// The trial's seed.
    pub seed: u64,
    /// The scenario that ran.
    pub scenario: String,
    /// The classified outcome that triggered (or survived) the dump.
    pub outcome: Outcome,
    /// Events recorded over the whole trial, including evicted ones.
    pub total: u64,
    /// Events lost off the head of the ring (`total - events.len()`).
    pub dropped: u64,
    /// The retained event suffix, oldest first.
    pub events: Vec<TraceEvent>,
}

impl TraceDump {
    /// Captures the current ring contents of `log` as a dump.
    pub fn capture(log: &TraceLog, seed: u64, scenario: &str, outcome: Outcome) -> TraceDump {
        let events = log.snapshot();
        let total = log.total();
        TraceDump {
            seed,
            scenario: scenario.to_string(),
            outcome,
            total,
            dropped: total - events.len() as u64,
            events,
        }
    }

    /// The dump as a deterministic JSON value: [`TraceDump::write_json`]'s
    /// document, wrapped as [`Json::Raw`].
    pub fn to_json(&self) -> Json {
        let mut out = String::new();
        self.write_json(&mut out);
        Json::Raw(out)
    }

    /// Appends the dump as one compact JSON object to `out`:
    /// `seed`, `scenario`, `outcome`, `total`, `dropped`, then the
    /// `events` array of `{"step","cpu","kind","a","b"}` objects, a
    /// [`NO_CPU`] cpu as `null`. Nothing is allocated per event, so a
    /// caller writing many dumps can reuse one buffer.
    pub fn write_json(&self, out: &mut String) {
        out.reserve(96 + self.scenario.len() + self.events.len() * EVENT_JSON_BYTES);
        out.push_str("{\"seed\":");
        write_u64(self.seed, out);
        out.push_str(",\"scenario\":");
        write_escaped(&self.scenario, out);
        out.push_str(",\"outcome\":");
        write_escaped(&self.outcome.to_string(), out);
        out.push_str(",\"total\":");
        write_u64(self.total, out);
        out.push_str(",\"dropped\":");
        write_u64(self.dropped, out);
        out.push_str(",\"events\":");
        write_events_json(&self.events, out);
        out.push('}');
    }

    /// The dump as a `chrome://tracing` / Perfetto JSON document:
    /// every event an instant ("ph":"i") at `ts` = machine step, on
    /// the thread lane of its CPU (lane -1 for events with no CPU).
    pub fn to_chrome_trace(&self) -> String {
        let events = self
            .events
            .iter()
            .map(|event| {
                let tid = if event.cpu == NO_CPU {
                    Json::I64(-1)
                } else {
                    Json::U64(event.cpu as u64)
                };
                Json::obj([
                    ("name", Json::str(event.kind.name())),
                    ("ph", Json::str("i")),
                    ("ts", Json::U64(event.step)),
                    ("pid", Json::U64(0)),
                    ("tid", tid),
                    ("s", Json::str("t")),
                    (
                        "args",
                        Json::obj([("a", Json::U64(event.arg_a)), ("b", Json::U64(event.arg_b))]),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ms")),
            (
                "otherData",
                Json::obj([
                    ("scenario", Json::str(self.scenario.clone())),
                    ("seed", Json::U64(self.seed)),
                    ("outcome", Json::str(self.outcome.to_string())),
                    ("dropped", Json::U64(self.dropped)),
                ]),
            ),
        ])
        .render()
    }
}

/// A typical event's JSON length, to size the output buffer up front.
const EVENT_JSON_BYTES: usize = 64;

/// Appends `events` as a JSON array of
/// `{"step","cpu","kind","a","b"}` objects; a [`NO_CPU`] cpu renders
/// as `null`. The one description of a trace event's JSON.
pub(crate) fn write_events_json(events: &[TraceEvent], out: &mut String) {
    out.push('[');
    for (i, event) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"step\":");
        write_u64(event.step, out);
        out.push_str(",\"cpu\":");
        if event.cpu == NO_CPU {
            out.push_str("null");
        } else {
            write_u64(u64::from(event.cpu), out);
        }
        out.push_str(",\"kind\":");
        write_escaped(event.kind.name(), out);
        out.push_str(",\"a\":");
        write_u64(event.arg_a, out);
        out.push_str(",\"b\":");
        write_u64(event.arg_b, out);
        out.push('}');
    }
    out.push(']');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Scenario;
    use certify_obs::trace::TraceKind;

    /// The reference rendering: the dump built as a [`Json`] tree, one
    /// node, key and pair list per event, then rendered. The streaming
    /// writer must reproduce its bytes exactly.
    fn reference_json(dump: &TraceDump) -> String {
        let event = |event: &TraceEvent| {
            let cpu = if event.cpu == NO_CPU {
                Json::Null
            } else {
                Json::U64(event.cpu as u64)
            };
            Json::obj([
                ("step", Json::U64(event.step)),
                ("cpu", cpu),
                ("kind", Json::str(event.kind.name())),
                ("a", Json::U64(event.arg_a)),
                ("b", Json::U64(event.arg_b)),
            ])
        };
        Json::obj([
            ("seed", Json::U64(dump.seed)),
            ("scenario", Json::str(dump.scenario.clone())),
            ("outcome", Json::str(dump.outcome.to_string())),
            ("total", Json::U64(dump.total)),
            ("dropped", Json::U64(dump.dropped)),
            ("events", Json::Arr(dump.events.iter().map(event).collect())),
        ])
        .render()
    }

    fn assert_matches_reference(dump: &TraceDump) {
        let mut streamed = String::from("prefix:");
        dump.write_json(&mut streamed);
        assert_eq!(
            streamed.strip_prefix("prefix:"),
            Some(reference_json(dump).as_str()),
            "seed {} ({})",
            dump.seed,
            dump.scenario
        );
        assert_eq!(dump.to_json().render(), reference_json(dump));
    }

    /// One event of every kind, with `NO_CPU` and `u64::MAX` words.
    fn edge_dump(scenario: &str) -> TraceDump {
        let events = TraceKind::ALL
            .iter()
            .enumerate()
            .map(|(i, &kind)| TraceEvent {
                step: if i % 2 == 0 { u64::MAX } else { i as u64 },
                cpu: match i % 3 {
                    0 => NO_CPU,
                    1 => 0,
                    _ => NO_CPU - 1,
                },
                kind,
                arg_a: if i % 2 == 1 { u64::MAX } else { 0 },
                arg_b: u64::MAX - i as u64,
            })
            .collect();
        TraceDump {
            seed: u64::MAX,
            scenario: scenario.to_string(),
            outcome: Outcome::ALL[scenario.len() % Outcome::ALL.len()],
            total: u64::MAX,
            dropped: u64::MAX - TraceKind::ALL.len() as u64,
            events,
        }
    }

    #[test]
    fn streamed_json_matches_the_tree_on_edge_values() {
        for scenario in [
            "",
            "e7-mixed",
            "quote\" backslash\\ newline\n control\u{1} tab\t cr\r",
            "non-ASCII: é € 😀 \u{7f} \u{85}",
        ] {
            assert_matches_reference(&edge_dump(scenario));
            let mut empty = edge_dump(scenario);
            empty.events.clear();
            assert_matches_reference(&empty);
        }
        assert_matches_reference(&sample_dump());
    }

    #[test]
    fn streamed_json_matches_the_tree_on_real_e7_dumps() {
        let config = TraceConfig::new()
            .with_capacity(512)
            .with_policy(DumpPolicy::all_outcomes());
        let runner = Scenario::e7_mixed().runner();
        let mut kinds = BTreeSet::new();
        for seed in 0..200 {
            let (_, dump) = runner.run_trial_traced(seed, Some(&config));
            let dump = dump.expect("a traced trial captures its ring");
            kinds.extend(dump.events.iter().map(|e| e.kind.name()));
            assert_matches_reference(&dump);
        }
        assert!(kinds.len() > 1, "real dumps hold several event kinds");
    }

    fn sample_dump() -> TraceDump {
        let log = TraceLog::new(2);
        for step in 1..=3u64 {
            log.record(TraceEvent {
                step,
                cpu: if step == 3 { NO_CPU } else { 1 },
                kind: TraceKind::HandlerEntry,
                arg_a: step * 10,
                arg_b: 0,
            });
        }
        TraceDump::capture(&log, 42, "e3-fig3-medium", Outcome::SilentDataCorruption)
    }

    #[test]
    fn capture_reflects_ring_truncation() {
        let dump = sample_dump();
        assert_eq!(dump.total, 3);
        assert_eq!(dump.dropped, 1);
        assert_eq!(dump.events.len(), 2);
        assert_eq!(dump.events[0].step, 2);
    }

    #[test]
    fn json_encodes_no_cpu_as_null() {
        let rendered = sample_dump().to_json().render();
        assert!(rendered.contains("\"seed\":42"));
        assert!(rendered.contains("\"cpu\":null"));
        assert!(rendered.contains("\"kind\":\"handler_entry\""));
    }

    #[test]
    fn chrome_trace_is_well_formed_enough() {
        let doc = sample_dump().to_chrome_trace();
        assert!(doc.starts_with("{\"traceEvents\":["));
        assert!(doc.contains("\"ph\":\"i\""));
        assert!(doc.contains("\"tid\":-1"));
        assert!(doc.contains("\"scenario\":\"e3-fig3-medium\""));
    }

    #[test]
    fn default_policy_dumps_anomalies_only() {
        let policy = DumpPolicy::default();
        assert!(policy.wants(Outcome::SilentDataCorruption));
        assert!(policy.wants(Outcome::PanicPark));
        assert!(!policy.wants(Outcome::Correct));
        assert!(!policy.wants(Outcome::CpuPark));
        assert!(policy.on_conformance_violation);
        assert!(DumpPolicy::all_outcomes().wants(Outcome::Correct));
    }
}

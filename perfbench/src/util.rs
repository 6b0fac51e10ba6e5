//! What every workload shares: the run options, the sample store the
//! metrics are reduced from, the span recorder, kernel snapshots taken
//! between phases, and the unit loop.

use crate::alloc;
use simnet::{DropReason, DropSummary, NodeId};
use ski_rental::Scenario;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Command-line options of one run.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// The benchmark's one wall-clock read: host time is what it measures.
pub fn now() -> Instant {
    // detlint::allow(D001, reason = "the benchmark measures host time, outside the simulation")
    Instant::now()
}

/// SplitMix64: a seed for unit `k` of a run, so units differ from one
/// another and every run with the same `--seed` gets the same inputs.
pub fn mix(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_mul(k.wrapping_add(1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// The outcome of one run: operation counts, failed checks, and metric
/// samples. Each metric's reported value is the median of its samples.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    samples: BTreeMap<String, (Vec<f64>, &'static str)>,
}

impl Report {
    pub fn push(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.samples
            .entry(name.into())
            .or_insert_with(|| (Vec::new(), unit))
            .0
            .push(value);
    }

    /// Records a failed correctness check (the result's `correct` turns false).
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let text = what();
            eprintln!("CHECK FAILED: {text}");
            self.problems.push(text);
        }
    }

    /// Every sample of `name`, in the order pushed.
    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], |(values, _)| values)
    }

    /// How many samples of `name` have been pushed.
    pub fn count(&self, name: &str) -> usize {
        self.samples.get(name).map_or(0, |(values, _)| values.len())
    }

    /// Drops every sample of `name` after the first `len`.
    pub fn truncate(&mut self, name: &str, len: usize) {
        if let Some((values, _)) = self.samples.get_mut(name) {
            values.truncate(len);
        }
    }

    pub fn has(&self, name: &str) -> bool {
        self.samples.contains_key(name)
    }

    pub fn unit_of(&self, name: &str) -> &'static str {
        self.samples[name].1
    }

    /// The median of one metric's samples.
    pub fn median(&self, name: &str) -> f64 {
        median(&self.samples[name].0)
    }

    /// `(name, unit, median of samples)` for every metric, in name order.
    pub fn values(&self) -> Vec<(String, &'static str, f64)> {
        self.samples
            .iter()
            .map(|(name, (values, unit))| (name.clone(), *unit, median(values)))
            .collect()
    }
}

/// Spans around the benchmark's own calls into each layer: name, parent,
/// start and end, kept in memory and written out when the run ends. Off
/// (no recording) outside the traced run.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<(String, Option<usize>, u64, u64)>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open span.
    pub fn span<R>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Spans) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start = self.origin.elapsed().as_nanos() as u64;
        self.spans
            .push((name.into(), self.open.last().copied(), start, start));
        self.open.push(id);
        let result = f(self);
        self.open.pop();
        self.spans[id].3 = self.origin.elapsed().as_nanos() as u64;
        result
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON line to `path`.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, (name, parent, start, end)) in self.spans.iter().enumerate() {
            let parent = parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{name}\",\"start_ns\":{start},\"end_ns\":{end}}}"
            );
        }
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Kernel and allocator counters at one instant between phases.
#[derive(Clone, Copy, Default)]
pub struct Snap {
    pub events: u64,
    pub allocs: u64,
    pub heap: u64,
    pub bytes_sent: u64,
    pub datagrams_sent: u64,
    pub drops: DropSummary,
    /// Per role: rendezvous, publishers, subscribers. Filled only when a
    /// role scan was asked for (it walks every node).
    pub timers: [u64; 3],
    pub role_sent: [u64; 3],
}

pub fn snap(scenario: &Scenario, roles: bool) -> Snap {
    let net = scenario.network();
    let total = net.total_stats();
    let mut s = Snap {
        events: net.events_processed(),
        allocs: alloc::allocs(),
        heap: alloc::live(),
        bytes_sent: total.bytes_sent,
        datagrams_sent: total.datagrams_sent,
        drops: net.drop_summary(),
        ..Snap::default()
    };
    if roles {
        let groups: [Vec<NodeId>; 3] = [
            scenario.rendezvous_ids().to_vec(),
            (0..scenario.num_publishers())
                .map(|i| scenario.publisher_id(i))
                .collect(),
            (0..scenario.num_subscribers())
                .map(|i| scenario.subscriber_id(i))
                .collect(),
        ];
        for (role, ids) in groups.iter().enumerate() {
            for &id in ids {
                let stats = net.stats_of(id);
                s.timers[role] += stats.timers_fired;
                s.role_sent[role] += stats.datagrams_sent;
            }
        }
    }
    s
}

impl std::ops::Sub for Snap {
    type Output = Snap;
    /// The counts accumulated between two snapshots (`heap` is the later one's).
    fn sub(self, earlier: Snap) -> Snap {
        let mut drops = DropSummary::default();
        for reason in DropReason::ALL {
            drops.add(reason, self.drops.of(reason) - earlier.drops.of(reason));
        }
        Snap {
            events: self.events - earlier.events,
            allocs: self.allocs - earlier.allocs,
            heap: self.heap,
            bytes_sent: self.bytes_sent - earlier.bytes_sent,
            datagrams_sent: self.datagrams_sent - earlier.datagrams_sent,
            drops,
            timers: std::array::from_fn(|i| self.timers[i] - earlier.timers[i]),
            role_sent: std::array::from_fn(|i| self.role_sent[i] - earlier.role_sent[i]),
        }
    }
}

impl std::ops::AddAssign for Snap {
    fn add_assign(&mut self, other: Snap) {
        self.events += other.events;
        self.allocs += other.allocs;
        self.heap = self.heap.max(other.heap);
        self.bytes_sent += other.bytes_sent;
        self.datagrams_sent += other.datagrams_sent;
        for reason in DropReason::ALL {
            self.drops.add(reason, other.drops.of(reason));
        }
        for i in 0..3 {
            self.timers[i] += other.timers[i];
            self.role_sent[i] += other.role_sent[i];
        }
    }
}

/// What one unit measured, in the terms every workload shares. Scenario
/// counts are deltas over a phase: `setup` is build plus warm-up, `work`
/// is everything from the first publish to the end of the checks.
#[derive(Default)]
pub struct Figures {
    pub subscribers: usize,
    pub build_s: f64,
    pub warmup_s: f64,
    /// One entry per publish wave: host seconds and subscriber copies delivered.
    pub waves: Vec<(f64, u64)>,
    /// Host time of the work phase outside the waves (failover).
    pub other_work_s: f64,
    pub teardown_s: f64,
    pub setup: Snap,
    pub work: Snap,
    /// Allocations made while building, before the first event.
    pub build_allocs: u64,
    /// Live heap above the unit's starting point after set-up and after
    /// the work, and at its peak, per subscriber.
    pub heap_setup_per_sub: f64,
    pub heap_work_per_sub: f64,
    pub peak_per_sub: Vec<f64>,
    pub publisher_copies: u64,
    pub events_published: u64,
    pub max_fanout: usize,
    /// Host seconds of each publish call.
    pub publish_s: Vec<f64>,
    /// Observability figures, when the planes were on.
    pub spans: Option<usize>,
    pub recorder_bytes: Option<usize>,
}

impl Figures {
    pub fn deliveries(&self) -> u64 {
        self.waves.iter().map(|&(_, copies)| copies).sum()
    }

    /// Pushes every end-to-end sample of this unit except `wall_s`, and in
    /// the traced run every per-layer sample.
    pub fn record(&self, report: &mut Report, traced: bool) {
        let subs = self.subscribers.max(1) as f64;
        let copies = self.deliveries().max(1) as f64;
        report.push("setup_s", "s", self.build_s + self.warmup_s);
        // All of the unit's waves together: a single wave is too little
        // work to time steadily.
        let waves_s: f64 = self.waves.iter().map(|&(host_s, _)| host_s).sum();
        report.push("deliveries_per_s", "1/s", self.deliveries() as f64 / waves_s);
        report.push(
            "wire_bytes_per_delivery",
            "B",
            self.work.bytes_sent as f64 / copies,
        );
        report.push(
            "setup_wire_bytes_per_subscriber",
            "B",
            self.setup.bytes_sent as f64 / subs,
        );
        for &m in &self.peak_per_sub {
            report.push("mem_bytes_per_subscriber", "B", m);
        }
        if !traced {
            return;
        }
        report.push("harness.build_s", "s", self.build_s);
        report.push("harness.warmup_s", "s", self.warmup_s);
        for &(host_s, _) in &self.waves {
            report.push("harness.wave_s", "s", host_s);
        }
        report.push("harness.teardown_s", "s", self.teardown_s);
        let work_s = waves_s + self.other_work_s;
        for (phase, delta, host_s) in [
            ("setup", &self.setup, self.warmup_s),
            ("work", &self.work, work_s),
        ] {
            let events = delta.events.max(1) as f64;
            report.push(format!("simnet.events.{phase}"), "count", delta.events as f64);
            report.push(
                format!("simnet.host_ns_per_event.{phase}"),
                "ns",
                host_s * 1e9 / events,
            );
            report.push(
                format!("harness.allocs_per_event.{phase}"),
                "count",
                delta.allocs as f64 / events,
            );
        }
        report.push(
            "harness.allocs_per_subscriber.build",
            "count",
            self.build_allocs as f64 / subs,
        );
        for (role, label) in ["rdv", "pub", "sub"].into_iter().enumerate() {
            report.push(
                format!("simnet.timers_fired.{label}"),
                "count",
                self.work.timers[role] as f64,
            );
        }
        let mut drops = self.setup.drops;
        for reason in DropReason::ALL {
            drops.add(reason, self.work.drops.of(reason));
        }
        for reason in DropReason::ALL {
            report.push(
                format!("simnet.drops.{}", reason.label()),
                "count",
                drops.of(reason) as f64,
            );
        }
        report.push(
            "simnet.datagrams_per_delivery",
            "count",
            self.work.datagrams_sent as f64 / copies,
        );
        report.push(
            "harness.allocs_per_delivery",
            "count",
            self.work.allocs as f64 / copies,
        );
        report.push(
            "harness.heap_bytes_per_subscriber.setup",
            "B",
            self.heap_setup_per_sub,
        );
        report.push(
            "harness.heap_bytes_per_subscriber.work",
            "B",
            self.heap_work_per_sub,
        );
        report.push(
            "dissem.publisher_copies_per_event",
            "count",
            self.publisher_copies as f64 / self.events_published.max(1) as f64,
        );
        report.push(
            "dissem.rdv_copies_per_delivery",
            "count",
            self.work.role_sent[0] as f64 / copies,
        );
        report.push("dissem.max_rdv_fanout", "count", self.max_fanout as f64);
        for &s in &self.publish_s {
            report.push("tps.publish_host_us", "us", s * 1e6);
        }
        if let Some(spans) = self.spans {
            report.push("telemetry.spans", "count", spans as f64);
        }
        if let Some(bytes) = self.recorder_bytes {
            report.push("telemetry.recorder_bytes", "B", bytes as f64);
        }
    }
}

/// The largest per-rendezvous forwarding fan-out: client leases plus mesh links.
pub fn max_fanout(scenario: &Scenario) -> usize {
    scenario
        .rendezvous_loads()
        .iter()
        .map(|&(clients, mesh)| clients + mesh)
        .max()
        .unwrap_or(0)
}

/// Every run repeats at least this many units, and the figures that repeat
/// exactly for a seed come from the first this many only.
pub const MIN_UNITS: u64 = 3;

/// Runs `unit(k)` for k = 0, 1, ... until at least [`MIN_UNITS`] have run
/// and `seconds` have passed; returns how many ran.
pub fn repeat_units(seconds: f64, mut unit: impl FnMut(u64)) -> u64 {
    let start = now();
    let mut k = 0;
    while k < MIN_UNITS || start.elapsed().as_secs_f64() < seconds {
        unit(k);
        k += 1;
    }
    k
}

/// Host seconds `f` took, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = now();
    let result = f();
    (result, start.elapsed().as_secs_f64())
}

/// Virtual-time latency samples (microseconds) reduced to the p50 and p99
/// end-to-end metrics, in milliseconds.
pub fn push_latency(report: &mut Report, latencies_us: &mut [u64]) {
    if latencies_us.is_empty() {
        report.check(false, || "no delivery latency was measured".to_owned());
        return;
    }
    latencies_us.sort_unstable();
    let pick = |q: f64| latencies_us[((latencies_us.len() - 1) as f64 * q).round() as usize] as f64 / 1000.0;
    report.push("latency_p50_ms", "ms", pick(0.5));
    report.push("latency_p99_ms", "ms", pick(0.99));
}

/// The end-to-end metrics that repeat exactly for a given seed: virtual
/// time, kernel byte counts and allocator-measured heap. (Latency is kept
/// the same way, through the run's latency samples.)
const VIRTUAL: [&str; 3] = [
    "wire_bytes_per_delivery",
    "setup_wire_bytes_per_subscriber",
    "mem_bytes_per_subscriber",
];

/// What a workload's unit works with: the run's report and spans, whether
/// this is the traced run, whether this is the run's first unit (which
/// also makes the checks that are the same on every unit), and the run's
/// virtual latency samples.
pub struct Ctx<'a> {
    pub report: &'a mut Report,
    pub spans: &'a mut Spans,
    pub traced: bool,
    pub first: bool,
    pub latencies_us: &'a mut Vec<u64>,
}

/// A workload: its unit of work, and whether its scenarios run with
/// tracing and the recorder on.
pub struct Workload {
    pub name: &'static str,
    pub observed: bool,
    pub unit: fn(&mut Ctx<'_>, u64, bool),
    /// The per-unit host time the observability planes are charged against.
    pub overhead_metric: &'static str,
}

/// Runs one more unit of `workload` on `seed` into a report of its own.
fn extra_unit(workload: &Workload, spans: &mut Spans, seed: u64, observe: bool, traced: bool) -> Report {
    let mut report = Report::default();
    let mut ctx = Ctx {
        report: &mut report,
        spans,
        traced,
        first: false,
        latencies_us: &mut Vec::new(),
    };
    (workload.unit)(&mut ctx, seed, observe);
    report
}

/// Runs `workload` for `seconds` (at least [`MIN_UNITS`] units). In the
/// traced run every unit is paired with two more on the same seed: one
/// untraced, whose host time the traced unit exceeds by the benchmark's own
/// tracing overhead, and one with the observability planes switched the
/// other way. Each overhead is the median of the per-unit differences.
pub fn run(
    workload: &Workload,
    report: &mut Report,
    spans: &mut Spans,
    seed: u64,
    seconds: f64,
    traced: bool,
) {
    let mut latencies = Vec::new();
    let metric = workload.overhead_metric;
    let units = repeat_units(seconds, |k| {
        let unit_seed = mix(seed, k);
        let kept: Vec<usize> = VIRTUAL.iter().map(|name| report.count(name)).collect();
        let kept_latencies = latencies.len();
        // The traced run rotates the measured unit and its two partners
        // through the three positions from one unit to the next, so that
        // a slowdown tied to a position does not fall on one of them.
        let variants = if traced { 3 } else { 1 };
        let (mut untraced, mut flipped) = (None, None);
        for step in 0..variants {
            match (step + k) % variants {
                0 => spans.span(format!("{}.unit", workload.name), |spans| {
                    let mut ctx = Ctx {
                        report: &mut *report,
                        spans,
                        traced,
                        first: k == 0,
                        latencies_us: &mut latencies,
                    };
                    (workload.unit)(&mut ctx, unit_seed, workload.observed);
                }),
                1 => {
                    untraced = Some(extra_unit(
                        workload,
                        &mut Spans::new(false),
                        unit_seed,
                        workload.observed,
                        false,
                    ));
                }
                _ => {
                    flipped = Some(extra_unit(
                        workload,
                        spans,
                        unit_seed,
                        !workload.observed,
                        true,
                    ));
                }
            }
        }
        // Figures that repeat exactly for a seed come from the first
        // `MIN_UNITS` units only, so they do not depend on how many units
        // the host managed in the run.
        if k >= MIN_UNITS {
            for (name, &len) in VIRTUAL.iter().zip(&kept) {
                report.truncate(name, len);
            }
            latencies.truncate(kept_latencies);
        }
        let (Some(untraced), Some(flipped)) = (untraced, flipped) else {
            return;
        };
        let this = *report.samples(metric).last().expect("every unit times itself");
        report.push("bench.trace_overhead_s", "s", this - untraced.median(metric));
        let (on, off) = if workload.observed {
            (this, flipped.median(metric))
        } else {
            (flipped.median(metric), this)
        };
        report.push("telemetry.overhead_s", "s", on - off);
        if !workload.observed {
            for name in ["telemetry.spans", "telemetry.recorder_bytes"] {
                if flipped.has(name) {
                    report.push(name, flipped.unit_of(name), flipped.median(name));
                }
            }
        }
        report.problems.extend(untraced.problems);
        report.problems.extend(flipped.problems);
    });
    push_latency(report, &mut latencies);
    let walls = report.samples("wall_s");
    let (fastest, slowest) = walls
        .iter()
        .fold((f64::MAX, 0.0f64), |(lo, hi), &w| (lo.min(w), hi.max(w)));
    println!(
        "{}: {units} units, wall_s from {fastest:.3} to {slowest:.3} s",
        workload.name
    );
    if traced {
        for name in ["bench.trace_overhead_s", "telemetry.overhead_s"] {
            let mut pairs = report.samples(name).to_vec();
            pairs.sort_by(f64::total_cmp);
            let n = pairs.len();
            println!(
                "{}: {name} on {metric}, median {:.4} s, middle half of {n} pairs from {:.4} to {:.4} s",
                workload.name,
                median(&pairs),
                pairs[n / 4],
                pairs[(3 * n) / 4],
            );
        }
    }
}

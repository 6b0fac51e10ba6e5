//! The benchmark of the TPS-over-JXTA reproduction.
//!
//! ```text
//! perfbench --workload <fanout_100k|churn_1k|dst_sweep|paper_testbed> \
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs whole units of the workload for `--seconds` (at least three),
//! checks every unit's outputs, prints each metric by name and unit, and
//! ends with one JSON line: `correct`, `attempted`, `failed` and `metrics`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` reports the
//! per-layer metrics, adds the layer probes, and writes the spans to
//! `perfbench/out/`. See `perfbench/README.md`.

mod alloc;
mod churn;
mod dst_sweep;
mod fanout;
mod paper;
mod probes;
mod util;

use std::process::ExitCode;
use util::{Opts, Report, Spans, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const WORKLOADS: [Workload; 4] = [
    fanout::WORKLOAD,
    churn::WORKLOAD,
    dst_sweep::WORKLOAD,
    paper::WORKLOAD,
];

/// The end-to-end metrics every run with `--trace 0` reports.
const END_TO_END: [&str; 8] = [
    "setup_s",
    "wall_s",
    "deliveries_per_s",
    "mem_bytes_per_subscriber",
    "latency_p50_ms",
    "latency_p99_ms",
    "wire_bytes_per_delivery",
    "setup_wire_bytes_per_subscriber",
];

/// The per-layer metrics every run with `--trace 1` reports.
fn per_layer() -> Vec<String> {
    let mut names: Vec<String> = [
        "simnet.bare_ns_per_event.d1000",
        "simnet.bare_ns_per_event.d10000",
        "simnet.bare_ns_per_event.d100000",
        "simnet.events.setup",
        "simnet.events.work",
        "simnet.host_ns_per_event.setup",
        "simnet.host_ns_per_event.work",
        "simnet.timers_fired.rdv",
        "simnet.timers_fired.pub",
        "simnet.timers_fired.sub",
        "simnet.datagrams_per_delivery",
        "dissem.publisher_copies_per_event",
        "dissem.rdv_copies_per_delivery",
        "dissem.max_rdv_fanout",
        "jxta.wire.envelope_bytes.WireData",
        "jxta.message.decode_allocs",
        "jxta.xml.parse_ns.peer_adv",
        "jxta.xml.parse_allocs.peer_adv",
        "tps.codec.encode_ns",
        "tps.codec.decode_ns",
        "tps.codec.upcast_ns",
        "tps.codec.encode_allocs",
        "tps.codec.decode_allocs",
        "tps.codec.upcast_allocs",
        "tps.publish_host_us",
        "telemetry.spans",
        "telemetry.recorder_bytes",
        "telemetry.overhead_s",
        "harness.build_s",
        "harness.warmup_s",
        "harness.wave_s",
        "harness.teardown_s",
        "harness.allocs_per_delivery",
        "harness.allocs_per_subscriber.build",
        "harness.allocs_per_event.setup",
        "harness.allocs_per_event.work",
        "harness.heap_bytes_per_subscriber.setup",
        "harness.heap_bytes_per_subscriber.work",
        "bench.trace_overhead_s",
    ]
    .map(str::to_owned)
    .to_vec();
    for reason in simnet::DropReason::ALL {
        names.push(format!("simnet.drops.{}", reason.label()));
    }
    for kind in [
        "WireData",
        "Relay",
        "RendezvousConnect",
        "RendezvousLease",
        "LoadReport",
        "MeshLink",
    ] {
        for what in [
            "encode_ns",
            "decode_ns",
            "encode_allocs",
            "decode_allocs",
            "frame_bytes",
        ] {
            names.push(format!("jxta.wire.{what}.{kind}"));
        }
    }
    names
}

fn parse_args() -> Result<Opts, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = WORKLOADS.iter().find(|w| w.name == opts.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("perfbench: unknown workload {}; one of {names:?}", opts.workload);
        return ExitCode::from(2);
    };

    let mut report = Report::default();
    let mut spans = Spans::new(opts.trace);
    if opts.trace {
        spans.span("probes", |_| probes::run(&mut report, opts.seed));
    }
    util::run(
        workload,
        &mut report,
        &mut spans,
        opts.seed,
        opts.seconds,
        opts.trace,
    );
    if opts.trace {
        let path = format!("perfbench/out/spans-{}-{}.jsonl", workload.name, opts.seed);
        match spans.write(&path) {
            Ok(()) => println!("wrote {} spans to {path}", spans.len()),
            Err(e) => report.check(false, || format!("writing {path}: {e}")),
        }
    }

    let declared: Vec<String> = if opts.trace {
        per_layer()
    } else {
        END_TO_END.map(str::to_owned).to_vec()
    };
    let values = report.values();
    let mut metrics = Vec::new();
    for (name, unit, value) in &values {
        let listed = declared.contains(name);
        println!("{}{name} = {value} {unit}", if listed { "" } else { "(extra) " });
        if listed {
            report.check(value.is_finite(), || format!("{name} is not finite: {value}"));
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
    }
    for name in &declared {
        report.check(values.iter().any(|(n, _, _)| n == name), || {
            format!("metric {name} was not measured")
        });
    }
    println!(
        "attempted {} failed {} correct {}",
        report.attempted,
        report.failed,
        report.problems.is_empty()
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.problems.is_empty(),
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

//! `churn_1k`: a 4-shard rendezvous mesh, 8 SR-TPS publishers and 1 000
//! full-stack SR-TPS subscribers with tracing, the flight recorder and the
//! stock SLO rules on. The run warms up, publishes one wave, kills one
//! rendezvous for good, waits until its former clients have failed over to
//! the ring adopter, then publishes probe waves.
//!
//! One unit is one such scenario.

use crate::alloc;
use crate::util::{max_fanout, now, snap, timed, Ctx, Figures, Snap, Workload};
use jxta::peer::{CostModel, PeerConfig};
use jxta::services::rendezvous::DEFAULT_LEASE;
use jxta::telemetry::series::RecorderConfig;
use jxta::telemetry::trace::{SpanKind, TraceId};
use simnet::{NodeId, SimDuration, SimTime};
use ski_rental::{DisseminationConfig, Flavor, Scenario};
use std::collections::{BTreeMap, BTreeSet};

pub const WORKLOAD: Workload = Workload {
    name: "churn_1k",
    observed: true,
    unit,
    overhead_metric: "wall_s",
};

const SHARDS: usize = 4;
const PUBLISHERS: usize = 8;
const SUBSCRIBERS: usize = 1_000;
const PROBE_WAVES: usize = 4;
/// Every wave is one event per publisher: one before the kill, the probes after.
const WAVES: usize = 1 + PROBE_WAVES;
const TRACE_CAPACITY: usize = 1 << 19;
const WAVE_DRAIN: SimDuration = SimDuration::from_secs(2);
/// How often the failover is polled, and how long the poll goes on before
/// the unit gives up on it.
const FAILOVER_STEP: SimDuration = SimDuration::from_millis(250);
const FAILOVER_LIMIT: SimDuration = SimDuration::from_secs(240);
/// Virtual time between the last re-lease and the first probe wave.
const SETTLE: SimDuration = SimDuration::from_secs(5);

/// The ring adopter of shard `victim`: the next shard in ring order. The
/// ring sorts rendezvous by address, and the harness assigns addresses in
/// shard order, so ring order is shard order.
fn ring_adopter(victim: usize) -> usize {
    (victim + 1) % SHARDS
}

/// The longest a failover may take: a client's lease, granted at most
/// just before the kill, runs out; the client notices at its next
/// housekeeping check, re-leases within a round trip, and the poll sees it
/// one step later.
fn recovery_limit() -> SimDuration {
    DEFAULT_LEASE
        .saturating_add(PeerConfig::edge("client").housekeeping_interval)
        .saturating_add(FAILOVER_STEP)
}

/// One publish wave: every publisher publishes one event at the same
/// virtual instant, then the wave drains. The clock moves on by the
/// slowest publisher's charged time plus the drain.
fn wave(
    scenario: &mut Scenario,
    ctx: &mut Ctx<'_>,
    fig: &mut Figures,
    at: &mut Vec<SimTime>,
    name: &str,
) -> Snap {
    let before = snap(scenario, ctx.traced);
    at.push(scenario.now());
    let ((), host_s) = ctx.spans.span(name, |_| {
        timed(|| {
            let mut slowest = SimDuration::ZERO;
            for publisher in 0..PUBLISHERS {
                let (charged, publish_s) = timed(|| scenario.publish_without_advancing(publisher));
                fig.publish_s.push(publish_s);
                slowest = slowest.max(charged);
            }
            scenario.advance(slowest.saturating_add(WAVE_DRAIN));
        })
    });
    fig.events_published += PUBLISHERS as u64;
    let after = snap(scenario, ctx.traced);
    fig.work += after - before;
    fig.publisher_copies += after.role_sent[1] - before.role_sent[1];
    fig.waves.push((host_s, 0));
    after
}

fn unit(ctx: &mut Ctx<'_>, seed: u64, observe: bool) {
    let unit_start = now();
    // The unit's own records are sized ahead of the peak window, so the
    // peak is the program's alone.
    let mut fig = Figures {
        subscribers: SUBSCRIBERS,
        waves: Vec::with_capacity(WAVES),
        publish_s: Vec::with_capacity(WAVES * PUBLISHERS),
        ..Figures::default()
    };
    let mut wave_at: Vec<SimTime> = Vec::with_capacity(WAVES);
    let limit = recovery_limit();
    let base_heap = alloc::live();
    alloc::reset_peak();
    let before_build = alloc::allocs();

    let (mut scenario, build_s) = ctx.spans.span("harness.build", |_| {
        timed(|| {
            let mut scenario = Scenario::build_sharded(
                Flavor::SrTps,
                DisseminationConfig::rendezvous_mesh(SHARDS),
                SHARDS,
                PUBLISHERS,
                SUBSCRIBERS,
                seed,
                CostModel::free(),
            );
            if observe {
                scenario.enable_tracing(TRACE_CAPACITY);
                scenario.enable_recorder(RecorderConfig::default_cadence());
                scenario.add_standard_slo_rules();
            }
            scenario
        })
    });
    fig.build_s = build_s;
    let s0 = snap(&scenario, ctx.traced);
    fig.build_allocs = s0.allocs - before_build;
    let ((), warmup_s) = ctx.spans.span("harness.warmup", |_| timed(|| scenario.warm_up()));
    fig.warmup_s = warmup_s;
    let s1 = snap(&scenario, ctx.traced);
    fig.setup = s1 - s0;
    fig.heap_setup_per_sub = (s1.heap - base_heap) as f64 / SUBSCRIBERS as f64;
    let edges: Vec<NodeId> = (0..PUBLISHERS)
        .map(|i| scenario.publisher_id(i))
        .chain((0..SUBSCRIBERS).map(|i| scenario.subscriber_id(i)))
        .collect();
    let unleased = edges.iter().filter(|&&e| scenario.shard_of(e).is_none()).count();
    ctx.report.check(unleased == 0, || {
        format!("{unleased} edges hold no lease after warm-up")
    });

    let last = wave(&mut scenario, ctx, &mut fig, &mut wave_at, "harness.wave");

    // Kill one rendezvous for good and wait until every one of its former
    // clients holds a lease with the ring adopter.
    let victim = (seed % SHARDS as u64) as usize;
    let victim_node = scenario.rendezvous_ids()[victim];
    let adopter_node = scenario.rendezvous_ids()[ring_adopter(victim)];
    let former: Vec<NodeId> = edges
        .iter()
        .copied()
        .filter(|&e| scenario.shard_of(e) == Some(victim_node))
        .collect();
    ctx.report.check(!former.is_empty(), || {
        format!("rendezvous {victim} had no clients to fail over")
    });
    let kill_at = scenario.now();
    let ((), failover_s) = ctx.spans.span("harness.failover", |_| {
        timed(|| {
            scenario.network_mut().shutdown_node(victim_node);
            while scenario.now().saturating_since(kill_at) < FAILOVER_LIMIT
                && !former.iter().all(|&e| scenario.shard_of(e) == Some(adopter_node))
            {
                scenario.advance(FAILOVER_STEP);
            }
        })
    });
    let recovered_at = scenario.now();
    let moved = former
        .iter()
        .filter(|&&e| scenario.shard_of(e) == Some(adopter_node))
        .count();
    ctx.report.check(moved == former.len(), || {
        format!(
            "{moved} of {} former clients re-leased with the ring adopter",
            former.len()
        )
    });
    scenario.advance(SETTLE);
    let settled = snap(&scenario, ctx.traced);
    fig.work += settled - last;
    fig.other_work_s = failover_s;
    let recovery = recovered_at.saturating_since(kill_at);
    let recovery_s = recovery.as_secs_f64();
    ctx.report.check(recovery > SimDuration::ZERO && recovery <= limit, || {
        format!(
            "recovery took {recovery_s} s, not within (0, {}] s",
            limit.as_secs_f64()
        )
    });

    for _ in 0..PROBE_WAVES {
        wave(&mut scenario, ctx, &mut fig, &mut wave_at, "harness.probe");
    }
    fig.heap_work_per_sub = (alloc::live() - base_heap) as f64 / SUBSCRIBERS as f64;
    fig.peak_per_sub
        .push((alloc::peak() - base_heap) as f64 / SUBSCRIBERS as f64);

    // Exactly once per (subscriber, event): counts from the subscribers,
    // and one `Delivered` span per pair when tracing is on.
    let expected = PUBLISHERS * WAVES;
    let mut per_wave = vec![0u64; WAVES];
    let mut failed = 0u64;
    for i in 0..SUBSCRIBERS {
        let times = scenario.received_times(i);
        failed += times.len().abs_diff(expected) as u64;
        for at in times {
            // The wave a receipt belongs to: the last one published before it.
            if let Some(w) = wave_at.iter().rposition(|&published| published <= at) {
                per_wave[w] += 1;
                ctx.latencies_us.push(at.saturating_since(wave_at[w]).as_micros());
            }
        }
    }
    for (entry, delivered) in fig.waves.iter_mut().zip(per_wave) {
        entry.1 = delivered;
    }
    if observe {
        let tracer = scenario.tracer().expect("tracing is on").borrow();
        let handles: BTreeMap<u64, usize> = (0..SUBSCRIBERS)
            .filter_map(|i| Some((scenario.trace_handle_of(scenario.subscriber_id(i))?, i)))
            .collect();
        let mut delivered: BTreeMap<(usize, TraceId), u32> = BTreeMap::new();
        let mut ids = BTreeSet::new();
        for span in tracer.spans() {
            match span.kind {
                SpanKind::Published => {
                    ids.insert(span.id);
                }
                SpanKind::Delivered => {
                    if let Some(&sub) = handles.get(&span.node) {
                        *delivered.entry((sub, span.id)).or_default() += 1;
                    }
                }
                _ => {}
            }
        }
        ctx.report.check(ids.len() == expected, || {
            format!("{} events traced, expected {expected}", ids.len())
        });
        let not_once = (0..SUBSCRIBERS)
            .flat_map(|sub| ids.iter().map(move |&id| (sub, id)))
            .filter(|pair| delivered.get(pair).copied() != Some(1))
            .count();
        ctx.report.check(not_once == 0, || {
            format!("{not_once} (subscriber, event) pairs not delivered exactly once")
        });
        fig.spans = Some(tracer.len());
        fig.recorder_bytes = scenario.recorder().map(|r| r.approx_bytes());
    }
    ctx.report.attempted += (SUBSCRIBERS * expected) as u64;
    ctx.report.failed += failed;
    fig.max_fanout = max_fanout(&scenario);
    println!(
        "churn_1k: recovery_s {recovery_s:.3} virtual s after rendezvous {victim} died ({} clients moved); \
         failover took {failover_s:.3} host s",
        former.len()
    );

    let ((), teardown_s) = ctx.spans.span("harness.teardown", |_| timed(|| drop(scenario)));
    fig.teardown_s = teardown_s;
    fig.record(ctx.report, ctx.traced);
    ctx.report.push("wall_s", "s", unit_start.elapsed().as_secs_f64());
}

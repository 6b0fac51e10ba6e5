//! `fanout_100k`: a 4-shard rendezvous mesh, one SR-TPS publisher and
//! 100 000 flyweight subscribers, driven by closed-loop publish waves.
//!
//! One unit is one scenario: build, warm-up until every flyweight holds a
//! lease, `WAVES` publish waves (each drained and checked before the next).
//!
//! With the observability planes on (the traced run's comparison unit),
//! only the flight recorder and the stock SLO rules are switched on. The
//! tracing plane stays off: with it, a rendezvous classifies every
//! fan-down copy by scanning its whole client list, and one unit takes
//! about 110 s instead of 6 s.

use crate::alloc;
use crate::util::{max_fanout, now, snap, timed, Ctx, Figures, Workload};
use jxta::telemetry::series::RecorderConfig;
use jxta::Uuid;
use simnet::{LinkSpec, SimDuration};
use ski_rental::Scenario;
use std::collections::BTreeSet;

pub const WORKLOAD: Workload = Workload {
    name: "fanout_100k",
    observed: false,
    unit,
    overhead_metric: "wall_s",
};

const SHARDS: usize = 4;
const SUBSCRIBERS: usize = 100_000;
const WAVES: usize = 4;
/// Virtual warm-up: long enough for every lease to be granted.
const WARM_UP: SimDuration = SimDuration::from_secs(8);
/// Virtual time a wave is given to drain: every copy lands within about
/// 30 virtual milliseconds, and the flyweights' 45 s housekeeping timers
/// keep idle time nearly free.
const WAVE_DRAIN: SimDuration = SimDuration::from_secs(1);
/// Fewest hops from publisher to flyweight: publisher → rendezvous → edge.
const MIN_HOPS: u64 = 2;

fn unit(ctx: &mut Ctx<'_>, seed: u64, observe: bool) {
    let unit_start = now();
    // Room for the unit's latency samples ahead of the peak window, so the
    // peak is the program's alone.
    ctx.latencies_us.reserve(SUBSCRIBERS * WAVES);
    let base_heap = alloc::live();
    alloc::reset_peak();
    let before_build = alloc::allocs();
    let mut fig = Figures {
        subscribers: SUBSCRIBERS,
        ..Figures::default()
    };

    let (mut scenario, build_s) = ctx.spans.span("harness.build", |_| {
        timed(|| {
            let mut scenario = Scenario::build_flyweight_mesh(SHARDS, 1, SUBSCRIBERS, seed);
            if observe {
                scenario.enable_recorder(RecorderConfig::default_cadence());
                scenario.add_standard_slo_rules();
            }
            scenario
        })
    });
    fig.build_s = build_s;
    let s0 = snap(&scenario, ctx.traced);
    fig.build_allocs = s0.allocs - before_build;
    let ((), warmup_s) = ctx
        .spans
        .span("harness.warmup", |_| timed(|| scenario.advance(WARM_UP)));
    fig.warmup_s = warmup_s;
    let s1 = snap(&scenario, ctx.traced);
    fig.setup = s1 - s0;
    fig.heap_setup_per_sub = (s1.heap - base_heap) as f64 / SUBSCRIBERS as f64;

    // Every flyweight leased, and every shard serves someone.
    let mut per_shard = vec![0usize; SHARDS];
    let mut unleased = 0;
    for i in 0..SUBSCRIBERS {
        let shard = scenario
            .shard_of(scenario.subscriber_id(i))
            .and_then(|node| scenario.rendezvous_ids().iter().position(|&r| r == node));
        match shard {
            Some(shard) => per_shard[shard] += 1,
            None => unleased += 1,
        }
    }
    ctx.report.check(unleased == 0, || {
        format!("{unleased} flyweights hold no lease after warm-up")
    });
    ctx.report.check(per_shard.iter().all(|&n| n > 0), || {
        format!("a shard serves no subscriber: {per_shard:?}")
    });

    // Closed-loop waves: publish one event, let it drain, check it.
    let lan = LinkSpec::lan();
    let min_latency_us = MIN_HOPS * (lan.latency.as_micros() - lan.jitter.as_micros());
    let mut seen_ids: BTreeSet<Uuid> = BTreeSet::new();
    for wave in 0..WAVES {
        let published_at = scenario.now();
        let ((), wave_s) = ctx.spans.span("harness.wave", |_| {
            timed(|| {
                let publisher = scenario.publisher_id(0);
                let sent = scenario.network().stats_of(publisher).datagrams_sent;
                let (charged, publish_s) = timed(|| scenario.publish_without_advancing(0));
                fig.publisher_copies += scenario.network().stats_of(publisher).datagrams_sent - sent;
                fig.publish_s.push(publish_s);
                scenario.advance(charged.saturating_add(WAVE_DRAIN));
            })
        });
        fig.events_published += 1;
        // Exactly one new mailbox entry per flyweight, all carrying one id
        // that no earlier wave used.
        let mut ids: BTreeSet<Uuid> = BTreeSet::new();
        let mut wrong = 0u64;
        let mut too_early = 0u64;
        for i in 0..SUBSCRIBERS {
            let mailbox = scenario
                .flyweight(i)
                .expect("fan-out subscribers are flyweights")
                .mailbox();
            if mailbox.len() != wave + 1 {
                wrong += 1;
                continue;
            }
            let (at, id) = mailbox[wave];
            ids.insert(id);
            let latency = at.saturating_since(published_at).as_micros();
            too_early += u64::from(latency < min_latency_us);
            ctx.latencies_us.push(latency);
        }
        ctx.report.attempted += SUBSCRIBERS as u64;
        ctx.report.failed += wrong;
        ctx.report.check(too_early == 0, || {
            format!(
                "wave {wave}: {too_early} receipts came sooner than {min_latency_us} us after the publish"
            )
        });
        ctx.report.check(ids.len() == 1, || {
            format!("wave {wave} delivered {} distinct ids", ids.len())
        });
        ctx.report.check(ids.iter().all(|id| seen_ids.insert(*id)), || {
            format!("wave {wave} repeated an earlier wave's id")
        });
        fig.waves.push((wave_s, SUBSCRIBERS as u64 - wrong));
    }
    fig.peak_per_sub
        .push((alloc::peak() - base_heap) as f64 / SUBSCRIBERS as f64);
    let s2 = snap(&scenario, ctx.traced);
    fig.work = s2 - s1;
    let deliveries = fig.deliveries();
    ctx.report.check(deliveries == (SUBSCRIBERS * WAVES) as u64, || {
        format!("{deliveries} deliveries, expected {}", SUBSCRIBERS * WAVES)
    });
    fig.heap_work_per_sub = (s2.heap - base_heap) as f64 / SUBSCRIBERS as f64;
    fig.max_fanout = max_fanout(&scenario);
    if observe {
        fig.spans = Some(scenario.tracer().map_or(0, |t| t.borrow().len()));
        fig.recorder_bytes = scenario.recorder().map(|r| r.approx_bytes());
    }

    let ((), teardown_s) = ctx.spans.span("harness.teardown", |_| timed(|| drop(scenario)));
    fig.teardown_s = teardown_s;
    fig.record(ctx.report, ctx.traced);
    ctx.report.push("wall_s", "s", unit_start.elapsed().as_secs_f64());
}

//! `dst_sweep`: `dst::sweep` over a fixed range of fault-explorer seeds,
//! with the default generator bounds and no minimisation.
//!
//! One unit is one pass over the range. Each pass sweeps it with
//! `dst::sweep` (timed: `wall_s`). The run's first pass also runs every seed
//! once more on its own with `dst::run_schedule`, and checks the report
//! against figures computed here from the generated schedule.
//! `run_schedule` returns only its verdict, so the set-up, latency and
//! wire figures come from a replay of each seed's healthy phase: the
//! seed's topology built, warmed up and sent one wave before any fault, on
//! a network seeded from the benchmark seed. The range is fixed so that
//! every run sweeps the same mix of topologies; the benchmark seed varies
//! the replays.

use crate::alloc;
use crate::util::{max_fanout, mix, snap, timed, Ctx, Figures, Workload};
use dst::{Fault, FaultSchedule, GenConfig, StrategyKind, Target};
use jxta::peer::CostModel;
use jxta::telemetry::series::RecorderConfig;
use simnet::SimDuration;
use ski_rental::{DisseminationConfig, Scenario};
use std::collections::BTreeMap;
use std::ops::Range;

pub const WORKLOAD: Workload = Workload {
    name: "dst_sweep",
    observed: true,
    unit,
    overhead_metric: "dst.replay_s",
};

/// The explorer seeds every pass sweeps. `cargo run --release -p dst --
/// --seeds 0..3000` was clean when this range was chosen.
pub const SEEDS: Range<u64> = 0..80;
/// Probe events every publisher sends in a schedule's probe wave
/// (`docs/dst.md`, "probe").
const PROBE_EVENTS_PER_PUBLISHER: usize = 2;
const TRACE_CAPACITY: usize = 1 << 17;
const WAVE_DRAIN: SimDuration = SimDuration::from_secs(5);

/// Subscribers alive at the end of `schedule`: those whose last kill was
/// not followed by a revive.
fn live_subscribers(schedule: &FaultSchedule) -> usize {
    let mut alive: BTreeMap<usize, bool> = BTreeMap::new();
    for &(_, fault) in &schedule.faults {
        match fault {
            Fault::Kill(Target::Sub(i)) => {
                alive.insert(i, false);
            }
            Fault::Revive(Target::Sub(i)) => {
                alive.insert(i, true);
            }
            _ => {}
        }
    }
    schedule.topology.subscribers - alive.values().filter(|&&up| !up).count()
}

fn unit(ctx: &mut Ctx<'_>, unit_seed: u64, observe: bool) {
    let cfg = GenConfig::default();
    let (sweep, sweep_s) = ctx
        .spans
        .span("dst.sweep", |_| timed(|| dst::sweep(SEEDS, &cfg, false)));
    ctx.report.attempted += SEEDS.end - SEEDS.start;
    ctx.report.failed += sweep.failures.len() as u64;
    if !sweep.clean() {
        println!("{}", sweep.render());
    }
    let mut fig = Figures::default();
    let mut replays_s = 0.0;
    for seed in SEEDS {
        let (schedule, generate_s) = timed(|| dst::generate_with(seed, &cfg));
        // The per-seed checks are the same on every pass: run them once.
        if ctx.first {
            check_seed(ctx, &mut fig, &schedule, &sweep, generate_s);
        }
        let ((), replay_s) =
            timed(|| replay_healthy_phase(ctx, &mut fig, &schedule, mix(unit_seed, seed), observe));
        replays_s += replay_s;
    }
    ctx.report.push("dst.replay_s", "s", replays_s);
    fig.record(ctx.report, ctx.traced);
    ctx.report
        .push("seeds_per_s", "1/s", (SEEDS.end - SEEDS.start) as f64 / sweep_s);
    ctx.report.push("wall_s", "s", sweep_s);
}

/// Runs one seed on its own and checks its report against the schedule.
fn check_seed(
    ctx: &mut Ctx<'_>,
    fig: &mut Figures,
    schedule: &FaultSchedule,
    sweep: &dst::SweepReport,
    generate_s: f64,
) {
    let seed = schedule.seed;
    let base_heap = alloc::live();
    alloc::reset_peak();
    let (run, run_s) = ctx.spans.span(format!("dst.seed.{seed}"), |_| {
        timed(|| dst::run_schedule(schedule))
    });
    let topo = schedule.topology;
    fig.peak_per_sub
        .push((alloc::peak() - base_heap) as f64 / topo.subscribers as f64);
    if ctx.traced {
        ctx.report.push("dst.generate_us", "us", generate_s * 1e6);
        ctx.report.push("dst.seed_s", "s", generate_s + run_s);
    }
    ctx.report.check(
        run.passed() == sweep.failures.iter().all(|f| f.seed != seed),
        || format!("seed {seed}: run_schedule and sweep disagree"),
    );
    let probe_events = topo.publishers * PROBE_EVENTS_PER_PUBLISHER;
    ctx.report.check(run.probe_events == probe_events, || {
        format!(
            "seed {seed}: {} probe events reported, {probe_events} expected",
            run.probe_events
        )
    });
    let live = live_subscribers(schedule);
    ctx.report.check(run.live_subscribers == live, || {
        format!(
            "seed {seed}: {} live subscribers reported, {live} expected",
            run.live_subscribers
        )
    });
}

/// Builds and warms up `schedule`'s topology the way `dst::run_schedule`
/// does, on a network seeded with `net_seed`, then publishes one wave on
/// the healthy deployment (every publisher at the same instant) and drains
/// it, adding the figures to `fig`.
fn replay_healthy_phase(
    ctx: &mut Ctx<'_>,
    fig: &mut Figures,
    schedule: &FaultSchedule,
    net_seed: u64,
    observe: bool,
) {
    let topo = schedule.topology;
    let base_heap = alloc::live();
    let before_build = alloc::allocs();
    let (mut scenario, build_s) = ctx.spans.span("harness.build", |_| {
        timed(|| {
            let dissemination = match topo.kind {
                StrategyKind::RendezvousMesh => DisseminationConfig::rendezvous_mesh(topo.shards),
                kind => DisseminationConfig::of_kind(kind),
            };
            let mut scenario = Scenario::build_sharded(
                topo.flavor,
                dissemination,
                topo.shards,
                topo.publishers,
                topo.subscribers,
                net_seed,
                CostModel::free(),
            );
            if observe {
                scenario.enable_tracing(TRACE_CAPACITY);
                scenario.enable_recorder(RecorderConfig::default_cadence());
            }
            scenario
        })
    });
    let s0 = snap(&scenario, ctx.traced);
    let ((), warmup_s) = ctx.spans.span("harness.warmup", |_| timed(|| scenario.warm_up()));
    let s1 = snap(&scenario, ctx.traced);
    let published_at = scenario.now();
    let ((), wave_s) = ctx.spans.span("harness.wave", |_| {
        timed(|| {
            let mut slowest = SimDuration::ZERO;
            for publisher in 0..topo.publishers {
                let (charged, publish_s) = timed(|| scenario.publish_without_advancing(publisher));
                fig.publish_s.push(publish_s);
                slowest = slowest.max(charged);
            }
            scenario.advance(slowest.saturating_add(WAVE_DRAIN));
        })
    });
    let s2 = snap(&scenario, ctx.traced);
    let mut delivered = 0u64;
    for i in 0..topo.subscribers {
        for at in scenario.received_times(i) {
            delivered += 1;
            ctx.latencies_us
                .push(at.saturating_since(published_at).as_micros());
        }
    }
    fig.subscribers += topo.subscribers;
    fig.build_s += build_s;
    fig.warmup_s += warmup_s;
    fig.build_allocs += s0.allocs - before_build;
    fig.setup += s1 - s0;
    fig.work += s2 - s1;
    fig.waves.push((wave_s, delivered));
    fig.events_published += topo.publishers as u64;
    fig.publisher_copies += s2.role_sent[1] - s1.role_sent[1];
    fig.max_fanout = fig.max_fanout.max(max_fanout(&scenario));
    // The largest of the replays, as on `paper_testbed`.
    let per_sub = |heap: u64| heap.saturating_sub(base_heap) as f64 / topo.subscribers as f64;
    fig.heap_setup_per_sub = fig.heap_setup_per_sub.max(per_sub(s1.heap));
    fig.heap_work_per_sub = fig.heap_work_per_sub.max(per_sub(s2.heap));
    if observe {
        fig.spans = Some(fig.spans.unwrap_or(0) + scenario.tracer().map_or(0, |t| t.borrow().len()));
        fig.recorder_bytes =
            Some(fig.recorder_bytes.unwrap_or(0) + scenario.recorder().map_or(0, |r| r.approx_bytes()));
    }
    let ((), teardown_s) = ctx.spans.span("harness.teardown", |_| timed(|| drop(scenario)));
    fig.teardown_s += teardown_s;
}

//! `paper_testbed`: the paper's Figure 18, 19 and 20 experiments, on one
//! rendezvous with direct fan-out and `CostModel::jxta_1_0`, for the three
//! flavours at 1 and 4 subscribers (Figures 18, 19) or publishers (20).
//!
//! One unit is the full set of 18 series for one seed. Each series is
//! built, warmed up and driven here through the harness's public calls, so
//! that set-up and publishing are timed apart; the figures are the ones
//! `ski_rental::invocation_time`, `publisher_throughput` and
//! `subscriber_throughput` compute.

use crate::alloc;
use crate::util::{max_fanout, now, snap, timed, Ctx, Figures, Workload};
use jxta::telemetry::series::RecorderConfig;
use jxta::telemetry::trace::DEFAULT_TRACE_CAPACITY;
use simnet::{SimDuration, SimTime};
use ski_rental::{Flavor, OfferGenerator, Scenario, SkiNode, SkiRental};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

pub const WORKLOAD: Workload = Workload {
    name: "paper_testbed",
    observed: false,
    unit,
    overhead_metric: "wall_s",
};

const FLAVORS: [Flavor; 3] = [Flavor::JxtaWire, Flavor::SrJxta, Flavor::SrTps];
const COUNTS: [usize; 2] = [1, 4];
/// Figure 18: back-to-back publications per series (as in the repository's
/// figure-shape test).
const FIG18_EVENTS: usize = 40;
/// Figure 19: events per epoch, and epochs.
const FIG19_EVENTS: usize = 10;
const FIG19_EPOCHS: usize = 3;
/// Figure 20: virtual seconds of flooding.
const FIG20_SECONDS: u64 = 20;
/// Virtual time after the last publish for copies still in flight.
const DRAIN: SimDuration = SimDuration::from_secs(5);
/// The most subscribers any series holds.
const MAX_SUBSCRIBERS: usize = 4;

#[derive(Clone, Copy, PartialEq)]
enum Figure {
    InvocationTime,
    PublishRate,
    ReceiveRate,
}

/// One series' scenario with its own offer stream: the same stream the
/// harness's scenario draws from for the same seed.
struct Series {
    scenario: Scenario,
    offers: OfferGenerator,
    /// Per publish call: the offer's key, the virtual instant and the
    /// call's host seconds. Sized before the series starts, so that it
    /// stays out of the series' peak heap.
    published: Vec<(u64, SimTime, f64)>,
}

/// A fixed 64-bit digest of an offer, to pair receipts with publishes
/// without keeping the offers themselves.
fn offer_key(offer: &SkiRental) -> u64 {
    let mut h = DefaultHasher::new();
    offer.shop.hash(&mut h);
    offer.brand.hash(&mut h);
    offer.price.to_bits().hash(&mut h);
    offer.number_of_days.to_bits().hash(&mut h);
    h.finish()
}

impl Series {
    /// Publishes one offer from publisher `index` without advancing the
    /// clock. Returns the virtual CPU time the call consumed; a publish
    /// that errs counts as a failed operation.
    fn publish(&mut self, ctx: &mut Ctx<'_>, fig: &mut Figures, index: usize) -> SimDuration {
        let offer = self.offers.next_offer();
        let node = self.scenario.publisher_id(index);
        let ((result, charged), host_s) = timed(|| {
            self.scenario
                .network_mut()
                .invoke::<SkiNode, _>(node, |peer, nctx| {
                    (peer.publish_offer(nctx, &offer), nctx.charged())
                })
        });
        ctx.report.attempted += 1;
        if let Err(e) = result {
            ctx.report.failed += 1;
            eprintln!("publish failed: {e}");
        }
        fig.events_published += 1;
        self.published
            .push((offer_key(&offer), self.scenario.now(), host_s));
        charged
    }

    /// Pairs every receipt with the latest equal offer published before it,
    /// pushing its latency; returns the copies delivered.
    fn receipts(&self, ctx: &mut Ctx<'_>) -> u64 {
        let mut delivered = 0;
        for i in 0..self.scenario.num_subscribers() {
            let offers = self
                .scenario
                .network()
                .node_ref::<SkiNode>(self.scenario.subscriber_id(i))
                .expect("subscriber exists")
                .received_offers();
            for (offer, at) in offers.iter().zip(self.scenario.received_times(i)) {
                delivered += 1;
                let key = offer_key(offer);
                if let Some((_, sent, _)) = self
                    .published
                    .iter()
                    .rev()
                    .find(|(k, sent, _)| *k == key && *sent <= at)
                {
                    ctx.latencies_us.push(at.saturating_since(*sent).as_micros());
                }
            }
        }
        delivered
    }
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Runs one series and returns its virtual figure.
fn series(
    ctx: &mut Ctx<'_>,
    fig: &mut Figures,
    figure: Figure,
    flavor: Flavor,
    count: usize,
    seed: u64,
    observe: bool,
) -> f64 {
    let (publishers, subscribers) = match figure {
        Figure::ReceiveRate => (count, 1),
        _ => (1, count),
    };
    let most_publishes = match figure {
        Figure::InvocationTime => FIG18_EVENTS,
        Figure::PublishRate => FIG19_EVENTS * FIG19_EPOCHS,
        // Every flooding round moves the clock on by at least a millisecond.
        Figure::ReceiveRate => publishers * (FIG20_SECONDS as usize * 1000 + 1),
    };
    let published = Vec::with_capacity(most_publishes);
    let before_build = alloc::allocs();
    let base_heap = alloc::live();
    alloc::reset_peak();
    let (scenario, build_s) = ctx.spans.span("harness.build", |_| {
        timed(|| {
            let mut scenario = Scenario::build(flavor, publishers, subscribers, seed);
            if observe {
                scenario.enable_tracing(DEFAULT_TRACE_CAPACITY);
                scenario.enable_recorder(RecorderConfig::default_cadence());
            }
            scenario
        })
    });
    let mut s = Series {
        scenario,
        offers: OfferGenerator::new(seed ^ 0x5EED),
        published,
    };
    let s0 = snap(&s.scenario, ctx.traced);
    let ((), warmup_s) = ctx
        .spans
        .span("harness.warmup", |_| timed(|| s.scenario.warm_up()));
    let s1 = snap(&s.scenario, ctx.traced);

    let work_start = now();
    let value = match figure {
        Figure::InvocationTime => {
            let mut times = Vec::with_capacity(FIG18_EVENTS);
            for _ in 0..FIG18_EVENTS {
                let charged = s.publish(ctx, fig, 0);
                times.push(charged.as_millis_f64());
                s.scenario.advance(charged);
            }
            mean(&times)
        }
        Figure::PublishRate => {
            let mut rates = Vec::with_capacity(FIG19_EPOCHS);
            for _ in 0..FIG19_EPOCHS {
                let start = s.scenario.now();
                for _ in 0..FIG19_EVENTS {
                    let charged = s.publish(ctx, fig, 0);
                    s.scenario.advance(charged);
                }
                rates.push(FIG19_EVENTS as f64 / s.scenario.now().saturating_since(start).as_secs_f64());
            }
            mean(&rates)
        }
        Figure::ReceiveRate => {
            // Publishers flood concurrently: each round every publisher
            // publishes at the same instant, and the clock advances by the
            // slowest one's busy time.
            let start = s.scenario.now();
            let end = start + SimDuration::from_secs(FIG20_SECONDS);
            while s.scenario.now() < end {
                let mut slowest = SimDuration::ZERO;
                for publisher in 0..publishers {
                    slowest = slowest.max(s.publish(ctx, fig, publisher));
                }
                s.scenario
                    .advance(slowest.saturating_add(SimDuration::from_millis(1)));
            }
            let received = s
                .scenario
                .received_times(0)
                .into_iter()
                .filter(|&at| at >= start && at < end)
                .count();
            received as f64 / FIG20_SECONDS as f64
        }
    };
    if figure != Figure::ReceiveRate {
        s.scenario.advance(DRAIN);
    }
    let work_s = work_start.elapsed().as_secs_f64();
    fig.peak_per_sub
        .push((alloc::peak() - base_heap) as f64 / MAX_SUBSCRIBERS as f64);
    let s2 = snap(&s.scenario, ctx.traced);
    let delivered = s.receipts(ctx);
    if flavor == Flavor::SrTps {
        fig.publish_s
            .extend(s.published.iter().map(|&(_, _, host_s)| host_s));
    }

    fig.build_s += build_s;
    fig.warmup_s += warmup_s;
    fig.build_allocs += s0.allocs - before_build;
    fig.setup += s1 - s0;
    fig.work += s2 - s1;
    fig.waves.push((work_s, delivered));
    fig.subscribers += subscribers;
    let per_sub = |heap: u64| heap.saturating_sub(base_heap) as f64 / subscribers as f64;
    fig.heap_setup_per_sub = fig.heap_setup_per_sub.max(per_sub(s1.heap));
    fig.heap_work_per_sub = fig.heap_work_per_sub.max(per_sub(s2.heap));
    fig.publisher_copies += s2.role_sent[1] - s1.role_sent[1];
    fig.max_fanout = fig.max_fanout.max(max_fanout(&s.scenario));
    if observe {
        fig.spans = Some(fig.spans.unwrap_or(0) + s.scenario.tracer().map_or(0, |t| t.borrow().len()));
        fig.recorder_bytes =
            Some(fig.recorder_bytes.unwrap_or(0) + s.scenario.recorder().map_or(0, |r| r.approx_bytes()));
    }
    let ((), teardown_s) = ctx.spans.span("harness.teardown", |_| timed(|| drop(s)));
    fig.teardown_s += teardown_s;
    value
}

fn unit(ctx: &mut Ctx<'_>, seed: u64, observe: bool) {
    let unit_start = now();
    let mut fig = Figures::default();
    // value[figure][flavour][count index]
    let mut value = [[[0.0f64; 2]; 3]; 3];
    for (fi, figure) in [Figure::InvocationTime, Figure::PublishRate, Figure::ReceiveRate]
        .into_iter()
        .enumerate()
    {
        for (li, flavor) in FLAVORS.into_iter().enumerate() {
            for (ci, count) in COUNTS.into_iter().enumerate() {
                let name = format!("paper.fig{}.{}.{count}", 18 + fi, flavor.label());
                value[fi][li][ci] = ctx.spans.span(name, |spans| {
                    let mut inner = Ctx {
                        report: &mut *ctx.report,
                        spans,
                        traced: ctx.traced,
                        first: ctx.first,
                        latencies_us: &mut *ctx.latencies_us,
                    };
                    series(&mut inner, &mut fig, figure, flavor, count, seed, observe)
                });
            }
        }
    }
    let [fig18, fig19, fig20] = value;
    let [wire, sr_jxta, sr_tps] = [0, 1, 2];
    let report = &mut *ctx.report;
    report.check(
        fig18[wire][0] < fig18[sr_jxta][0] && fig18[wire][0] < fig18[sr_tps][0],
        || {
            format!(
                "seed {seed}: JXTA-WIRE is not the fastest at 1 subscriber: {:?}",
                fig18
            )
        },
    );
    for (li, flavor) in FLAVORS.into_iter().enumerate() {
        report.check(fig18[li][1] > fig18[li][0], || {
            format!(
                "seed {seed}: {} is not slower at 4 subscribers than at 1",
                flavor.label()
            )
        });
        report.check(fig19[li][1] < fig19[li][0], || {
            format!(
                "seed {seed}: {} publish rate does not fall with subscribers",
                flavor.label()
            )
        });
        report.check(fig20[li][1] < fig20[li][0], || {
            format!(
                "seed {seed}: {} receive rate does not fall with publishers",
                flavor.label()
            )
        });
    }
    for ci in 0..COUNTS.len() {
        let gap = (fig18[sr_tps][ci] - fig18[sr_jxta][ci]).abs() / fig18[sr_jxta][ci];
        report.check(gap < 0.05, || {
            format!(
                "seed {seed}: SR-TPS is {:.1}% from SR-JXTA at {} subscribers",
                gap * 100.0,
                COUNTS[ci]
            )
        });
    }
    report.push("fig18_invocation_ms", "ms", fig18[sr_tps][1]);
    report.push("fig19_publish_rate", "1/s", fig19[sr_tps][0]);
    report.push("fig20_receive_rate", "1/s", fig20[sr_tps][0]);

    // The unit's figure is its largest series.
    fig.peak_per_sub = vec![fig.peak_per_sub.iter().copied().fold(0.0, f64::max)];
    fig.record(ctx.report, ctx.traced);
    ctx.report.push("wall_s", "s", unit_start.elapsed().as_secs_f64());
}

//! Failure-model benches: what one bidding decision costs the framework.

use bench::bench_trace;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spot_model::{FailureModel, FailureModelConfig, FrozenKernel};
use std::hint::black_box;

fn kernel_estimation(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel_estimation");
    for weeks in [1u64, 4, 13] {
        let (_, trace) = bench_trace(weeks);
        g.bench_with_input(BenchmarkId::from_parameter(weeks), &trace, |b, t| {
            b.iter(|| FrozenKernel::from_trace(black_box(t)))
        });
    }
    g.finish();
}

fn interval_forecast(c: &mut Criterion) {
    let (_, trace) = bench_trace(13);
    let model = FailureModel::from_trace(&trace, FailureModelConfig::default());
    let now = trace.horizon() - 1;
    let spot = trace.price_at(now);
    let age = trace.sojourn_age_at(now) as u32;
    let mut g = c.benchmark_group("interval_forecast");
    // The 1-minute horizon is one evolution step: it isolates the cost
    // of building the forecast tables from the per-minute step.
    for (label, minutes) in [("1min", 1u32), ("1h", 60), ("6h", 360), ("12h", 720)] {
        g.bench_with_input(BenchmarkId::from_parameter(label), &minutes, |b, &m| {
            b.iter(|| model.forecast(black_box(spot), black_box(age), m))
        });
    }
    g.finish();
}

fn min_bid_search(c: &mut Criterion) {
    let (zone, trace) = bench_trace(13);
    let model = FailureModel::from_trace(&trace, FailureModelConfig::default());
    let now = trace.horizon() - 1;
    let spot = trace.price_at(now);
    let age = trace.sojourn_age_at(now) as u32;
    let cap = spot_market::InstanceType::M1Small.on_demand_price(zone.region);
    c.bench_function("min_bid_for_fp_6h", |b| {
        b.iter(|| model.min_bid_for_fp(black_box(0.0103), spot, age, 360, cap))
    });
}

fn absorbing_survival(c: &mut Criterion) {
    let (_, trace) = bench_trace(13);
    let model = FailureModel::from_trace(&trace, FailureModelConfig::default());
    let now = trace.horizon() - 1;
    let spot = trace.price_at(now);
    let age = trace.sojourn_age_at(now) as u32;
    let bid = spot.scale(1.5);
    c.bench_function("absorbing_fp_6h", |b| {
        b.iter(|| model.estimate_fp_absorbing(black_box(bid), spot, age, 360))
    });
}

criterion_group!(
    benches,
    kernel_estimation,
    interval_forecast,
    min_bid_search,
    absorbing_survival
);
criterion_main!(benches);

//! The metric tables, the small statistics the workloads share, host
//! facts, and the one-line JSON result.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use crate::Args;

/// End-to-end metrics `(name, unit)`, printed with `--trace 0`.
/// `sim_ms` / `sim_min` mark simulated time, which is a deterministic
/// function of the seed; every other time is wall-clock.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cell_minutes_per_s", "sim_min/s"),
    ("cost_usd", "USD"),
    ("availability", "fraction"),
    ("degraded_minutes", "sim_min"),
    ("requests_per_s", "req/s"),
    ("lock_p50_ms", "sim_ms"),
    ("lock_p99_ms", "sim_ms"),
    ("store_p50_ms", "sim_ms"),
    ("store_p99_ms", "sim_ms"),
    ("lock_max_rps", "req/s"),
    ("store_max_rps", "req/s"),
];

/// Per-layer metrics `(name, unit)`, printed with `--trace 1`. Layers are
/// named after the crates; a metric a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("spot-market.generate_s", "s"),
    ("spot-market.pool_minutes", "sim_min"),
    ("spot-model.fit_s", "s"),
    ("spot-model.fits", "count"),
    ("spot-model.forecast_s", "s"),
    ("spot-model.forecast_calls", "count"),
    ("spot-model.forecast_minutes", "sim_min"),
    ("spot-model.forecast_us_per_minute", "us/sim_min"),
    ("spot-model.forecast_repeat_ratio", "fraction"),
    ("jupiter.decide_s", "s"),
    ("jupiter.decide_ms_p50", "ms"),
    ("jupiter.decide_ms_p95", "ms"),
    ("jupiter.decide_calls", "count"),
    ("jupiter.select_s", "s"),
    ("jupiter.candidates_evaluated", "count"),
    ("jupiter.feasible_ratio", "fraction"),
    ("jupiter.fp_cache_hit_ratio", "fraction"),
    ("jupiter.forecasts_computed", "count"),
    ("replay.self_s", "s"),
    ("replay.us_per_cell_minute", "us/sim_min"),
    ("replay.intervals", "count"),
    ("replay.bids_placed", "count"),
    ("replay.deaths", "count"),
    ("repair.rebids", "count"),
    ("repair.on_demand_launches", "count"),
    ("migrate.drained", "count"),
    ("notice.emitted", "count"),
    ("replay.cell_s_max", "s"),
    ("replay.cell_overlap", "ratio"),
    ("workload.arrival_s", "s"),
    ("workload.requests", "count"),
    ("workload.retransmit_ratio", "fraction"),
    ("paxos.cluster_s", "s"),
    ("paxos.msgs_per_op", "msgs/op"),
    ("paxos.ops_per_batch", "ops/batch"),
    ("paxos.elections", "count"),
    ("storage.cluster_s", "s"),
    ("storage.msgs_per_op", "msgs/op"),
    ("storage.ops_per_batch", "ops/batch"),
    ("storage.reads_reconstructed", "count"),
    ("storage.reads_unavailable", "count"),
    ("obs.overhead_frac", "fraction"),
];

/// The value printed for an end-to-end metric the workload does not
/// exercise (e.g. `lock_p99_ms` on a sweep). It is a fixed, non-zero
/// placeholder so every run carries every name; it never moves.
pub const NOT_EXERCISED: f64 = 1.0;

/// What one invocation measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: replay cells on the sweeps, requests on
    /// `quorum_requests`.
    pub attempted: u64,
    /// Attempted operations whose output check failed.
    pub failed: u64,
    /// One line per failed check, printed to stderr.
    pub problems: Vec<String>,
    /// Measured metric values by name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Record a failed check that covers `ops` attempted operations.
    pub fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        self.problems.push(why);
    }

    /// Set a metric; the name must be in one of the tables.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }

    /// The result line: every metric of the selected table, in table
    /// order, with its unit.
    pub fn to_json(&self, trace: bool) -> String {
        let (table, missing) = if trace {
            (PER_LAYER, 0.0)
        } else {
            (END_TO_END, NOT_EXERCISED)
        };
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let v = self.values.get(name).copied().unwrap_or(missing);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.problems.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite float in full precision (Rust's shortest round-trip form).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// The smallest `f` over `items`: the least disturbed of several repeats
/// of the same work, since host noise only ever adds time. Every run makes
/// a fixed number of repeats (see [`pass_count`]), so a faster build does
/// not get more draws.
pub fn fastest<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    items.iter().map(f).fold(f64::INFINITY, f64::min)
}

/// The sum over `calls` timed calls of each call's fastest repeat across
/// `passes`, where `time(pass, i)` is call `i`'s time in that pass. A
/// burst of host noise then spoils only the repeat of the call it hit.
pub fn fastest_calls<T>(passes: &[T], calls: usize, time: impl Fn(&T, usize) -> f64) -> f64 {
    (0..calls).map(|i| fastest(passes, |p| time(p, i))).sum()
}

/// How many passes a run makes: `--seconds` over the workload's nominal
/// pass time, and at least three. A traced run alternates untraced and
/// traced passes, so it makes half as many pairs, and at least two. The
/// count depends on the arguments alone, never on the clock, so every
/// build of the program repeats its work equally often.
pub fn pass_count(args: &Args, nominal_pass_s: f64) -> usize {
    let (per_pass, least) = if args.trace {
        (2.0 * nominal_pass_s, 2)
    } else {
        (nominal_pass_s, 3)
    };
    ((args.seconds / per_pass).round() as usize).max(least)
}

/// Nearest-rank quantile of `values`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Wall time in ms of a fixed integer loop: a host-speed reference that
/// tells a slow machine apart from a slow build.
pub fn calibration_ms() -> f64 {
    let start = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..black_box(50_000_000u64) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// One line of host facts recorded with every run.
pub fn host_line(calibration_ms: f64) -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rayon = std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| "unset".into());
    format!(
        "host calibration_ms={calibration_ms:.3} available_parallelism={parallelism} \
         RAYON_NUM_THREADS={rayon}"
    )
}

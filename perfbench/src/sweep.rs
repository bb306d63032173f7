//! The replay workloads, `bid_sweep` and `repair_churn`.
//!
//! Set-up generates the workload's markets and pre-fits every service
//! pool's kernel into each [`Scenario`]'s `ModelStore`. The run then
//! sweeps a strategy × interval × repair × era grid over every scenario a
//! fixed number of times. Every strategy is wrapped in a [`Timed`] probe
//! the benchmark passes in itself, so cell spans and decide times are
//! measured from outside the library:
//!
//! * a cell's span starts when the strategy factory creates the probe and
//!   ends when the replay drops it;
//! * each `decide` call is timed around the wrapped strategy;
//! * the probe tags the strategy name with its id, so each replay result
//!   names the probe that timed it, whatever order the cells ran in;
//! * in traced passes, Jupiter cells also record every pool's
//!   (kernel, price, age, horizon), the forecast keys whose repeats
//!   `spot-model.forecast_repeat_ratio` counts.
//!
//! Untraced passes sweep through [`Scenario::run`]. Traced passes replay
//! the same cells in the same order through `replay_repair_stored` with a
//! registry-only `Obs` (see [`metrics_only`]).

use std::collections::{BTreeMap, HashSet};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use jupiter::{
    BidDecision, BiddingStrategy, ExtraStrategy, FeedbackStrategy, JupiterStrategy, ModelKey,
    ServiceSpec, ZoneState,
};
use obs::{AlertSink, AuditLog, Obs, Registry, SeriesStore, Tracer};
use replay::results::InstanceRecord;
use replay::{
    replay_repair_stored, RepairConfig, RepairPolicy, ReplayConfig, ReplayResult, Scenario,
    SweepSpec,
};
use spot_market::{BidEra, InstanceType, Market, MarketConfig, Price, Termination};
use spot_model::FrozenKernel;

use crate::report::{fastest, fastest_calls, median, pass_count, quantile, Outcome};
use crate::{Args, Scale, DEFAULT_SEED};

const DAY: u64 = 24 * 60;
const WEEK: u64 = 7 * DAY;

/// Which replay workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Sweep {
    /// The Figs. 6–9 grid at reduced scale: forecast-bound.
    Bid,
    /// Model-free bidders under repair and both eras: lifecycle-bound.
    Churn,
}

impl Sweep {
    fn name(self) -> &'static str {
        match self {
            Sweep::Bid => "bid_sweep",
            Sweep::Churn => "repair_churn",
        }
    }

    /// Independent markets per run. Degraded minutes on `repair_churn`
    /// hinge on a few rare capacity crunches per market, so it pools two
    /// markets to keep its seed-to-seed spread well inside the bound.
    fn markets(self) -> u64 {
        match self {
            Sweep::Bid => 1,
            Sweep::Churn => 2,
        }
    }

    /// Nominal wall seconds of one untraced full-scale pass: on the
    /// 2-vCPU host the README's numbers come from, `--seconds 30` makes
    /// three `bid_sweep` passes and four `repair_churn` passes in about
    /// 30 s. The pass count is derived from `--seconds` through this
    /// constant, not from the clock, so every build of the program makes
    /// the same number of passes.
    fn nominal_pass_s(self) -> f64 {
        match self {
            Sweep::Bid => 10.0,
            Sweep::Churn => 7.5,
        }
    }

    /// The pinned per-cell fingerprints for [`DEFAULT_SEED`] at full scale.
    fn pinned(self) -> &'static str {
        match self {
            Sweep::Bid => include_str!("../pinned/bid_sweep.txt"),
            Sweep::Churn => include_str!("../pinned/repair_churn.txt"),
        }
    }
}

/// One market and its evaluation window.
struct Window {
    config: MarketConfig,
    eval_start: u64,
    eval_end: u64,
}

impl Window {
    /// The workload's markets, each drawn from its own seed derived from
    /// the run's `seed`.
    fn all(kind: Sweep, scale: Scale, seed: u64) -> Vec<Window> {
        let (zones, train, eval) = match (kind, scale) {
            (Sweep::Bid, Scale::Full) => (8, 2 * WEEK, WEEK),
            (Sweep::Bid, Scale::Tiny) => (8, WEEK, DAY),
            (Sweep::Churn, Scale::Full) => (17, 13 * WEEK, 5 * WEEK),
            (Sweep::Churn, Scale::Tiny) => (6, WEEK, 2 * DAY),
        };
        (0..kind.markets())
            .map(|i| {
                // `paper` trades m1.small and m3.large in all 17 zones.
                let market_seed = seed.wrapping_mul(kind.markets()).wrapping_add(i);
                let mut config = MarketConfig::paper(market_seed, train + eval);
                config.zones.truncate(zones);
                Window {
                    config,
                    eval_start: train,
                    eval_end: train + eval,
                }
            })
            .collect()
    }

    fn pool_minutes(&self) -> u64 {
        (self.config.zones.len() * self.config.types.len()) as u64 * self.config.horizon_minutes
    }
}

/// The key of one Jupiter forecast as the bidder asked for it.
struct ForecastKey {
    kernel: Arc<FrozenKernel>,
    price: Price,
    age: u32,
    horizon: u32,
}

/// What the benchmark observes of one cell from outside the library.
struct Probe {
    /// Index in the pass's probe list; the wrapped strategy's name
    /// carries it into the cell's `ReplayResult`.
    id: usize,
    created: Instant,
    dropped: OnceLock<Instant>,
    decide_s: Mutex<Vec<f64>>,
    /// `Some` when this cell's forecast keys are recorded.
    forecasts: Option<Mutex<Vec<ForecastKey>>>,
}

impl Probe {
    fn span_s(&self) -> f64 {
        self.dropped
            .get()
            .map_or(0.0, |end| end.duration_since(self.created).as_secs_f64())
    }
}

/// Separates a strategy's own name from the probe id the wrapper appends.
const PROBE_TAG: char = '#';

/// The strategy wrapper handed to the sweep in place of the real one.
struct Timed {
    inner: Box<dyn BiddingStrategy>,
    probe: Arc<Probe>,
}

impl BiddingStrategy for Timed {
    fn name(&self) -> String {
        format!("{}{PROBE_TAG}{}", self.inner.name(), self.probe.id)
    }

    fn decide(&self, zones: &[ZoneState<'_>], spec: &ServiceSpec, horizon: u32) -> BidDecision {
        if let Some(keys) = &self.probe.forecasts {
            let mut keys = keys.lock().expect("forecast log poisoned");
            keys.extend(zones.iter().map(|z| ForecastKey {
                kernel: z.model.shared_kernel(),
                price: z.spot_price,
                age: z.sojourn_age,
                horizon,
            }));
        }
        let start = Instant::now();
        let decision = self.inner.decide(zones, spec, horizon);
        let elapsed = start.elapsed().as_secs_f64();
        self.probe
            .decide_s
            .lock()
            .expect("decide log poisoned")
            .push(elapsed);
        decision
    }
}

impl Drop for Timed {
    fn drop(&mut self) {
        // The replay drops its strategy when the cell ends.
        let _ = self.probe.dropped.set(Instant::now());
    }
}

type Probes = Arc<Mutex<Vec<Arc<Probe>>>>;

/// A strategy factory that wraps each `bidder` it builds in a [`Timed`]
/// probe registered in `probes`; `record` logs Jupiter's forecast keys.
fn timed(
    probes: &Probes,
    bidder: Bidder,
    record: bool,
) -> impl Fn(&Obs) -> Box<dyn BiddingStrategy> + Send + Sync + 'static {
    let probes = Arc::clone(probes);
    move |obs: &Obs| -> Box<dyn BiddingStrategy> {
        let mut list = probes.lock().expect("probe list poisoned");
        let probe = Arc::new(Probe {
            id: list.len(),
            created: Instant::now(),
            dropped: OnceLock::new(),
            decide_s: Mutex::new(Vec::new()),
            forecasts: (bidder == Bidder::Jupiter && record).then(|| Mutex::new(Vec::new())),
        });
        list.push(Arc::clone(&probe));
        Box::new(Timed {
            inner: bidder.make(obs),
            probe,
        })
    }
}

/// The bidders the grids race.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Bidder {
    Jupiter,
    Extra,
    Feedback,
}

impl Bidder {
    fn make(self, obs: &Obs) -> Box<dyn BiddingStrategy> {
        match self {
            Bidder::Jupiter => Box::new(JupiterStrategy::new().with_obs(obs.clone())),
            Bidder::Extra => Box::new(ExtraStrategy::new(0, 0.2)),
            Bidder::Feedback => Box::new(FeedbackStrategy::new()),
        }
    }
}

/// One sweep grid over one service.
struct Grid {
    service_label: &'static str,
    service: ServiceSpec,
    bidders: Vec<Bidder>,
    intervals: Vec<u64>,
    repairs: Vec<RepairConfig>,
    eras: Vec<BidEra>,
}

impl Grid {
    fn all(kind: Sweep) -> Vec<Grid> {
        match kind {
            Sweep::Bid => vec![
                Grid {
                    service_label: "lock",
                    service: ServiceSpec::lock_service(),
                    bidders: vec![Bidder::Jupiter, Bidder::Extra],
                    intervals: vec![1, 6, 12],
                    repairs: vec![RepairConfig::off(), RepairConfig::reactive()],
                    eras: vec![BidEra::Bidding],
                },
                Grid {
                    service_label: "storage",
                    service: ServiceSpec::storage_service(),
                    bidders: vec![Bidder::Jupiter, Bidder::Extra],
                    intervals: vec![1, 6, 12],
                    repairs: vec![RepairConfig::off()],
                    eras: vec![BidEra::Bidding],
                },
            ],
            Sweep::Churn => vec![Grid {
                service_label: "lock",
                service: ServiceSpec::lock_service(),
                bidders: vec![Bidder::Extra, Bidder::Feedback],
                intervals: vec![1, 3],
                repairs: vec![RepairConfig::hybrid(), RepairConfig::migrate()],
                eras: vec![BidEra::Bidding, BidEra::CapacityReclaim],
            }],
        }
    }

    /// The grid's column at interval `h` as a [`SweepSpec`] whose
    /// strategies are wrapped in probes registered in `probes`.
    fn spec(&self, h: u64, probes: &Probes) -> SweepSpec {
        let spec = self
            .bidders
            .iter()
            .fold(SweepSpec::new(self.service.clone()), |spec, &bidder| {
                spec.strategy(timed(probes, bidder, false))
            });
        spec.intervals(vec![h])
            .repairs(self.repairs.clone())
            .eras(self.eras.clone())
    }

    /// The cells of the column at one interval in the order
    /// [`Scenario::run`] returns them: bidders, then repairs and eras.
    fn cells(&self) -> Vec<(Bidder, RepairConfig, BidEra)> {
        let mut cells = Vec::new();
        for &bidder in &self.bidders {
            for &repair in &self.repairs {
                for &era in &self.eras {
                    cells.push((bidder, repair, era));
                }
            }
        }
        cells
    }
}

/// The instance-type pools the workload's services deploy over.
fn service_pools(kind: Sweep) -> Vec<InstanceType> {
    let mut pools: Vec<InstanceType> = Grid::all(kind)
        .iter()
        .flat_map(|grid| grid.service.pools())
        .collect();
    pools.dedup();
    pools
}

/// Registry counters the traced passes read, summed over cells.
const REGISTRY: &[&str] = &[
    "replay.bids_placed",
    "replay.death.out_of_bid",
    "repair.rebids",
    "repair.on_demand_launches",
    "migrate.drained",
    "notice.emitted",
    "jupiter.candidates_evaluated",
    "jupiter.candidates_feasible",
    "jupiter.fp_cache_hits",
    "jupiter.fp_cache_misses",
    "jupiter.forecasts_computed",
];

/// Jupiter times every forecast into this histogram.
const FORECAST_HISTOGRAM: &str = "jupiter.forecast_micros";

/// `REGISTRY` counters in `obs`, each summed over every cell prefix, plus
/// the number of timed forecasts under [`FORECAST_HISTOGRAM`].
fn registry_counters(obs: &Obs) -> BTreeMap<&'static str, u64> {
    let snapshot = obs.metrics.snapshot();
    let mut counters: BTreeMap<&'static str, u64> = REGISTRY
        .iter()
        .map(|&name| {
            let suffix = format!(".{name}");
            let total = snapshot
                .counters
                .iter()
                .filter(|(n, _)| n == name || n.ends_with(&suffix))
                .map(|&(_, v)| v)
                .sum();
            (name, total)
        })
        .collect();
    let timed = snapshot
        .histogram(FORECAST_HISTOGRAM)
        .map_or(0, |h| h.count);
    counters.insert(FORECAST_HISTOGRAM, timed);
    counters
}

/// The built scenarios and what building them cost.
struct Setup {
    scenarios: Vec<Scenario>,
    generate_s: f64,
    fit_s: f64,
}

/// Generate every market and pre-fit each service pool's kernel into its
/// scenario's store, exactly as the replay would key and fit it.
fn set_up(windows: &[Window], pools: &[InstanceType], obs: Option<&Obs>) -> Setup {
    let mut setup = Setup {
        scenarios: Vec::new(),
        generate_s: 0.0,
        fit_s: 0.0,
    };
    for window in windows {
        let start = Instant::now();
        let market = Market::generate(window.config.clone());
        setup.generate_s += start.elapsed().as_secs_f64();
        let mut scenario = Scenario::new(market, window.eval_start, window.eval_end);
        if let Some(obs) = obs {
            scenario = scenario.with_obs(obs.clone());
        }
        let trained_until =
            ReplayConfig::new(window.eval_start, window.eval_end, 1).first_decision();
        let start = Instant::now();
        let market = scenario.market();
        for &zone in market.zones() {
            for &instance_type in pools {
                let key = ModelKey {
                    zone,
                    instance_type,
                    trained_until,
                };
                scenario.store().get_or_fit(key, || {
                    FrozenKernel::from_trace(
                        &market.trace(zone, instance_type).window(0, trained_until),
                    )
                });
            }
        }
        setup.fit_s += start.elapsed().as_secs_f64();
        setup.scenarios.push(scenario);
    }
    setup
}

/// One instance's bill under the 2014 EC2 rules, recomputed from the
/// market's public price trace: every full instance-hour from the grant
/// at the last price within it, the trailing partial hour only when the
/// user ended the instance, and on-demand fallbacks at the type's
/// on-demand rate per started hour.
fn rebill(market: &Market, rec: &InstanceRecord) -> Price {
    if rec.on_demand {
        let hours = (rec.ended_at - rec.granted_at).div_ceil(60);
        return rec.instance_type.on_demand_price(rec.zone.region) * hours;
    }
    let trace = market.trace(rec.zone, rec.instance_type);
    let mut bill = Price::ZERO;
    let mut hour = rec.granted_at;
    while hour < rec.ended_at {
        let end = (hour + 60).min(rec.ended_at);
        if end == hour + 60 || rec.termination == Termination::User {
            bill += trace.price_at(end - 1);
        }
        hour += 60;
    }
    bill
}

/// Why the replay's bill disagrees with the one recomputed from the
/// market, if it does: per record, per pool through `cost_by_pool`, in
/// total and in the on-demand share.
fn bill_error(market: &Market, r: &ReplayResult) -> Option<String> {
    let mut by_pool: BTreeMap<(usize, usize), Price> = BTreeMap::new();
    let mut on_demand = Price::ZERO;
    for (i, rec) in r.instances.iter().enumerate() {
        let bill = rebill(market, rec);
        if bill != rec.cost {
            return Some(format!("record {i} billed {}, re-billed {bill}", rec.cost));
        }
        *by_pool
            .entry((rec.zone.ordinal(), rec.instance_type.ordinal()))
            .or_insert(Price::ZERO) += bill;
        if rec.on_demand {
            on_demand += bill;
        }
    }
    let reported: BTreeMap<(usize, usize), Price> = r
        .cost_by_pool()
        .into_iter()
        .map(|((zone, ty), cost)| ((zone.ordinal(), ty.ordinal()), cost))
        .collect();
    let total: Price = by_pool.values().copied().sum();
    if reported != by_pool {
        Some("cost_by_pool differs from the re-billed pools".into())
    } else if r.total_cost != total {
        Some(format!("total {} against re-billed {total}", r.total_cost))
    } else if r.on_demand_cost != on_demand {
        Some(format!(
            "on-demand {} against re-billed {on_demand}",
            r.on_demand_cost
        ))
    } else {
        None
    }
}

/// One cell's outcome, reduced to what the checks and metrics need.
struct Cell {
    label: String,
    jupiter: bool,
    cost: Price,
    up: u64,
    window: u64,
    degraded: u64,
    kills: usize,
    instances: usize,
    intervals: usize,
    /// Why the bill does not reconcile, if it does not.
    bill_error: Option<String>,
    /// The cell's span, from its probe.
    span_s: f64,
    /// Each decide call's time, from its probe.
    decide_s: Vec<f64>,
}

impl Cell {
    /// The cell of `r`, labelled `{prefix}/{strategy}/{suffix}` and joined
    /// to the probe whose id the strategy name carries.
    fn new(
        prefix: &str,
        suffix: &str,
        r: &ReplayResult,
        market: &Market,
        probes: &[Arc<Probe>],
    ) -> Self {
        let (name, id) = r
            .strategy
            .rsplit_once(PROBE_TAG)
            .expect("every strategy is wrapped in a probe");
        let probe = &probes[id.parse::<usize>().expect("probe id")];
        Cell {
            label: format!("{prefix}/{name}/{suffix}"),
            jupiter: name == "Jupiter",
            cost: r.total_cost,
            up: r.up_minutes,
            window: r.window_minutes,
            degraded: r.degraded_minutes,
            kills: r.total_kills(),
            instances: r.instances.len(),
            intervals: r.intervals.len(),
            bill_error: bill_error(market, r),
            span_s: probe.span_s(),
            decide_s: probe.decide_s.lock().expect("decide log poisoned").clone(),
        }
    }

    fn fingerprint(&self) -> String {
        format!(
            "{} cost={} up={} kills={} instances={}",
            self.label, self.cost.0, self.up, self.kills, self.instances
        )
    }

    fn decided_s(&self) -> f64 {
        self.decide_s.iter().sum()
    }
}

/// One sweep of the whole grid.
struct Pass {
    /// Wall time inside each sweep call (one `Scenario::run`, or the
    /// traced replays of its cells), per market, grid and interval.
    sweeps_s: Vec<f64>,
    /// Their sum: the pass's sweep wall time.
    wall_s: f64,
    /// In the order `Scenario::run` returns them.
    cells: Vec<Cell>,
    /// Jupiter's forecast keys (traced passes only).
    forecasts: Vec<ForecastKey>,
    /// Registry counters (traced passes only).
    counters: BTreeMap<&'static str, u64>,
    /// Summed [`FORECAST_HISTOGRAM`] microseconds (traced passes only).
    forecast_s: f64,
}

impl Pass {
    fn cell_minutes(&self) -> u64 {
        self.cells.iter().map(|c| c.window).sum()
    }

    fn span_s(&self) -> f64 {
        self.cells.iter().map(|c| c.span_s).sum()
    }

    fn decide_s(&self) -> f64 {
        self.cells.iter().map(Cell::decided_s).sum()
    }

    /// Jupiter's decide times in ms, over every Jupiter cell.
    fn jupiter_decide_ms(&self) -> Vec<f64> {
        self.cells
            .iter()
            .filter(|c| c.jupiter)
            .flat_map(|c| c.decide_s.iter().map(|s| s * 1e3))
            .collect()
    }

    /// The deterministic work this pass did, compared across passes.
    fn signature(&self) -> Vec<(String, usize)> {
        self.cells
            .iter()
            .map(|c| (c.fingerprint(), c.decide_s.len()))
            .collect()
    }
}

/// The sweep wall time of `passes`: each sweep call's fastest repeat,
/// summed. A call is one interval column of one grid on one market, a
/// few seconds long.
fn sweep_wall_s(passes: &[Pass]) -> f64 {
    fastest_calls(passes, passes[0].sweeps_s.len(), |p, i| p.sweeps_s[i])
}

/// A registry-only handle for the traced passes. `Scenario::with_obs`
/// would give every cell a full `Obs` whose audit log re-forecasts each
/// placed bid, which slows `repair_churn` twentyfold; the counters the
/// layer table reads all live in the registry.
fn metrics_only() -> Obs {
    Obs {
        metrics: Registry::new(),
        trace: Tracer::disabled(),
        series: SeriesStore::disabled(),
        alerts: AlertSink::disabled(),
        audit: AuditLog::disabled(),
    }
}

/// Sweep every grid over every scenario once. Untraced passes go through
/// [`Scenario::run`]; traced passes replay the same cells in the same
/// order through `replay_repair_stored` with one registry-only `Obs`.
/// Only the sweep calls are timed; the checks run outside them.
fn run_pass(kind: Sweep, scenarios: &[Scenario], traced: bool) -> Pass {
    let probes = Probes::default();
    let grids = Grid::all(kind);
    let obs = traced.then(metrics_only);
    let mut sweeps_s = Vec::new();
    let mut cells = Vec::new();
    for (m, scenario) in scenarios.iter().enumerate() {
        for grid in &grids {
            let prefix = format!("market{m}/{}", grid.service_label);
            // One sweep call per interval column (see `sweep_wall_s`).
            for &h in &grid.intervals {
                let suffix = |repair: RepairPolicy, era: BidEra| {
                    format!("{h}h/{}/{}", repair.label(), era.label())
                };
                let mut results = Vec::new();
                let start = Instant::now();
                match &obs {
                    None => {
                        for cell in scenario.run(&grid.spec(h, &probes)) {
                            results.push((suffix(cell.repair, cell.era), cell.result));
                        }
                    }
                    Some(obs) => {
                        for (bidder, repair, era) in grid.cells() {
                            let r = replay_repair_stored(
                                scenario.market(),
                                &grid.service,
                                timed(&probes, bidder, true)(obs),
                                scenario.config(h).with_era(era),
                                repair,
                                scenario.store(),
                                obs,
                            );
                            results.push((suffix(repair.policy, era), r));
                        }
                    }
                }
                sweeps_s.push(start.elapsed().as_secs_f64());
                let probes = probes.lock().expect("probe list poisoned");
                cells.extend(
                    results.iter().map(|(suffix, r)| {
                        Cell::new(&prefix, suffix, r, scenario.market(), &probes)
                    }),
                );
            }
        }
    }
    let mut pass = Pass {
        wall_s: sweeps_s.iter().sum(),
        sweeps_s,
        cells,
        forecasts: Vec::new(),
        counters: BTreeMap::new(),
        forecast_s: 0.0,
    };
    if let Some(obs) = &obs {
        pass.counters = registry_counters(obs);
        pass.forecast_s = obs
            .metrics
            .snapshot()
            .histogram(FORECAST_HISTOGRAM)
            .map_or(0.0, |h| h.sum as f64 / 1e6);
        for probe in probes.lock().expect("probe list poisoned").iter() {
            if let Some(keys) = &probe.forecasts {
                pass.forecasts
                    .append(&mut keys.lock().expect("forecast log poisoned"));
            }
        }
    }
    pass
}

/// Run the workload and reduce it to metrics.
pub fn run(kind: Sweep, args: &Args) -> Outcome {
    let windows = Window::all(kind, args.scale, args.seed);
    let pools = service_pools(kind);
    let reps = match args.scale {
        Scale::Full => 7,
        Scale::Tiny => 1,
    };
    let mut setup_s = Vec::new();
    let mut generate_s = Vec::new();
    let mut fit_s = Vec::new();
    let mut scenarios = Vec::new();
    for _ in 0..reps {
        let setup = set_up(&windows, &pools, None);
        setup_s.push(setup.generate_s + setup.fit_s);
        generate_s.push(setup.generate_s);
        fit_s.push(setup.fit_s);
        scenarios = setup.scenarios;
    }
    let traced = args.trace.then(|| {
        let obs = metrics_only();
        let setup = set_up(&windows, &pools, Some(&obs));
        let fits = obs
            .metrics
            .snapshot()
            .counter("model_store.fits_performed")
            .unwrap_or(0);
        (setup.scenarios, fits)
    });

    // A traced invocation alternates untraced and traced passes.
    let passes = pass_count(args, kind.nominal_pass_s());
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced_passes: Vec<Pass> = Vec::new();
    for _ in 0..passes {
        plain.push(run_pass(kind, &scenarios, false));
        if let Some((traced_scenarios, _)) = &traced {
            traced_passes.push(run_pass(kind, traced_scenarios, true));
        }
    }

    let mut out = Outcome::default();
    check(kind, args, &plain, &traced_passes, &mut out);
    if args.fingerprints {
        for cell in &plain[0].cells {
            println!("fingerprint {}", cell.fingerprint());
        }
    }

    // End-to-end metrics, from the untraced passes.
    let first = &plain[0];
    let wall_s = sweep_wall_s(&plain);
    out.set("setup_s", median(&setup_s));
    out.set("cell_minutes_per_s", first.cell_minutes() as f64 / wall_s);
    out.set(
        "cost_usd",
        first.cells.iter().map(|c| c.cost.as_dollars()).sum(),
    );
    let pooled = first
        .cells
        .iter()
        .filter(|c| kind == Sweep::Churn || c.jupiter);
    let (up, minutes) = pooled.fold((0, 0), |(u, m), c| (u + c.up, m + c.window));
    out.set("availability", up as f64 / minutes.max(1) as f64);
    if kind == Sweep::Churn {
        out.set(
            "degraded_minutes",
            first.cells.iter().map(|c| c.degraded).sum::<u64>() as f64,
        );
    }
    // Decide latency is timed in the untraced passes, where the bidder
    // records nothing; repair_churn has no Jupiter cell and reads 0.
    out.set(
        "jupiter.decide_ms_p50",
        fastest(&plain, |p| quantile(&p.jupiter_decide_ms(), 0.50)),
    );
    out.set(
        "jupiter.decide_ms_p95",
        fastest(&plain, |p| quantile(&p.jupiter_decide_ms(), 0.95)),
    );
    // Cell parallelism shows in the passes that go through Scenario::run.
    out.set(
        "replay.cell_s_max",
        fastest(&plain, |p| {
            p.cells.iter().map(|c| c.span_s).fold(0.0, f64::max)
        }),
    );
    let overlap: Vec<f64> = plain.iter().map(|p| p.span_s() / p.wall_s).collect();
    out.set("replay.cell_overlap", median(&overlap));
    eprintln!(
        "{}: {} untraced passes of {} cells, walls {:.3?} s (decide {:.3?} s), \
         {} Jupiter decides per pass",
        kind.name(),
        plain.len(),
        first.cells.len(),
        plain.iter().map(|p| p.wall_s).collect::<Vec<_>>(),
        plain.iter().map(Pass::decide_s).collect::<Vec<_>>(),
        first.jupiter_decide_ms().len()
    );

    // Per-layer metrics, from the traced passes.
    if let (Some((_, fits)), Some(t)) = (&traced, traced_passes.first()) {
        let c = |name: &str| t.counters.get(name).copied().unwrap_or(0) as f64;
        let decide_s = fastest(&traced_passes, Pass::decide_s);
        let self_s = fastest(&traced_passes, |p| p.span_s() - p.decide_s());
        let forecast_s = fastest(&traced_passes, |p| p.forecast_s);
        // Shares of the sweep's wall time, each taken within one pass.
        let share = |part: &dyn Fn(&Pass) -> f64| {
            let shares: Vec<f64> = traced_passes.iter().map(|p| part(p) / p.wall_s).collect();
            median(&shares)
        };
        out.set("spot-market.generate_s", median(&generate_s));
        out.set(
            "spot-market.pool_minutes",
            windows.iter().map(Window::pool_minutes).sum::<u64>() as f64,
        );
        out.set("spot-model.fit_s", median(&fit_s));
        out.set("spot-model.fits", *fits as f64);
        let calls = c(FORECAST_HISTOGRAM);
        let minutes: u64 = t.forecasts.iter().map(|k| u64::from(k.horizon)).sum();
        out.set("spot-model.forecast_s", forecast_s);
        out.set("spot-model.forecast_calls", calls);
        out.set("spot-model.forecast_minutes", minutes as f64);
        if minutes > 0 {
            let mut seen = HashSet::new();
            let repeats = t
                .forecasts
                .iter()
                .filter(|k| !seen.insert((k.kernel.fingerprint(), k.price.0, k.age, k.horizon)))
                .count();
            out.set(
                "spot-model.forecast_us_per_minute",
                forecast_s * 1e6 / minutes as f64,
            );
            out.set(
                "spot-model.forecast_repeat_ratio",
                repeats as f64 / t.forecasts.len() as f64,
            );
        }
        out.set("jupiter.decide_s", decide_s);
        out.set(
            "jupiter.decide_calls",
            t.cells.iter().map(|c| c.decide_s.len()).sum::<usize>() as f64,
        );
        out.set(
            "jupiter.select_s",
            fastest(&traced_passes, |p| p.decide_s() - p.forecast_s),
        );
        let evaluated = c("jupiter.candidates_evaluated");
        out.set("jupiter.candidates_evaluated", evaluated);
        if evaluated > 0.0 {
            out.set(
                "jupiter.feasible_ratio",
                c("jupiter.candidates_feasible") / evaluated,
            );
        }
        let lookups = c("jupiter.fp_cache_hits") + c("jupiter.fp_cache_misses");
        if lookups > 0.0 {
            out.set(
                "jupiter.fp_cache_hit_ratio",
                c("jupiter.fp_cache_hits") / lookups,
            );
        }
        out.set(
            "jupiter.forecasts_computed",
            c("jupiter.forecasts_computed"),
        );
        out.set("replay.self_s", self_s);
        out.set(
            "replay.us_per_cell_minute",
            self_s * 1e6 / t.cell_minutes() as f64,
        );
        out.set(
            "replay.intervals",
            t.cells.iter().map(|c| c.intervals).sum::<usize>() as f64,
        );
        out.set("replay.bids_placed", c("replay.bids_placed"));
        out.set("replay.deaths", c("replay.death.out_of_bid"));
        out.set("repair.rebids", c("repair.rebids"));
        out.set("repair.on_demand_launches", c("repair.on_demand_launches"));
        out.set("migrate.drained", c("migrate.drained"));
        out.set("notice.emitted", c("notice.emitted"));
        out.set(
            "obs.overhead_frac",
            sweep_wall_s(&traced_passes) / wall_s - 1.0,
        );
        eprintln!(
            "{}: traced walls {:.3?} s; decide {:.1}% and replay self {:.1}% of them",
            kind.name(),
            traced_passes.iter().map(|p| p.wall_s).collect::<Vec<_>>(),
            100.0 * share(&Pass::decide_s),
            100.0 * share(&|p| p.span_s() - p.decide_s()),
        );
    }
    out
}

/// The output checks: per-cell invariants on every pass, determinism
/// across passes, the forecast count seen from outside against the
/// registry's, and the pinned fingerprints on the default seed.
fn check(kind: Sweep, args: &Args, plain: &[Pass], traced: &[Pass], out: &mut Outcome) {
    for (i, pass) in plain.iter().chain(traced).enumerate() {
        out.attempted += pass.cells.len() as u64;
        for cell in &pass.cells {
            if let Some(why) = &cell.bill_error {
                out.fail(
                    1,
                    format!("pass {i}: {}: bill does not reconcile: {why}", cell.label),
                );
            }
            if cell.up > cell.window || cell.window == 0 {
                out.fail(
                    1,
                    format!("pass {i}: {}: availability outside [0, 1]", cell.label),
                );
            }
        }
    }
    let reference = plain[0].signature();
    for (i, pass) in plain.iter().chain(traced).enumerate().skip(1) {
        if pass.signature() != reference {
            out.fail(
                pass.cells.len() as u64,
                format!("pass {i}: cells or decide count differ from pass 0"),
            );
        }
    }
    for (i, pass) in traced.iter().enumerate() {
        if pass.counters != traced[0].counters {
            out.fail(
                pass.cells.len() as u64,
                format!("traced pass {i}: registry counters differ from traced pass 0"),
            );
        }
        // The probes saw exactly the forecasts the bidder timed and
        // counted.
        let recorded = pass.forecasts.len() as u64;
        let timed = pass.counters[FORECAST_HISTOGRAM];
        let computed = pass.counters["jupiter.forecasts_computed"];
        if recorded != timed || timed != computed {
            out.fail(
                pass.cells.len() as u64,
                format!(
                    "traced pass {i}: probes recorded {recorded} forecasts, \
                     the registry timed {timed} and counted {computed}"
                ),
            );
        }
    }
    if args.seed == DEFAULT_SEED && args.scale == Scale::Full {
        let pinned: Vec<&str> = kind.pinned().lines().filter(|l| !l.is_empty()).collect();
        let cells = &plain[0].cells;
        if pinned.len() != cells.len() {
            out.fail(
                cells.len() as u64,
                format!("{} cells, {} pinned", cells.len(), pinned.len()),
            );
        } else {
            for (cell, want) in cells.iter().zip(pinned) {
                if cell.fingerprint() != want {
                    out.fail(
                        1,
                        format!("pinned: got {}, want {want}", cell.fingerprint()),
                    );
                }
            }
        }
    }
}

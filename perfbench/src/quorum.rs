//! The request workload, `quorum_requests`.
//!
//! Open-loop Poisson arrivals in simulated time against the two
//! replicated services, with no market and no bidder: each pass climbs a
//! rate ladder on the majority-quorum Paxos lock service, then on the
//! RS-Paxos θ(3,5) store, through the `workload` crate's public runners.
//! Latency is scheduled arrival → completion in simulated milliseconds;
//! throughput is simulated requests completed per wall second.

use std::collections::BTreeMap;
use std::time::Instant;

use obs::Obs;
use simnet::{NetworkConfig, SimTime};
use workload::{
    run_lock_workload, run_storage_workload, ArrivalProcess, WorkloadReport, WorkloadSpec,
};

use crate::report::{fastest_calls, median, pass_count, Outcome};
use crate::{Args, Scale, DEFAULT_SEED};

/// The ladder of offered rates, requests per simulated second.
const RATES: [u64; 5] = [500, 1000, 1500, 2000, 3000];
/// The rate each service's latency metrics are read at. The store's knee
/// sits near 1000 req/s, where its p99 swings between ~320 and ~830 ms
/// from one arrival seed to the next; at 500 req/s it holds within a few
/// per cent, as the lock's does at 1000.
fn headline_rate(service: Service) -> u64 {
    match service {
        Service::Lock => 1000,
        Service::Store => 500,
    }
}
/// A rung sustains its rate when its p99 is within this limit and every
/// request drained.
const P99_LIMIT_MS: u64 = 800;

/// Nominal wall seconds of one untraced full-scale pass (both ladders):
/// on the 2-vCPU host the README's numbers come from, `--seconds 30`
/// makes 13 passes in about 30 s. The pass count is derived from
/// `--seconds` through this constant, not from the clock, so every build
/// of the program makes the same number of passes.
const NOMINAL_PASS_S: f64 = 2.3;

/// The pinned per-rung fingerprints for [`DEFAULT_SEED`] at full scale.
const PINNED: &str = include_str!("../pinned/quorum_requests.txt");

#[derive(Clone, Copy, PartialEq, Eq)]
enum Service {
    Lock,
    Store,
}

impl Service {
    fn name(self) -> &'static str {
        match self {
            Service::Lock => "lock",
            Service::Store => "store",
        }
    }

    fn run(self, spec: &WorkloadSpec, obs: &Obs) -> WorkloadReport {
        match self {
            Service::Lock => run_lock_workload(spec, NetworkConfig::default(), obs),
            Service::Store => run_storage_workload(spec, NetworkConfig::default(), obs),
        }
    }
}

/// The workload spec of one rung: `rate` req/s for `horizon_s` simulated
/// seconds from 512 sessions, half reads, leader batches of up to 8.
fn spec(rate: u64, horizon_s: u64, seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        arrivals: ArrivalProcess::Poisson {
            rate_per_sec: rate as f64,
        },
        horizon: SimTime::from_secs(horizon_s),
        sessions: 512,
        population: 1_000_000,
        read_fraction: 0.5,
        seed,
        batch_max_ops: 8,
        ..WorkloadSpec::default()
    }
}

/// One rung of one service's ladder.
struct Rung {
    service: Service,
    rate: u64,
    report: WorkloadReport,
    /// Wall time inside the service runner.
    run_s: f64,
    /// Wall time of sampling the rung's arrivals on its own (traced
    /// passes only).
    arrival_s: f64,
}

impl Rung {
    fn p50_ms(&self) -> u64 {
        self.report.latency_p50.as_millis()
    }

    fn p99_ms(&self) -> u64 {
        self.report.latency_p99.as_millis()
    }

    fn drained(&self) -> bool {
        self.report.completed == self.report.requests
    }

    fn sustained(&self) -> bool {
        self.drained() && self.p99_ms() <= P99_LIMIT_MS
    }

    fn fingerprint(&self) -> String {
        format!(
            "{} {} requests={} completed={} p50_ms={} p99_ms={}",
            self.service.name(),
            self.rate,
            self.report.requests,
            self.report.completed,
            self.p50_ms(),
            self.p99_ms()
        )
    }
}

/// Registry counters the traced passes read.
const REGISTRY: &[&str] = &[
    "workload.requests",
    "workload.completed",
    "workload.retransmits",
    "workload_store.requests",
    "workload_store.completed",
    "workload_store.retransmits",
    "paxos.msg_sent.",
    "paxos.batched_ops",
    "paxos.batches_proposed",
    "paxos.elections_started",
    "storage.msg_sent.",
    "storage.batched_ops",
    "storage.batches_proposed",
    "storage.reads_reconstructed",
    "storage.reads_unavailable",
];

/// `REGISTRY` counters in `obs`; a name ending in `.` sums its family.
fn registry_counters(obs: &Obs) -> BTreeMap<&'static str, u64> {
    let snapshot = obs.metrics.snapshot();
    REGISTRY
        .iter()
        .map(|&name| {
            let v = if name.ends_with('.') {
                snapshot.counter_family(name)
            } else {
                snapshot.counter(name).unwrap_or(0)
            };
            (name, v)
        })
        .collect()
}

/// One climb of both ladders.
struct Pass {
    rungs: Vec<Rung>,
    counters: BTreeMap<&'static str, u64>,
}

impl Pass {
    fn completed(&self) -> u64 {
        self.rungs.iter().map(|r| r.report.completed).sum()
    }

    fn signature(&self) -> Vec<String> {
        self.rungs
            .iter()
            .map(|r| format!("{} retransmits={}", r.fingerprint(), r.report.retransmits))
            .collect()
    }
}

fn horizon_s(scale: Scale) -> u64 {
    match scale {
        Scale::Full => 10,
        Scale::Tiny => 1,
    }
}

fn run_pass(args: &Args, traced: bool) -> Pass {
    let obs = if traced {
        Obs::simulated().0
    } else {
        Obs::disabled()
    };
    let mut pass = Pass {
        rungs: Vec::new(),
        counters: BTreeMap::new(),
    };
    for service in [Service::Lock, Service::Store] {
        for (i, &rate) in RATES.iter().enumerate() {
            let spec = spec(
                rate,
                horizon_s(args.scale),
                args.seed.wrapping_add(i as u64),
            );
            let mut arrival_s = 0.0;
            if traced {
                // The runner samples arrivals internally under a salted
                // seed; the same process over the same horizon costs the
                // same, so it is timed here on its own.
                let start = Instant::now();
                let arrivals = spec.arrivals.sample(spec.seed, spec.horizon);
                arrival_s = start.elapsed().as_secs_f64();
                std::hint::black_box(arrivals);
            }
            let start = Instant::now();
            let report = service.run(&spec, &obs);
            let run_s = start.elapsed().as_secs_f64();
            pass.rungs.push(Rung {
                service,
                rate,
                report,
                run_s,
                arrival_s,
            });
        }
    }
    if traced {
        pass.counters = registry_counters(&obs);
    }
    pass
}

/// Everything before the first rung: one short warm-up run of each
/// service.
fn set_up(args: &Args) -> f64 {
    let start = Instant::now();
    let warm = spec(200, 2, args.seed);
    for service in [Service::Lock, Service::Store] {
        std::hint::black_box(service.run(&warm, &Obs::disabled()));
    }
    start.elapsed().as_secs_f64()
}

/// Run the workload and reduce it to metrics.
pub fn run(args: &Args) -> Outcome {
    let reps = match args.scale {
        Scale::Full => 7,
        Scale::Tiny => 1,
    };
    let setup_s: Vec<f64> = (0..reps).map(|_| set_up(args)).collect();

    // A traced invocation alternates untraced and traced passes.
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    for _ in 0..pass_count(args, NOMINAL_PASS_S) {
        plain.push(run_pass(args, false));
        if args.trace {
            traced.push(run_pass(args, true));
        }
    }

    let mut out = Outcome::default();
    check(args, &plain, &traced, &mut out);
    let first = &plain[0];
    if args.fingerprints {
        for rung in &first.rungs {
            println!("fingerprint {}", rung.fingerprint());
        }
    }

    // End-to-end metrics, from the untraced passes.
    let run_s = rung_s(&plain, |r| r.run_s);
    out.set("setup_s", median(&setup_s));
    out.set("requests_per_s", first.completed() as f64 / run_s);
    let headline = |service: Service| {
        first
            .rungs
            .iter()
            .find(|r| r.service == service && r.rate == headline_rate(service))
            .expect("the ladder holds the headline rate")
    };
    out.set("lock_p50_ms", headline(Service::Lock).p50_ms() as f64);
    out.set("lock_p99_ms", headline(Service::Lock).p99_ms() as f64);
    out.set("store_p50_ms", headline(Service::Store).p50_ms() as f64);
    out.set("store_p99_ms", headline(Service::Store).p99_ms() as f64);
    out.set("lock_max_rps", max_rps(first, Service::Lock) as f64);
    out.set("store_max_rps", max_rps(first, Service::Store) as f64);
    eprintln!(
        "quorum_requests: {} untraced passes of {} requests, walls {:.3?} s",
        plain.len(),
        first.rungs.iter().map(|r| r.report.requests).sum::<u64>(),
        plain
            .iter()
            .map(|p| p.rungs.iter().map(|r| r.run_s).sum::<f64>())
            .collect::<Vec<_>>()
    );

    // Per-layer metrics, from the traced passes.
    if let Some(t) = traced.first() {
        let c = |name: &str| t.counters.get(name).copied().unwrap_or(0) as f64;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let requests = c("workload.requests") + c("workload_store.requests");
        let cluster_s = |service: Service| {
            rung_s(&traced, |r| {
                if r.service == service {
                    r.run_s - r.arrival_s
                } else {
                    0.0
                }
            })
        };
        out.set("workload.arrival_s", rung_s(&traced, |r| r.arrival_s));
        out.set("workload.requests", requests);
        out.set(
            "workload.retransmit_ratio",
            ratio(
                c("workload.retransmits") + c("workload_store.retransmits"),
                requests,
            ),
        );
        out.set("paxos.cluster_s", cluster_s(Service::Lock));
        out.set(
            "paxos.msgs_per_op",
            ratio(c("paxos.msg_sent."), c("workload.completed")),
        );
        out.set(
            "paxos.ops_per_batch",
            ratio(c("paxos.batched_ops"), c("paxos.batches_proposed")),
        );
        out.set("paxos.elections", c("paxos.elections_started"));
        out.set("storage.cluster_s", cluster_s(Service::Store));
        out.set(
            "storage.msgs_per_op",
            ratio(c("storage.msg_sent."), c("workload_store.completed")),
        );
        out.set(
            "storage.ops_per_batch",
            ratio(c("storage.batched_ops"), c("storage.batches_proposed")),
        );
        out.set(
            "storage.reads_reconstructed",
            c("storage.reads_reconstructed"),
        );
        out.set("storage.reads_unavailable", c("storage.reads_unavailable"));
        out.set(
            "obs.overhead_frac",
            rung_s(&traced, |r| r.run_s) / run_s - 1.0,
        );
    }
    out
}

/// `time` of every rung, each at its fastest repeat across `passes`,
/// summed.
fn rung_s(passes: &[Pass], time: impl Fn(&Rung) -> f64) -> f64 {
    fastest_calls(passes, passes[0].rungs.len(), |p, i| time(&p.rungs[i]))
}

/// The highest ladder rate the service sustains (0 if none).
fn max_rps(pass: &Pass, service: Service) -> u64 {
    pass.rungs
        .iter()
        .filter(|r| r.service == service && r.sustained())
        .map(|r| r.rate)
        .max()
        .unwrap_or(0)
}

/// The output checks: per-rung invariants on every pass, determinism
/// across passes, and the pinned fingerprints on the default seed.
fn check(args: &Args, plain: &[Pass], traced: &[Pass], out: &mut Outcome) {
    for (i, pass) in plain.iter().chain(traced).enumerate() {
        for rung in &pass.rungs {
            let requests = rung.report.requests;
            out.attempted += requests;
            let knee = max_rps(pass, rung.service);
            let label = format!("pass {i}: {} at {} req/s", rung.service.name(), rung.rate);
            if rung.p50_ms() > rung.p99_ms() {
                out.fail(requests, format!("{label}: p50 above p99"));
            } else if rung.rate < knee && !rung.drained() {
                out.fail(requests, format!("{label}: below the knee but not drained"));
            } else if !rung.drained() {
                out.fail(
                    requests - rung.report.completed,
                    format!("{label}: requests never completed"),
                );
            }
        }
    }
    let reference = plain[0].signature();
    for (i, pass) in plain.iter().chain(traced).enumerate().skip(1) {
        if pass.signature() != reference {
            out.fail(
                pass.rungs.iter().map(|r| r.report.requests).sum(),
                format!("pass {i}: rungs differ from pass 0"),
            );
        }
    }
    for (i, pass) in traced.iter().enumerate().skip(1) {
        if pass.counters != traced[0].counters {
            out.fail(
                pass.rungs.iter().map(|r| r.report.requests).sum(),
                format!("traced pass {i}: registry counters differ from traced pass 0"),
            );
        }
    }
    if args.seed == DEFAULT_SEED && args.scale == Scale::Full {
        let pinned: Vec<&str> = PINNED.lines().filter(|l| !l.is_empty()).collect();
        let rungs = &plain[0].rungs;
        if pinned.len() != rungs.len() {
            out.fail(1, format!("{} rungs, {} pinned", rungs.len(), pinned.len()));
        } else {
            for (rung, want) in rungs.iter().zip(pinned) {
                if rung.fingerprint() != want {
                    out.fail(
                        rung.report.requests,
                        format!("pinned: got {}, want {want}", rung.fingerprint()),
                    );
                }
            }
        }
    }
}

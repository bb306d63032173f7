//! Service-level replay: run the *actual* Paxos lock service while the
//! spot market kills and replaces its instances.
//!
//! The market-level replay ([`crate::lifecycle`]) accounts availability by
//! quorum arithmetic, as the paper's 11-week trace replays do. This module
//! closes the loop for the feasibility claim (§5.4): the bid schedule is
//! executed against a real replicated lock service on the simulated
//! network — instances join through Paxos **view change**, out-of-bid
//! terminations crash live replicas mid-protocol, and a closed-loop client
//! measures request-level behaviour through every failover.
//!
//! Time mapping: one market minute = one simulated second, so a 12-hour
//! market window runs as a 43 200 s protocol simulation. Leader failovers
//! (~1–2 s simulated) therefore correspond to one or two market minutes of
//! measured unavailability — the same order as real Chubby failovers.

use std::collections::HashMap;

use jupiter::framework::MarketSnapshot;
use jupiter::{BiddingFramework, BiddingStrategy, ServiceSpec};
use obs::{Obs, SloSpec, SloTracker};
use paxos::{ClientOp, Cluster, LockCmd, LockService, ReplicaConfig};
use simnet::{NetworkConfig, NodeId, SimTime};
use spot_market::{Market, Price, Zone};


/// Service-level replay parameters.
#[derive(Clone, Copy, Debug)]
pub struct ServiceReplayConfig {
    /// Market minute the evaluation starts at (history before it trains
    /// the models).
    pub eval_start: u64,
    /// Evaluated market minutes (kept short: this runs a full protocol
    /// simulation).
    pub window_minutes: u64,
    /// Bidding interval in hours.
    pub interval_hours: u64,
    /// Latency bound a request must meet to count as served (simulated
    /// milliseconds).
    pub sla_ms: u64,
    /// Simulation seed.
    pub seed: u64,
}

/// What the service-level replay observed.
#[derive(Clone, Debug)]
pub struct ServiceReplayOutcome {
    /// Lock operations completed.
    pub ops_completed: usize,
    /// Lock operations still outstanding at the end.
    pub ops_unfinished: usize,
    /// Mean completion latency (simulated ms).
    pub mean_latency_ms: f64,
    /// Worst completion latency (simulated ms).
    pub max_latency_ms: u64,
    /// Fraction of completed ops within the SLA bound.
    pub sla_fraction: f64,
    /// Membership reconfigurations executed.
    pub reconfigs: usize,
    /// Out-of-bid crashes injected.
    pub crashes: usize,
    /// Length of the agreed log prefix across live replicas at the end.
    pub agreed_log_len: usize,
}

fn to_sim(minute_rel: u64) -> SimTime {
    SimTime::from_secs(minute_rel)
}

/// Exact quantile of a sorted sample (nearest-rank); 0 on empty input.
fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Fold the tracer ring into `trace.*` instruments: per-operation commit
/// latency (the duration of each complete `client.request` root span, with
/// exact p50/p99 published as counters so the bench baseline can diff
/// them), per-hop critical-path attribution histograms, and orphan/
/// incomplete counts for chaos post-mortems. No-op when tracing is
/// disabled, so the untraced replay path is untouched.
pub fn record_trace_metrics(obs: &Obs) {
    if !obs.trace.is_enabled() {
        return;
    }
    let events = obs.trace.events();
    let traces = obs::assemble_traces(&events);
    let latency_hist = obs.histogram("trace.commit_latency_micros");
    let mut latencies: Vec<u64> = Vec::new();
    let mut orphans = 0u64;
    let mut incomplete = 0u64;
    for t in &traces {
        orphans += t.orphans().len() as u64;
        let Some(lat) = t.latency_micros() else {
            incomplete += 1;
            continue;
        };
        latencies.push(lat);
        latency_hist.record(lat);
        for (hop, micros) in obs::hop_self_times(&obs::critical_path(t)) {
            obs.histogram(&format!("trace.hop.{hop}_micros")).record(micros);
        }
    }
    latencies.sort_unstable();
    obs.counter("trace.ops").add(latencies.len() as u64);
    obs.counter("trace.orphan_spans").add(orphans);
    obs.counter("trace.incomplete").add(incomplete);
    obs.counter("trace.commit_latency_p50_micros")
        .add(quantile(&latencies, 0.50));
    obs.counter("trace.commit_latency_p99_micros")
        .add(quantile(&latencies, 0.99));
}

/// Online request-latency SLO: feed the assembled traces' commit
/// latencies (one observation per completed operation, timestamped on
/// the market-minute axis — one sim second is one market minute) into a
/// [`SloTracker`] with the paper's 0.99 objective against `sla_ms`.
/// Burn-rate alerts land in `obs.alerts` as `slo.request_latency.*`;
/// the verdict is published as `slo.request_latency.availability` /
/// `slo.request_latency.budget_remaining` ppm counters. No-op unless
/// both tracing and alerting are enabled.
pub fn record_latency_slo(obs: &Obs, eval_start: u64, window_minutes: u64, sla_ms: u64) {
    if !obs.trace.is_enabled() || !obs.alerts.is_enabled() {
        return;
    }
    let events = obs.trace.events();
    let traces = obs::assemble_traces(&events);
    let mut completions: Vec<(u64, bool)> = traces
        .iter()
        .filter_map(|t| {
            let latency = t.latency_micros()?;
            let done_micros = t.root()?.end_micros?;
            Some((
                eval_start + done_micros / 1_000_000,
                latency <= sla_ms.saturating_mul(1_000),
            ))
        })
        .collect();
    completions.sort_unstable();
    let mut slo = SloTracker::new(SloSpec::request_latency(window_minutes), obs.alerts.clone());
    for &(minute, ok) in &completions {
        slo.record(minute, if ok { 1.0 } else { 0.0 }, 1.0);
    }
    obs.counter("slo.request_latency.availability")
        .add((slo.availability().clamp(0.0, 1.0) * 1e6).round() as u64);
    obs.counter("slo.request_latency.budget_remaining")
        .add((slo.budget_remaining().max(0.0) * 1e6).round() as u64);
    obs.counter("slo.request_latency.alerts_fired")
        .add(slo.alerts_fired());
}

/// Run the lock service under a bidding strategy for a short market
/// window. Returns request-level metrics.
pub fn lock_service_replay<S: BiddingStrategy>(
    market: &Market,
    strategy: S,
    config: ServiceReplayConfig,
) -> ServiceReplayOutcome {
    lock_service_replay_observed(market, strategy, config, &Obs::disabled())
}

/// [`lock_service_replay`] with observability: the bidding framework and
/// every Paxos replica record into the shared [`Obs`] (`jupiter.*` and
/// `paxos.*` instruments).
pub fn lock_service_replay_observed<S: BiddingStrategy>(
    market: &Market,
    strategy: S,
    config: ServiceReplayConfig,
    obs: &Obs,
) -> ServiceReplayOutcome {
    let spec = ServiceSpec::lock_service();
    let ty = spec.instance_type;
    assert!(
        config.eval_start + config.window_minutes <= market.horizon(),
        "window beyond market horizon"
    );

    // Train the failure models on the revealed prefix.
    let mut framework = BiddingFramework::new(spec.clone(), strategy).with_obs(obs.clone());
    for &z in market.zones() {
        framework.observe(z, ty, &market.trace(z, ty).window(0, config.eval_start));
    }

    // The protocol cluster. Node 0..n₀ are created per the first decision.
    let snapshot = |minute: u64| -> Vec<MarketSnapshot> {
        market
            .zones()
            .iter()
            .map(|&z| {
                let t = market.trace(z, ty);
                MarketSnapshot {
                    zone: z,
                    instance_type: ty,
                    spot_price: t.price_at(minute),
                    sojourn_age: t.sojourn_age_at(minute) as u32,
                }
            })
            .collect()
    };
    let interval_min = config.interval_hours * 60;
    let first = framework.decide(&snapshot(config.eval_start), interval_min as u32);
    assert!(first.n() > 0, "strategy found no initial deployment");

    let mut cluster: Cluster<LockService> = Cluster::new(
        first.n(),
        LockService::new(),
        ReplicaConfig {
            obs: obs.clone(),
            ..ReplicaConfig::default()
        },
        NetworkConfig::default(),
        config.seed,
    );
    // zone → (node, bid) for the live fleet.
    let mut fleet: HashMap<Zone, (NodeId, Price)> = HashMap::new();
    for (slot, pb) in first.bids.iter().enumerate() {
        fleet.insert(pb.zone, (NodeId(slot), pb.bid));
    }
    let admin = cluster.add_client();
    let worker = cluster.add_client();

    let mut reconfigs = 0usize;
    let mut crashes = 0usize;
    // Cumulative trajectories on the market-minute axis — the crash/churn
    // view of the same window the market replay records per interval.
    let crash_series = obs.series.series("service.crashes");
    let fleet_series = obs.series.series("service.fleet_size");
    let reconfig_series = obs.series.series("service.reconfigs");
    fleet_series.record(config.eval_start, fleet.len() as f64);

    // Pre-queue a steady lock workload: acquire/release pairs.
    let mut queued = 0usize;
    let refill = |cluster: &mut Cluster<LockService>, queued: &mut usize, upto: usize| {
        while *queued < upto {
            let name = format!("lease-{}", *queued / 2);
            let cmd = if (*queued).is_multiple_of(2) {
                LockCmd::Acquire {
                    name,
                    owner: worker,
                }
            } else {
                LockCmd::Release {
                    name,
                    owner: worker,
                }
            };
            cluster.submit(worker, ClientOp::App(cmd));
            *queued += 1;
        }
    };
    // One op roughly every two simulated seconds.
    let total_ops = (config.window_minutes / 2).max(4) as usize;
    refill(&mut cluster, &mut queued, total_ops.min(64));

    let mut boundary = config.eval_start;
    let window_end = config.eval_start + config.window_minutes;
    while boundary < window_end {
        let interval_end = (boundary + interval_min).min(window_end);

        // Kills within this interval, in market-minute order.
        let mut kills: Vec<(u64, Zone)> = fleet
            .iter()
            .filter_map(|(&zone, &(_, bid))| {
                market
                    .out_of_bid_at(zone, ty, bid, boundary, interval_end)
                    .map(|k| (k, zone))
            })
            .collect();
        kills.sort_unstable();

        for (kill_minute, zone) in kills {
            cluster
                .sim
                .run_until(to_sim(kill_minute - config.eval_start));
            let upto = (queued + 16).min(total_ops);
            refill(&mut cluster, &mut queued, upto);
            if let Some((node, _)) = fleet.remove(&zone) {
                cluster.crash(node);
                crashes += 1;
                crash_series.record(kill_minute, crashes as f64);
            }
        }
        cluster
            .sim
            .run_until(to_sim(interval_end - config.eval_start));
        if interval_end >= window_end {
            break;
        }

        // ---- bidding-interval boundary: re-decide and reconfigure -------
        // Fold the newly revealed prices of every zone into the models.
        for &z in market.zones() {
            framework.observe(z, ty, &market.trace(z, ty).window(boundary, interval_end));
        }
        let decision = framework.decide(&snapshot(interval_end), interval_min as u32);
        if decision.n() == 0 {
            boundary = interval_end;
            continue; // keep the current fleet rather than run nothing
        }

        let mut add_nodes = Vec::new();
        let mut new_fleet: HashMap<Zone, (NodeId, Price)> = HashMap::new();
        for pb in &decision.bids {
            let (zone, bid) = (pb.zone, pb.bid);
            match fleet.get(&zone) {
                // A standing higher bid keeps protecting the instance —
                // carry it over instead of churning the membership.
                Some(&(node, old_bid)) if old_bid >= bid => {
                    new_fleet.insert(zone, (node, old_bid));
                }
                _ => {
                    if !market.grants(zone, ty, bid, interval_end) {
                        continue;
                    }
                    let node = cluster.spawn_server(LockService::new());
                    add_nodes.push(node);
                    new_fleet.insert(zone, (node, bid));
                }
            }
        }
        let remove_nodes: Vec<NodeId> = fleet
            .iter()
            .filter(|(z, _)| !new_fleet.contains_key(*z))
            .map(|(_, &(n, _))| n)
            .collect();
        if !add_nodes.is_empty() || !remove_nodes.is_empty() {
            cluster.submit(
                admin,
                ClientOp::Reconfig {
                    add: add_nodes,
                    remove: remove_nodes.clone(),
                },
            );
            let deadline = cluster.sim.now() + SimTime::from_secs(120);
            cluster.run_until_drained(admin, deadline);
            cluster.refresh_clients();
            for node in remove_nodes {
                if cluster.sim.is_up(node) {
                    cluster.crash(node); // the instance is returned to EC2
                }
            }
            reconfigs += 1;
        }
        fleet = new_fleet;
        fleet_series.record(interval_end, fleet.len() as f64);
        reconfig_series.record(interval_end, reconfigs as f64);
        let upto = (queued + 32).min(total_ops);
        refill(&mut cluster, &mut queued, upto);
        boundary = interval_end;
    }

    // Drain what remains, bounded.
    let deadline = cluster.sim.now() + SimTime::from_secs(300);
    cluster.run_until_drained(worker, deadline);

    // ---- metrics -------------------------------------------------------
    let history = cluster
        .sim
        .actor(worker)
        .and_then(paxos::PaxosNode::as_client)
        .map(|c| c.history().to_vec())
        .unwrap_or_default();
    let mut latencies: Vec<u64> = Vec::new();
    let mut unfinished = 0usize;
    for op in &history {
        match &op.completed {
            Some((done, _)) => latencies.push(done.as_millis() - op.issued_at.as_millis()),
            None => unfinished += 1,
        }
    }
    let completed = latencies.len();
    let mean = if completed == 0 {
        0.0
    } else {
        latencies.iter().sum::<u64>() as f64 / completed as f64
    };
    let max = latencies.iter().copied().max().unwrap_or(0);
    let within = latencies.iter().filter(|&&l| l <= config.sla_ms).count();
    let agreed = cluster.assert_log_agreement();
    record_trace_metrics(obs);
    record_latency_slo(obs, config.eval_start, config.window_minutes, config.sla_ms);

    ServiceReplayOutcome {
        ops_completed: completed,
        ops_unfinished: unfinished,
        mean_latency_ms: mean,
        max_latency_ms: max,
        sla_fraction: if completed == 0 {
            0.0
        } else {
            within as f64 / completed as f64
        },
        reconfigs,
        crashes,
        agreed_log_len: agreed,
    }
}

/// Outcome of a storage-service service-level replay.
#[derive(Clone, Debug)]
pub struct StorageReplayOutcome {
    /// Store operations completed (puts + gets).
    pub ops_completed: usize,
    /// Operations still outstanding at the end.
    pub ops_unfinished: usize,
    /// Gets that returned the exact bytes last put under the key.
    pub correct_reads: usize,
    /// Gets answered at all.
    pub reads: usize,
    /// Out-of-bid crashes injected.
    pub crashes: usize,
    /// Replica slot rebinds (zone or bid changes at boundaries).
    pub rebinds: usize,
}

/// Run the RS-Paxos storage service under a bidding strategy for a short
/// market window.
///
/// RS-Paxos keeps a fixed five-slot membership (shard index = slot), so
/// zone changes at bidding-interval boundaries are modelled as slot
/// *rebinds*: the outgoing instance is terminated and a fresh replica
/// takes over the slot, recovering state through protocol catch-up —
/// operationally the replacement flow of §4 with the shard index pinned.
pub fn storage_service_replay<S: BiddingStrategy>(
    market: &Market,
    strategy: S,
    config: ServiceReplayConfig,
) -> StorageReplayOutcome {
    storage_service_replay_observed(market, strategy, config, &Obs::disabled())
}

/// [`storage_service_replay`] with observability: the bidding framework
/// and every RS-Paxos replica record into the shared [`Obs`] (`jupiter.*`
/// and `storage.*` instruments).
pub fn storage_service_replay_observed<S: BiddingStrategy>(
    market: &Market,
    strategy: S,
    config: ServiceReplayConfig,
    obs: &Obs,
) -> StorageReplayOutcome {
    use storage::{ShardStore, StoreCmd, StoreResp};

    let spec = ServiceSpec::storage_service();
    let ty = spec.instance_type;
    assert!(
        config.eval_start + config.window_minutes <= market.horizon(),
        "window beyond market horizon"
    );

    let mut framework = BiddingFramework::new(spec.clone(), strategy).with_obs(obs.clone());
    for &z in market.zones() {
        framework.observe(z, ty, &market.trace(z, ty).window(0, config.eval_start));
    }
    let snapshot = |minute: u64| -> Vec<MarketSnapshot> {
        market
            .zones()
            .iter()
            .map(|&z| {
                let t = market.trace(z, ty);
                MarketSnapshot {
                    zone: z,
                    instance_type: ty,
                    spot_price: t.price_at(minute),
                    sojourn_age: t.sojourn_age_at(minute) as u32,
                }
            })
            .collect()
    };
    let interval_min = config.interval_hours * 60;
    let pick = |decision: &jupiter::BidDecision| -> Vec<(Zone, Price)> {
        decision.bids.iter().map(|b| (b.zone, b.bid)).take(5).collect()
    };
    let first = framework.decide(&snapshot(config.eval_start), interval_min as u32);
    let mut assignment = pick(&first);
    assert_eq!(assignment.len(), 5, "storage needs five zones");

    // The erasure code comes from the spec's quorum rule, the same one
    // the bidder sizes the group with.
    let mut cluster = Cluster::new(
        5,
        ShardStore::new(),
        ReplicaConfig {
            quorum: spec.quorum,
            compact_after: None,
            obs: obs.clone(),
            ..ReplicaConfig::default()
        },
        NetworkConfig::default(),
        config.seed,
    );
    let client = cluster.add_client();

    let mut crashes = 0usize;
    let mut rebinds = 0usize;
    let crash_series = obs.series.series("storage.crashes");
    let rebind_series = obs.series.series("storage.rebinds");
    let mut expected: std::collections::HashMap<String, u8> = Default::default();
    let mut op_counter = 0usize;
    let total_ops = (config.window_minutes / 3).max(4) as usize;
    let submit_some = |cluster: &mut Cluster<ShardStore>,
                           op_counter: &mut usize,
                           expected: &mut std::collections::HashMap<String, u8>,
                           upto: usize| {
        while *op_counter < upto {
            let key = format!("obj-{}", *op_counter % 7);
            if (*op_counter).is_multiple_of(2) {
                let tag = (*op_counter % 251) as u8;
                expected.insert(key.clone(), tag);
                cluster.submit(
                    client,
                    StoreCmd::Put {
                        key,
                        object: bytes::Bytes::from(vec![tag; 256]),
                    },
                );
            } else {
                cluster.submit(client, StoreCmd::Get { key });
            }
            *op_counter += 1;
        }
    };
    submit_some(&mut cluster, &mut op_counter, &mut expected, total_ops.min(40));

    let mut boundary = config.eval_start;
    let window_end = config.eval_start + config.window_minutes;
    let mut dead: Vec<usize> = Vec::new();
    while boundary < window_end {
        let interval_end = (boundary + interval_min).min(window_end);
        // Kills within this interval, slot by slot.
        let mut kills: Vec<(u64, usize)> = assignment
            .iter()
            .enumerate()
            .filter(|(slot, _)| !dead.contains(slot))
            .filter_map(|(slot, &(zone, bid))| {
                market
                    .out_of_bid_at(zone, ty, bid, boundary, interval_end)
                    .map(|k| (k, slot))
            })
            .collect();
        kills.sort_unstable();
        for (kill_minute, slot) in kills {
            cluster
                .sim
                .run_until(to_sim(kill_minute - config.eval_start));
            let upto = (op_counter + 8).min(total_ops);
            submit_some(&mut cluster, &mut op_counter, &mut expected, upto);
            cluster.crash(cluster.servers()[slot]);
            dead.push(slot);
            crashes += 1;
            crash_series.record(kill_minute, crashes as f64);
        }
        cluster
            .sim
            .run_until(to_sim(interval_end - config.eval_start));
        if interval_end >= window_end {
            break;
        }

        // Boundary: fold in revealed prices, re-decide, rebind slots.
        for &z in market.zones() {
            framework.observe(z, ty, &market.trace(z, ty).window(boundary, interval_end));
        }
        let decision = framework.decide(&snapshot(interval_end), interval_min as u32);
        let target = pick(&decision);
        if target.len() == 5 {
            // Keep slots whose zone survives with an adequate standing
            // bid; rebind the rest (restart = replacement instance).
            let mut unused: Vec<(Zone, Price)> = target
                .iter()
                .copied()
                .filter(|(z, _)| !assignment.iter().any(|(az, _)| az == z))
                .collect();
            for (slot, entry) in assignment.iter_mut().enumerate() {
                let (zone, bid) = *entry;
                let keep = target
                    .iter()
                    .any(|&(z, b)| z == zone && bid >= b)
                    && !dead.contains(&slot);
                if keep {
                    continue;
                }
                let Some((nz, nb)) = unused.pop() else {
                    // No replacement zone: revive the slot in place.
                    if dead.contains(&slot) {
                        cluster.replace(cluster.servers()[slot]);
                        dead.retain(|&s| s != slot);
                        rebinds += 1;
                    }
                    continue;
                };
                if !dead.contains(&slot) {
                    cluster.crash(cluster.servers()[slot]);
                } else {
                    dead.retain(|&s| s != slot);
                }
                cluster.replace(cluster.servers()[slot]);
                *entry = (nz, nb);
                rebinds += 1;
            }
        } else {
            // Strategy found nothing better: revive any dead slots.
            for slot in dead.drain(..) {
                cluster.replace(cluster.servers()[slot]);
                rebinds += 1;
            }
        }
        rebind_series.record(interval_end, rebinds as f64);
        let upto = (op_counter + 16).min(total_ops);
        submit_some(&mut cluster, &mut op_counter, &mut expected, upto);
        boundary = interval_end;
    }

    let deadline = cluster.sim.now() + SimTime::from_secs(300);
    cluster.run_until_drained(client, deadline);

    let history = cluster
        .sim
        .actor(client)
        .and_then(paxos::PaxosNode::as_client)
        .map(|c| c.history().to_vec())
        .unwrap_or_default();
    let mut completed = 0usize;
    let mut unfinished = 0usize;
    let mut reads = 0usize;
    let mut correct_reads = 0usize;
    // Replay the history to know what each get should have returned.
    let mut shadow: std::collections::HashMap<String, u8> = Default::default();
    for op in &history {
        match (&op.op, &op.completed) {
            (_, None) => unfinished += 1,
            (ClientOp::App(StoreCmd::Put { key, object }), Some(_)) => {
                completed += 1;
                shadow.insert(key.clone(), object.first().copied().unwrap_or(0));
            }
            (ClientOp::App(StoreCmd::Get { key }), Some((_, resp))) => {
                completed += 1;
                reads += 1;
                let want = shadow.get(key).copied();
                let got = match resp {
                    Some(StoreResp::Value { object: Some(o) }) => o.first().copied(),
                    Some(StoreResp::Value { object: None }) => None,
                    _ => Some(0xFF),
                };
                if want == got {
                    correct_reads += 1;
                }
            }
            (_, Some(_)) => completed += 1,
        }
    }
    record_trace_metrics(obs);
    record_latency_slo(obs, config.eval_start, config.window_minutes, config.sla_ms);

    StorageReplayOutcome {
        ops_completed: completed,
        ops_unfinished: unfinished,
        correct_reads,
        reads,
        crashes,
        rebinds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jupiter::JupiterStrategy;
    use spot_market::{InstanceType, MarketConfig};


    #[test]
    fn lock_service_survives_a_market_window() {
        // 2 weeks of training, a 4-hour evaluated window at 2-hour
        // intervals: at least one reconfiguration cycle plus any kills the
        // market dishes out.
        let train = 2 * 7 * 24 * 60;
        let mut cfg = MarketConfig::paper(31, train + 5 * 60);
        cfg.zones.truncate(8);
        cfg.types = vec![InstanceType::M1Small];
        let market = spot_market::Market::generate(cfg);
        let out = lock_service_replay(
            &market,
            JupiterStrategy::new(),
            ServiceReplayConfig {
                eval_start: train,
                window_minutes: 4 * 60,
                interval_hours: 2,
                sla_ms: 5_000,
                seed: 9,
            },
        );
        assert!(out.ops_completed > 50, "completed {}", out.ops_completed);
        assert!(out.sla_fraction > 0.95, "sla {}", out.sla_fraction);
        assert!(out.reconfigs <= 2);
        assert!(out.agreed_log_len > 0);
        assert_eq!(out.ops_unfinished, 0);
    }
    #[test]
    fn storage_service_survives_a_market_window() {
        let train = 2 * 7 * 24 * 60;
        let mut cfg = MarketConfig::paper(41, train + 5 * 60);
        cfg.zones.truncate(8);
        cfg.types = vec![InstanceType::M3Large];
        let market = spot_market::Market::generate(cfg);
        let out = storage_service_replay(
            &market,
            JupiterStrategy {
                max_nodes: Some(5),
                ..JupiterStrategy::new()
            },
            ServiceReplayConfig {
                eval_start: train,
                window_minutes: 4 * 60,
                interval_hours: 2,
                sla_ms: 5_000,
                seed: 3,
            },
        );
        assert!(out.ops_completed > 30, "completed {}", out.ops_completed);
        assert_eq!(out.ops_unfinished, 0, "stalled ops");
        assert!(out.reads > 10);
        assert_eq!(
            out.correct_reads, out.reads,
            "a linearizable store never returns stale bytes"
        );
    }
}

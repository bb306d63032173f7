//! Cross-commit goldens for the two quorum services' event streams.
//!
//! The chaos suite proves a schedule reproduces *within* one build; this
//! file pins what the runs produce *across* builds, so a change meant to
//! preserve protocol behaviour (a refactor, a data-structure swap) is
//! checked against the exact simulated event stream it started from:
//!
//! * the simnet run `fingerprint` and the checker's `ops_checked` for
//!   the first 8 schedules of each chaos stream — lock `0xA`, batched
//!   lock `0xC`, storage `0x5A`, batched storage `0x5B` (same seeds and
//!   plans as `tests/chaos.rs`);
//! * quiet `run_lock_workload` / `run_storage_workload` runs at a small
//!   spec, unbatched and with batch 8 / pipeline 4: requests, completed,
//!   retransmits, p50/p99, and the whole `paxos.msg_sent.*` /
//!   `storage.msg_sent.*` counter family.
//!
//! The values were recorded once and must not be re-recorded by a
//! change that claims to preserve behaviour: a mismatch there is a bug
//! in the change. Only a deliberate protocol change may update them,
//! and it must say so.

use spot_jupiter::obs::Obs;
use spot_jupiter::simnet::{ChaosPlan, ChaosSchedule, NetworkConfig, SimTime};
use spot_jupiter::workload::{
    run_lock_workload, run_storage_workload, ArrivalProcess, WorkloadReport, WorkloadSpec,
};
use test_util::{
    derive_seed, run_lock_chaos, run_lock_chaos_batched, run_storage_chaos,
    run_storage_chaos_batched, ChaosOutcome,
};

/// Schedules pinned per chaos stream.
const SCHEDULES: u64 = 8;
/// The chaos suite's default base seed.
const CHAOS_BASE: u64 = 0xC0FFEE;

type Runner = fn(&ChaosSchedule, &Obs) -> Result<ChaosOutcome, String>;

/// `(fingerprint, ops_checked)` of schedules `0..SCHEDULES` of `stream`.
fn chaos_goldens(stream: u64, plan: &ChaosPlan, run: Runner) -> Vec<(u64, usize)> {
    (0..SCHEDULES)
        .map(|i| {
            let seed = derive_seed(derive_seed(CHAOS_BASE, stream), i);
            let schedule = ChaosSchedule::generate(seed, plan);
            let out = run(&schedule, &Obs::disabled())
                .unwrap_or_else(|e| panic!("stream {stream:#x} schedule {i}: {e}"));
            (out.fingerprint, out.ops_checked)
        })
        .collect()
}

fn assert_chaos(stream: u64, plan: &ChaosPlan, run: Runner, want: &[(u64, usize)]) {
    let got = chaos_goldens(stream, plan, run);
    let table: Vec<String> = got
        .iter()
        .map(|(fp, ops)| format!("({fp:#018x}, {ops})"))
        .collect();
    assert_eq!(
        got,
        want,
        "stream {stream:#x} drifted; this build produces [{}]",
        table.join(", ")
    );
}

fn lock_plan() -> ChaosPlan {
    ChaosPlan::lock_service(SimTime::from_secs(60), 16)
}

fn storage_plan() -> ChaosPlan {
    ChaosPlan::storage_service(SimTime::from_secs(60), 12)
}

#[test]
fn lock_chaos_stream_a_is_pinned() {
    assert_chaos(
        0xA,
        &lock_plan(),
        run_lock_chaos,
        &[
            (0x9ee0280f64b87823, 24),
            (0x0e0eaeccefaceedd, 24),
            (0x4ac47093f9bfb800, 24),
            (0x898a6690ccfb438e, 24),
            (0xb02d50e0d27f18f6, 24),
            (0xc81f3cbe5272c8ea, 24),
            (0x40bdae0396fabbe5, 24),
            (0x5e47e39726def8b3, 24),
        ],
    );
}

#[test]
fn batched_lock_chaos_stream_c_is_pinned() {
    assert_chaos(
        0xC,
        &lock_plan(),
        run_lock_chaos_batched,
        &[
            (0xa0e2982110a9e86e, 36),
            (0x55e81cc02fe2e6ae, 36),
            (0xce65a8fe4fdb004a, 36),
            (0x441c4d92a00ce71f, 36),
            (0xfe8170ca908df02a, 36),
            (0x9500665b52f0e3d9, 36),
            (0x6f4cae2bd92f6d17, 36),
            (0x5b73c7d0d46646ab, 36),
        ],
    );
}

#[test]
fn storage_chaos_stream_5a_is_pinned() {
    assert_chaos(
        0x5A,
        &storage_plan(),
        run_storage_chaos,
        &[
            (0x0ea96634e7a64a68, 29),
            (0x0faed671bf50644c, 27),
            (0x0c4f47bb9df49de9, 27),
            (0x64528ddcb535079b, 29),
            (0x15e20df70ea7f988, 23),
            (0x850c94ee0c586fec, 25),
            (0xea074ff9448a9d43, 27),
            (0x12df3ef560e7782a, 28),
        ],
    );
}

#[test]
fn batched_storage_chaos_stream_5b_is_pinned() {
    assert_chaos(
        0x5B,
        &storage_plan(),
        run_storage_chaos_batched,
        &[
            (0xa3eaef8360130dbb, 56),
            (0x1de7eecf1f155042, 51),
            (0xf898108ca199948d, 48),
            (0x1fdcb80cee992be0, 61),
            (0xcd69d25b7076b54b, 53),
            (0xe9ed16169e365187, 57),
            (0xbd3cb240d4961140, 53),
            (0xc00bd978644b84de, 52),
        ],
    );
}

// ---- quiet request-level workloads ---------------------------------------

/// A small quiet spec: ~200 requests over 5 s from 16 sessions.
fn small_spec(batch_max_ops: usize, pipeline: usize) -> WorkloadSpec {
    WorkloadSpec {
        arrivals: ArrivalProcess::Poisson { rate_per_sec: 40.0 },
        horizon: SimTime::from_secs(5),
        sessions: 16,
        population: 100,
        trace_every: 0,
        batch_max_ops,
        pipeline,
        ..WorkloadSpec::default()
    }
}

/// The pinned digest of one workload run.
#[derive(Debug, PartialEq, Eq)]
struct WorkloadGolden {
    requests: u64,
    completed: u64,
    retransmits: u64,
    p50_ms: u64,
    p99_ms: u64,
    msg_sent: Vec<(String, u64)>,
}

fn digest(report: &WorkloadReport, obs: &Obs, family: &str) -> WorkloadGolden {
    WorkloadGolden {
        requests: report.requests,
        completed: report.completed,
        retransmits: report.retransmits,
        p50_ms: report.latency_p50.as_millis(),
        p99_ms: report.latency_p99.as_millis(),
        msg_sent: obs
            .metrics
            .snapshot()
            .counters
            .into_iter()
            .filter(|(name, _)| name.starts_with(family))
            .collect(),
    }
}

fn golden(
    requests: u64,
    completed: u64,
    retransmits: u64,
    p50_ms: u64,
    p99_ms: u64,
    msg_sent: &[(&str, u64)],
) -> WorkloadGolden {
    WorkloadGolden {
        requests,
        completed,
        retransmits,
        p50_ms,
        p99_ms,
        msg_sent: msg_sent.iter().map(|&(n, v)| (n.to_string(), v)).collect(),
    }
}

fn lock_run(batch_max_ops: usize, pipeline: usize) -> WorkloadGolden {
    let (obs, _clock) = Obs::simulated();
    let spec = small_spec(batch_max_ops, pipeline);
    let report = run_lock_workload(&spec, NetworkConfig::default(), &obs);
    digest(&report, &obs, "paxos.msg_sent.")
}

fn store_run(batch_max_ops: usize, pipeline: usize) -> WorkloadGolden {
    let (obs, _clock) = Obs::simulated();
    let spec = small_spec(batch_max_ops, pipeline);
    let report = run_storage_workload(&spec, NetworkConfig::default(), &obs);
    digest(&report, &obs, "storage.msg_sent.")
}

#[test]
fn quiet_lock_workload_is_pinned() {
    assert_eq!(
        lock_run(1, 0),
        golden(
            217,
            217,
            0,
            199,
            270,
            &[
                ("paxos.msg_sent.accept", 868),
                ("paxos.msg_sent.accepted", 867),
                ("paxos.msg_sent.catchup_reply", 25),
                ("paxos.msg_sent.catchup_request", 25),
                ("paxos.msg_sent.commit", 868),
                ("paxos.msg_sent.heartbeat", 160),
                ("paxos.msg_sent.prepare", 4),
                ("paxos.msg_sent.promise", 4),
                ("paxos.msg_sent.read_request", 0),
                ("paxos.msg_sent.read_response", 0),
                ("paxos.msg_sent.reject", 0),
                ("paxos.msg_sent.request", 13),
                ("paxos.msg_sent.response", 217),
            ],
        )
    );
}

#[test]
fn quiet_batched_lock_workload_is_pinned() {
    assert_eq!(
        lock_run(8, 4),
        golden(
            217,
            217,
            1,
            207,
            299,
            &[
                ("paxos.msg_sent.accept", 604),
                ("paxos.msg_sent.accepted", 602),
                ("paxos.msg_sent.catchup_reply", 18),
                ("paxos.msg_sent.catchup_request", 18),
                ("paxos.msg_sent.commit", 604),
                ("paxos.msg_sent.heartbeat", 160),
                ("paxos.msg_sent.prepare", 4),
                ("paxos.msg_sent.promise", 4),
                ("paxos.msg_sent.read_request", 0),
                ("paxos.msg_sent.read_response", 0),
                ("paxos.msg_sent.reject", 0),
                ("paxos.msg_sent.request", 14),
                ("paxos.msg_sent.response", 218),
            ],
        )
    );
}

#[test]
fn quiet_storage_workload_is_pinned() {
    assert_eq!(
        store_run(1, 0),
        golden(
            217,
            217,
            1,
            220,
            1078,
            &[
                ("storage.msg_sent.accept", 868),
                ("storage.msg_sent.accepted", 868),
                ("storage.msg_sent.catchup_reply", 42),
                ("storage.msg_sent.catchup_request", 42),
                ("storage.msg_sent.commit", 868),
                ("storage.msg_sent.heartbeat", 160),
                ("storage.msg_sent.prepare", 4),
                ("storage.msg_sent.promise", 4),
                ("storage.msg_sent.reject", 0),
                ("storage.msg_sent.request", 13),
                ("storage.msg_sent.response", 218),
                ("storage.msg_sent.shard_pull", 0),
                ("storage.msg_sent.shard_push", 0),
            ],
        )
    );
}

#[test]
fn quiet_batched_storage_workload_is_pinned() {
    assert_eq!(
        store_run(8, 4),
        golden(
            217,
            217,
            0,
            225,
            313,
            &[
                ("storage.msg_sent.accept", 588),
                ("storage.msg_sent.accepted", 586),
                ("storage.msg_sent.catchup_reply", 23),
                ("storage.msg_sent.catchup_request", 23),
                ("storage.msg_sent.commit", 588),
                ("storage.msg_sent.heartbeat", 160),
                ("storage.msg_sent.prepare", 4),
                ("storage.msg_sent.promise", 4),
                ("storage.msg_sent.reject", 0),
                ("storage.msg_sent.request", 13),
                ("storage.msg_sent.response", 217),
                ("storage.msg_sent.shard_pull", 0),
                ("storage.msg_sent.shard_push", 0),
            ],
        )
    );
}

//! Safety checkers for the replicated services under fault injection.
//!
//! Both checkers return `Err(reason)` instead of panicking, so chaos
//! sweeps can shrink a failing schedule and attach a report instead of
//! dying at the first assert.
//!
//! # Lock-service invariants (Paxos, majority quorum)
//!
//! 1. **Agreement** — all live, non-retired replicas agree on the common
//!    prefix of applied `(slot, command)` pairs.
//! 2. **Exactly-once** — each replica's state machine equals a fresh
//!    replay of its own applied prefix under per-client request
//!    deduplication (the replica's own dedup semantics).
//! 3. **Response fidelity** — every response a client recorded matches
//!    the response the deduplicated log replay produces for that
//!    `(client, req_id)`; a completed operation may only be missing from
//!    the log if no later operation of the same client is present (the
//!    in-flight tail).
//! 4. **Mutual exclusion** — after every `Granted` in the replay, the
//!    model's holder is the grantee; at most one live holder per lock
//!    ever exists.
//! 5. **Lease monotonicity** — `Renewed { until_ms }` never moves a held
//!    lease's expiry backwards.
//! 6. **Batch atomicity** — a chosen `Command::Batch` is non-empty,
//!    carries at most one command per `(client, req_id)`, and is applied
//!    whole: the exactly-once check replays each replica's full prefix,
//!    so a replica that applied only some of a batch's entries diverges
//!    from the model and fails.
//!
//! # Storage invariants (RS-Paxos θ(m, n))
//!
//! 1. **Read-your-writes** — with one closed-loop writer per key, every
//!    completed `Get` returns exactly the latest completed `Put`'s bytes
//!    (or nothing after a `Delete`); `Unavailable` is tolerated and
//!    counted, wrong or stale data is not.
//! 2. **No phantom versions** — no live replica holds a version newer
//!    than the last acknowledged write.
//! 3. **Decoded-value** — for every present key, the shards held by live
//!    replicas at the newest acknowledged version include at least `m`
//!    actual byte shards, and decoding them reproduces the acknowledged
//!    object byte-for-byte.

use std::collections::HashMap;

use erasure::ReedSolomon;
use paxos::{
    ClientOp, Cluster, Command, LockCmd, LockResp, LockService, PaxosNode, StateMachine,
};
use simnet::NodeId;
use storage::{ShardStore, StoreCmd, StoreResp};

/// What the lock checker verified (sizes for sanity asserts in tests).
#[derive(Clone, Copy, Debug, Default)]
pub struct LockCheckStats {
    /// Length of the longest applied prefix that was model-replayed.
    pub replayed: usize,
    /// Client-recorded responses cross-checked against the replay.
    pub responses_checked: usize,
    /// Live replicas whose state machines were compared.
    pub replicas_checked: usize,
    /// Batch commands audited in the longest applied prefix. Each one
    /// passed the atomicity bar: well-formed (non-empty, no duplicate
    /// `(client, req_id)`), applied as one slot, and — via the
    /// exactly-once check — never applied as a strict subset of its
    /// entries on any replica.
    pub batches_checked: usize,
}

/// What the storage checker verified.
#[derive(Clone, Copy, Debug, Default)]
pub struct StorageCheckStats {
    /// Completed client operations scanned.
    pub ops_checked: usize,
    /// Reads that returned `Unavailable` (tolerated, reported).
    pub unavailable_reads: usize,
    /// Keys whose final value was decoded from live shards.
    pub keys_decoded: usize,
    /// Keys whose newest acknowledged version survives on fewer than `m`
    /// byte-carrying replicas. Tolerated but counted: repeated
    /// crash/restart cycles — each individually within the θ(m, n)
    /// margin — can erode shards because catch-up from a source without
    /// the full object restores version metadata only. A *wrong* decode
    /// is always a failure; a key that degraded to unreadable is this.
    pub eroded_keys: usize,
}

/// Run the full lock-service invariant suite against a cluster (after
/// the driver has let it settle: schedule done, clients drained).
pub fn check_lock_cluster(c: &Cluster<LockService>) -> Result<LockCheckStats, String> {
    let mut stats = LockCheckStats::default();

    // Live, non-retired replica prefixes.
    type Prefix = Vec<(u64, Command<LockCmd>)>;
    let prefixes: Vec<(NodeId, Prefix)> = c
        .servers()
        .iter()
        .filter_map(|&id| c.replica(id).map(|r| (id, r)))
        .filter(|(_, r)| !r.is_retired())
        .map(|(id, r)| (id, r.applied_prefix()))
        .collect();
    if prefixes.is_empty() {
        return Err("no live replicas to check".into());
    }

    // 1. Agreement on the common prefix.
    let min_len = prefixes.iter().map(|(_, p)| p.len()).min().unwrap_or(0);
    for i in 0..min_len {
        let (id0, p0) = &prefixes[0];
        for (id, p) in &prefixes[1..] {
            if p0[i] != p[i] {
                return Err(format!(
                    "log divergence at index {i}: {id0} has {:?}, {id} has {:?}",
                    p0[i], p[i]
                ));
            }
        }
    }

    // 2. Exactly-once: each replica equals the dedup-replay of its own
    // prefix.
    for (id, prefix) in &prefixes {
        let (model, _) = replay_dedup(prefix)?;
        let actual = c.replica(*id).expect("live replica").state_machine();
        if &model != actual {
            return Err(format!(
                "replica {id} state diverges from the dedup-replay of its own log"
            ));
        }
        stats.replicas_checked += 1;
    }

    // 3–5. Model replay of the longest prefix with shadow invariants.
    let longest = prefixes
        .iter()
        .max_by_key(|(_, p)| p.len())
        .map(|(_, p)| p.clone())
        .unwrap_or_default();
    stats.replayed = longest.len();
    stats.batches_checked = longest
        .iter()
        .filter(|(_, c)| matches!(c, Command::Batch(_)))
        .count();
    let (_, log_info) = replay_dedup(&longest)?;

    // Client histories vs the replayed responses.
    for &client in c.clients() {
        let Some(history) = c
            .sim
            .actor(client)
            .and_then(PaxosNode::as_client)
            .map(|cl| cl.history())
        else {
            continue;
        };
        let max_in_log = log_info.max_req.get(&client).copied().unwrap_or(0);
        for op in history {
            let Some((_, resp)) = &op.completed else {
                continue;
            };
            let ClientOp::App(_) = &op.op else {
                continue; // reconfig responses carry no SM payload
            };
            match log_info.responses.get(&(client, op.req_id)) {
                Some(expected) => {
                    let got = resp.as_ref();
                    if got != Some(expected) {
                        return Err(format!(
                            "client {client} req {} completed with {:?} but the log replay \
                             produced {:?}",
                            op.req_id, got, expected
                        ));
                    }
                    stats.responses_checked += 1;
                }
                None if op.req_id <= max_in_log => {
                    return Err(format!(
                        "client {client} req {} completed but is missing from the log \
                         (later req {} is present)",
                        op.req_id, max_in_log
                    ));
                }
                None => {} // in-flight tail not yet visible on live replicas
            }
        }
    }

    Ok(stats)
}

/// Bookkeeping produced by [`replay_dedup`].
#[derive(Default)]
struct LogReplayInfo {
    /// Response per `(client, req_id)` (first occurrence; dedup makes
    /// re-proposals identical).
    responses: HashMap<(NodeId, u64), LockResp>,
    /// Highest req_id per client present in the log.
    max_req: HashMap<NodeId, u64>,
}

/// Replay a log prefix through a fresh [`LockService`] with the
/// replica's dedup semantics, enforcing the mutual-exclusion and
/// lease-monotonicity invariants along the way.
fn replay_dedup(
    prefix: &[(u64, Command<LockCmd>)],
) -> Result<(LockService, LogReplayInfo), String> {
    let mut sm = LockService::new();
    let mut dedup: HashMap<NodeId, (u64, LockResp)> = HashMap::new();
    let mut info = LogReplayInfo::default();
    // Lease expiry per lock, for monotonicity.
    let mut lease_until: HashMap<String, u64> = HashMap::new();
    // Shadow of the service's high-water command clock: leases are judged
    // dead once `clock >= expiry`, including at the moment of grant (a
    // lease acquired with an old timestamp can be dead on arrival).
    let mut clock: u64 = 0;

    for (slot, cmd) in prefix {
        // A batch is one slot value applied atomically: flatten it into
        // per-entry applications after checking it is well-formed. A
        // partially applied batch cannot hide here — the exactly-once
        // check compares each replica's machine against this replay of
        // its own full prefix, so any replica that applied a strict
        // subset of a batch's entries diverges from the model.
        let entries: Vec<(NodeId, u64, &LockCmd)> = match cmd {
            Command::Noop => continue,
            Command::Reconfig { client, req_id, .. } => {
                let m = info.max_req.entry(*client).or_default();
                *m = (*m).max(*req_id);
                continue;
            }
            Command::App {
                client,
                req_id,
                cmd,
            } => vec![(*client, *req_id, cmd)],
            Command::Batch(batch) => {
                if batch.is_empty() {
                    return Err(format!("slot {slot}: empty batch was chosen"));
                }
                let mut seen = std::collections::HashSet::new();
                for e in batch {
                    if !seen.insert((e.client, e.req_id)) {
                        return Err(format!(
                            "slot {slot}: batch contains ({}, {}) twice",
                            e.client, e.req_id
                        ));
                    }
                }
                batch.iter().map(|e| (e.client, e.req_id, &e.cmd)).collect()
            }
        };
        for (client, req_id, cmd) in entries {
            {
                let m = info.max_req.entry(client).or_default();
                *m = (*m).max(req_id);
                let already = dedup
                    .get(&client)
                    .map(|(last, _)| *last >= req_id)
                    .unwrap_or(false);
                let resp = if already {
                    dedup.get(&client).expect("dedup entry").1.clone()
                } else {
                    if let LockCmd::AcquireLease { now_ms, .. } | LockCmd::Renew { now_ms, .. } =
                        cmd
                    {
                        clock = clock.max(*now_ms);
                    }
                    let resp = sm.apply(cmd);
                    dedup.insert(client, (req_id, resp.clone()));

                    // 4. Mutual exclusion: a grant installs its owner.
                    if resp == LockResp::Granted {
                        match cmd {
                            LockCmd::Acquire { name, owner }
                                if sm.holder(name) != Some(*owner) =>
                            {
                                return Err(format!(
                                    "slot {slot}: {owner} granted {name:?} but the \
                                     model holder is {:?}",
                                    sm.holder(name)
                                ));
                            }
                            LockCmd::Acquire { .. } => {}
                            LockCmd::AcquireLease {
                                name,
                                owner,
                                now_ms,
                                ttl_ms,
                            } => {
                                let exp = now_ms + ttl_ms;
                                let want = if clock < exp {
                                    Some(*owner)
                                } else {
                                    // Dead-on-arrival grant: the lease was
                                    // already over at the grant clock.
                                    None
                                };
                                if sm.holder(name) != want {
                                    return Err(format!(
                                        "slot {slot}: {owner} granted {name:?} (exp \
                                         {exp}, clock {clock}) but the model holder \
                                         is {:?}",
                                        sm.holder(name)
                                    ));
                                }
                                if want.is_some() {
                                    lease_until.insert(name.clone(), exp);
                                } else {
                                    lease_until.remove(name);
                                }
                            }
                            _ => {}
                        }
                    }
                    // 5. Lease monotonicity.
                    match (cmd, &resp) {
                        (LockCmd::Renew { name, .. }, LockResp::Renewed { until_ms }) => {
                            let prev = lease_until.get(name).copied().unwrap_or(0);
                            if *until_ms < prev {
                                return Err(format!(
                                    "slot {slot}: lease on {name:?} renewed backwards \
                                     ({until_ms} < {prev})"
                                ));
                            }
                            lease_until.insert(name.clone(), *until_ms);
                        }
                        (LockCmd::Release { name, .. }, LockResp::Released) => {
                            lease_until.remove(name);
                        }
                        _ => {}
                    }
                    resp
                };
                info.responses.entry((client, req_id)).or_insert(resp);
            }
        }
    }
    Ok((sm, info))
}

/// Run the storage invariant suite. `writers` are the closed-loop
/// clients to audit (the workload must use one writer per key for the
/// read-your-writes check to be exact); `m` is the erasure data-shard
/// count of the deployment.
pub fn check_storage_cluster(
    c: &Cluster<ShardStore>,
    writers: &[NodeId],
    m: usize,
) -> Result<StorageCheckStats, String> {
    let mut stats = StorageCheckStats::default();
    let n = c.servers().len();
    let codec = ReedSolomon::new(m, n);

    // 1. Read-your-writes over each writer's history; build the expected
    // final image along the way.
    let mut expected: HashMap<String, (u64, Option<bytes::Bytes>)> = HashMap::new();
    for &client in writers {
        let Some(history) = c
            .sim
            .actor(client)
            .and_then(PaxosNode::as_client)
            .map(|cl| cl.history())
        else {
            continue;
        };
        for op in history {
            let (ClientOp::App(cmd), Some((_, Some(resp)))) = (&op.op, &op.completed) else {
                continue;
            };
            stats.ops_checked += 1;
            match (cmd, resp) {
                (StoreCmd::Put { key, object }, StoreResp::Stored { version }) => {
                    if let Some((prev, _)) = expected.get(key) {
                        if version <= prev {
                            return Err(format!(
                                "put of {key:?} acknowledged at version {version}, not after \
                                 the previous {prev}"
                            ));
                        }
                    }
                    expected.insert(key.clone(), (*version, Some(object.clone())));
                }
                (StoreCmd::Put { key, .. }, other) => {
                    return Err(format!("put of {key:?} answered {other:?}"));
                }
                (StoreCmd::Delete { key }, StoreResp::Deleted) => {
                    let version = expected.get(key).map(|(v, _)| *v).unwrap_or(0);
                    expected.insert(key.clone(), (version, None));
                }
                (StoreCmd::Delete { key }, other) => {
                    return Err(format!("delete of {key:?} answered {other:?}"));
                }
                (StoreCmd::Get { key }, StoreResp::Value { object }) => {
                    let want = expected.get(key).and_then(|(_, o)| o.as_ref());
                    if object.as_ref() != want {
                        return Err(format!(
                            "stale or wrong read of {key:?}: got {:?} bytes, wanted {:?}",
                            object.as_ref().map(|b| b.len()),
                            want.map(|b| b.len())
                        ));
                    }
                }
                (StoreCmd::Get { .. }, StoreResp::Unavailable) => {
                    stats.unavailable_reads += 1;
                }
                (StoreCmd::Get { key }, other) => {
                    return Err(format!("get of {key:?} answered {other:?}"));
                }
            }
        }
    }

    // 2 + 3. Per-key shard audit across live replicas.
    for (key, (version, object)) in &expected {
        let mut shards: Vec<Option<Vec<u8>>> = vec![None; n];
        let mut newest = 0u64;
        for &id in c.servers() {
            let Some(r) = c.replica(id) else { continue };
            if let Some(e) = r.state_machine().get(key) {
                newest = newest.max(e.version);
                if e.version > *version {
                    return Err(format!(
                        "replica {id} holds phantom version {} of {key:?} (last \
                         acknowledged {version})",
                        e.version
                    ));
                }
                if e.version == *version {
                    if let Some(bytes) = &e.shard {
                        shards[e.shard_idx as usize] = Some(bytes.to_vec());
                    }
                }
            }
        }
        let Some(object) = object else {
            continue; // deleted key: phantom check above is all we assert
        };
        let present = shards.iter().filter(|s| s.is_some()).count();
        if newest < *version {
            return Err(format!(
                "no live replica reached acknowledged version {version} of {key:?}"
            ));
        }
        if present < m {
            stats.eroded_keys += 1;
            continue;
        }
        let decoded = codec
            .decode_object(&shards)
            .map_err(|e| format!("decoding {key:?}@{version}: {e:?}"))?;
        if decoded != object.as_ref() {
            return Err(format!(
                "decoded value of {key:?}@{version} differs from the acknowledged write"
            ));
        }
        stats.keys_decoded += 1;
    }

    Ok(stats)
}

//! RS-Paxos as a service of the shared Multi-Paxos core: the hooks that
//! code each put into per-acceptor shards, recover coded values on
//! leader change, and reconstruct reads from `m` shards.

use std::collections::{BTreeMap, HashSet};

use bytes::Bytes;
use erasure::ReedSolomon;
use paxos::{
    BatchEntry, ClientOp, Command, Io, JoinField, Profile, QuorumRule, ReplicaConfig, Service,
    Slot, SpanNames,
};
use simnet::{NodeId, SimTime};

use crate::msg::{ShardCmd, ShardMsg, StoreCmd, StoreResp};
use crate::store::{PendingRead, ShardStore};

/// Per-put shards of one proposal, aligned with its commands (one entry
/// for a single command): `Some` for puts, indexed by view position.
pub type Shards = Vec<Option<Vec<Bytes>>>;

impl ShardStore {
    fn codec(&self) -> &ReedSolomon {
        self.codec
            .as_ref()
            .expect("the store is bound to a replica before use")
    }

    /// The wire form of one command for the acceptor at `dest`.
    fn wire_cmd(cmd: &StoreCmd, shards: Option<&Vec<Bytes>>, dest: usize) -> ShardCmd {
        match cmd {
            StoreCmd::Put { key, .. } => ShardCmd::Put {
                key: key.clone(),
                shard_idx: dest as u8,
                shard: shards.expect("puts carry shards")[dest].clone(),
            },
            StoreCmd::Get { key } => ShardCmd::Get { key: key.clone() },
            StoreCmd::Delete { key } => ShardCmd::Delete { key: key.clone() },
        }
    }

    /// Recover one command from the highest-ballot copies of it. `None`
    /// means a put with too few shards to reconstruct.
    fn recover_cmd<'a>(
        &self,
        first: &ShardCmd,
        copies: impl Iterator<Item = &'a ShardCmd>,
    ) -> Option<StoreCmd> {
        match first {
            ShardCmd::Get { key } => Some(StoreCmd::Get { key: key.clone() }),
            ShardCmd::Delete { key } => Some(StoreCmd::Delete { key: key.clone() }),
            ShardCmd::Put { key, .. } => {
                let codec = self.codec();
                let mut slots: Vec<Option<Vec<u8>>> = vec![None; codec.total_shards()];
                let mut have = 0usize;
                for c in copies {
                    if let ShardCmd::Put {
                        shard_idx, shard, ..
                    } = c
                    {
                        if !shard.is_empty() && slots[*shard_idx as usize].is_none() {
                            slots[*shard_idx as usize] = Some(shard.to_vec());
                            have += 1;
                        }
                    }
                }
                if have >= codec.data_shards() {
                    if let Ok(object) = codec.decode_object(&slots) {
                        return Some(StoreCmd::Put {
                            key: key.clone(),
                            object: Bytes::from(object),
                        });
                    }
                }
                None
            }
        }
    }

    /// Upgrade a metadata-only put record once real shard bytes arrive.
    /// Both sides describe the same decided command for the same
    /// destination, so only the shard bytes can differ.
    fn upgrade_cmd(existing: &mut ShardCmd, incoming: ShardCmd) {
        if let (ShardCmd::Put { shard: e, .. }, ShardCmd::Put { shard: i, .. }) =
            (existing, incoming)
        {
            if e.is_empty() && !i.is_empty() {
                *e = i;
            }
        }
    }

    /// Answer every pending read that has gathered `m` shards.
    fn finish_reads(&mut self, io: &mut Io<'_, Self>) {
        let m = self.codec().data_shards();
        let n = self.codec().total_shards();
        let done: Vec<(String, u64)> = self
            .pending_reads
            .iter()
            .filter(|(_, r)| r.shards.len() >= m)
            .map(|(k, _)| k.clone())
            .collect();
        for key_ver in done {
            let r = self.pending_reads.remove(&key_ver).expect("present");
            let mut slots: Vec<Option<Vec<u8>>> = vec![None; n];
            for (idx, bytes) in &r.shards {
                slots[*idx as usize] = Some(bytes.to_vec());
            }
            let resp = match self.codec().decode_object(&slots) {
                Ok(object) => {
                    let object = Bytes::from(object);
                    self.objects
                        .insert(key_ver.0.clone(), (key_ver.1, object.clone()));
                    self.reads_reconstructed.inc();
                    StoreResp::Value {
                        object: Some(object),
                    }
                }
                Err(_) => {
                    self.reads_unavailable.inc();
                    StoreResp::Unavailable
                }
            };
            io.finish(r.client, r.req_id, resp);
        }
    }
}

impl Service for ShardStore {
    type Command = StoreCmd;
    type Response = StoreResp;
    type Wire = ShardCmd;
    type Encoded = Shards;
    type Ext = ShardMsg;

    const PROFILE: Profile = Profile {
        prefix: "storage",
        spans: SpanNames {
            election: "storage.election",
            takeover: None,
            propose: "storage.propose",
            quorum_wait: "storage.quorum_wait",
            commit: "storage.commit",
            apply: "storage.apply",
            batch_join: "storage.batch_join",
        },
        replica_salt: 0xD1B5_4A32,
        client_salt: 0x2545_F491,
        session_timeout: SimTime::from_millis(1_500),
        step_down_drops_pending: true,
        apply_duplicates: true,
        count_single_batches: false,
        local_reads: false,
        reconfig: false,
        batch_join: JoinField::Client,
    };

    /// Bind the θ(m, n) code: `m` from the RS-Paxos quorum rule, `n` the
    /// group size (shard index = view position).
    fn attach(&mut self, n: usize, cfg: &ReplicaConfig) {
        let QuorumRule::RsPaxos { m } = cfg.quorum else {
            panic!("the RS-Paxos store needs an RsPaxos quorum rule");
        };
        assert!(m >= 1 && m <= n, "invalid erasure m");
        assert!(
            cfg.compact_after.is_none(),
            "the RS-Paxos store cannot compact: a peer's snapshot carries its own shards"
        );
        self.codec = Some(ReedSolomon::new(m, n));
        self.reads_reconstructed = cfg.obs.counter("storage.reads_reconstructed");
        self.reads_unavailable = cfg.obs.counter("storage.reads_unavailable");
    }

    fn encode(&self, value: &Command<StoreCmd>) -> Shards {
        let encode_one = |cmd: &StoreCmd| match cmd {
            StoreCmd::Put { object, .. } => Some(self.codec().encode_object(object)),
            _ => None,
        };
        match value {
            Command::Batch(entries) => entries.iter().map(|e| encode_one(&e.cmd)).collect(),
            Command::App { cmd, .. } => vec![encode_one(cmd)],
            _ => vec![None],
        }
    }

    /// Acceptor `dest` gets shard `dest` of every put.
    fn wire_for(&self, value: &Command<StoreCmd>, enc: &Shards, dest: usize) -> Command<ShardCmd> {
        value.map_cmds(|j, cmd| Self::wire_cmd(cmd, enc[j].as_ref(), dest))
    }

    /// Re-encode a chosen put's shard for `dest` when the full object is
    /// at hand (a batched put's version is the shared slot, so each
    /// command reshapes like a single one); otherwise send metadata so
    /// the destination at least tracks versions.
    fn reshape_for(
        &self,
        chosen: &Command<ShardCmd>,
        slot: Slot,
        dest: usize,
    ) -> Command<ShardCmd> {
        chosen.map_cmds(|_, cmd| match cmd {
            ShardCmd::Put { key, .. } => {
                let shard = match self.objects.get(key) {
                    Some((version, object)) if *version == slot => {
                        self.codec().encode_object(object)[dest].clone()
                    }
                    _ => Bytes::new(),
                };
                ShardCmd::Put {
                    key: key.clone(),
                    shard_idx: dest as u8,
                    shard,
                }
            }
            other => other.clone(),
        })
    }

    /// Reconstruct a slot value from the highest-ballot shards seen in a
    /// prepare quorum. A chosen put always yields ≥ m shards here
    /// (quorum intersection ≥ m); fewer shards prove the value was never
    /// chosen, so a no-op is safe. For batches the same argument holds
    /// per put — a chosen batch yields ≥ m shards for *every* put — so
    /// any unrecoverable command proves the whole batch was never chosen
    /// and the slot no-ops atomically (a batch is never partially
    /// recovered).
    fn recover(&self, values: &[Command<ShardCmd>]) -> Command<StoreCmd> {
        match &values[0] {
            Command::Batch(entries) => {
                let mut out = Vec::with_capacity(entries.len());
                for (j, e) in entries.iter().enumerate() {
                    let copies = values.iter().filter_map(|v| match v {
                        Command::Batch(es) if es.len() == entries.len() => {
                            es.get(j).map(|c| &c.cmd)
                        }
                        _ => None,
                    });
                    match self.recover_cmd(&e.cmd, copies) {
                        Some(cmd) => out.push(BatchEntry {
                            client: e.client,
                            req_id: e.req_id,
                            cmd,
                        }),
                        None => return Command::Noop,
                    }
                }
                Command::Batch(out)
            }
            Command::App {
                client,
                req_id,
                cmd,
            } => {
                let copies = values.iter().filter_map(|v| match v {
                    Command::App { cmd, .. } => Some(cmd),
                    _ => None,
                });
                match self.recover_cmd(cmd, copies) {
                    Some(cmd) => Command::App {
                        client: *client,
                        req_id: *req_id,
                        cmd,
                    },
                    None => Command::Noop,
                }
            }
            _ => Command::Noop,
        }
    }

    fn upgrade_chosen(existing: &mut Command<ShardCmd>, incoming: Command<ShardCmd>) {
        match (existing, incoming) {
            (Command::App { cmd: e, .. }, Command::App { cmd: i, .. }) => Self::upgrade_cmd(e, i),
            (Command::Batch(es), Command::Batch(is)) if es.len() == is.len() => {
                for (e, i) in es.iter_mut().zip(is) {
                    Self::upgrade_cmd(&mut e.cmd, i.cmd);
                }
            }
            _ => {}
        }
    }

    /// Cache the chosen full objects at the leader (each batched put
    /// shares the slot as its version).
    fn on_chosen(&mut self, slot: Slot, value: &Command<StoreCmd>) {
        let puts: Vec<(String, Bytes)> = match value {
            Command::App {
                cmd: StoreCmd::Put { key, object },
                ..
            } => vec![(key.clone(), object.clone())],
            Command::Batch(entries) => entries
                .iter()
                .filter_map(|e| match &e.cmd {
                    StoreCmd::Put { key, object } => Some((key.clone(), object.clone())),
                    _ => None,
                })
                .collect(),
            _ => Vec::new(),
        };
        for (key, object) in puts {
            self.objects.insert(key, (slot, object));
        }
    }

    /// Batch composition: at most one command per client and one put per
    /// key (a batched put's version is the slot, which all entries
    /// share). A composition conflict means waiting cannot grow the
    /// batch further; only a genuinely short batch is worth holding open
    /// for the delay window.
    fn batch_take<'a>(
        pending: impl Iterator<Item = (NodeId, &'a ClientOp<StoreCmd>)>,
        queued: usize,
        max_ops: usize,
    ) -> (usize, bool) {
        let mut clients = HashSet::new();
        let mut put_keys = HashSet::new();
        let mut take = 0usize;
        for (client, op) in pending {
            if take >= max_ops || !clients.insert(client) {
                break;
            }
            if let ClientOp::App(StoreCmd::Put { key, .. }) = op {
                if !put_keys.insert(key) {
                    break;
                }
            }
            take += 1;
        }
        (take, take >= max_ops || take < queued)
    }

    fn apply_entry(
        &mut self,
        slot: Slot,
        client: NodeId,
        req_id: u64,
        cmd: ShardCmd,
        io: &mut Io<'_, Self>,
    ) -> Option<StoreResp> {
        match cmd {
            ShardCmd::Put {
                key,
                shard_idx,
                shard,
            } => {
                let bytes = (!shard.is_empty()).then_some(shard);
                self.apply_put(&key, slot, shard_idx, bytes);
                Some(StoreResp::Stored { version: slot })
            }
            ShardCmd::Delete { key } => {
                self.apply_delete(&key, slot);
                self.objects.remove(&key);
                Some(StoreResp::Deleted)
            }
            ShardCmd::Get { key } => {
                if !io.is_leader() {
                    // Followers only note the read in dedup-free fashion.
                    return None;
                }
                let Some(entry) = self.get(&key) else {
                    return Some(StoreResp::Value { object: None });
                };
                let version = entry.version;
                if let Some((v, object)) = self.objects.get(&key) {
                    if *v == version {
                        return Some(StoreResp::Value {
                            object: Some(object.clone()),
                        });
                    }
                }
                // Reconstruct: gather shards from peers.
                let mut shards = BTreeMap::new();
                if let Some(bytes) = &entry.shard {
                    shards.insert(entry.shard_idx, bytes.clone());
                }
                self.pending_reads.insert(
                    (key.clone(), version),
                    PendingRead {
                        client,
                        req_id,
                        shards,
                        started: io.now(),
                        last_pull: io.now(),
                    },
                );
                io.broadcast(ShardMsg::Pull { key, version });
                self.finish_reads(io);
                None
            }
        }
    }

    fn on_ext(&mut self, from: NodeId, msg: ShardMsg, io: &mut Io<'_, Self>) {
        match msg {
            ShardMsg::Pull { key, version } => {
                if let Some(entry) = self.get(&key) {
                    if entry.version == version {
                        if let Some(shard) = &entry.shard {
                            let push = ShardMsg::Push {
                                key,
                                version,
                                shard_idx: entry.shard_idx,
                                shard: shard.clone(),
                            };
                            io.send(from, push);
                        }
                    }
                }
            }
            ShardMsg::Push {
                key,
                version,
                shard_idx,
                shard,
            } => {
                if let Some(r) = self.pending_reads.get_mut(&(key, version)) {
                    r.shards.entry(shard_idx).or_insert(shard);
                    self.finish_reads(io);
                }
            }
        }
    }

    /// Retry or expire the reads in reconstruction.
    fn on_leader_tick(&mut self, io: &mut Io<'_, Self>) {
        let now = io.now();
        let (read_timeout, retry) = (io.config().read_timeout, io.config().proposal_retry);
        let mut expired = Vec::new();
        let mut repull = Vec::new();
        for (kv, r) in &self.pending_reads {
            if now.saturating_sub(r.started) >= read_timeout {
                expired.push(kv.clone());
            } else if now.saturating_sub(r.last_pull) >= retry {
                repull.push(kv.clone());
            }
        }
        for kv in expired {
            let r = self.pending_reads.remove(&kv).expect("present");
            io.finish(r.client, r.req_id, StoreResp::Unavailable);
        }
        for (key, version) in repull {
            if let Some(r) = self.pending_reads.get_mut(&(key.clone(), version)) {
                r.last_pull = now;
            }
            io.broadcast(ShardMsg::Pull { key, version });
        }
    }

    fn on_step_down(&mut self) {
        self.pending_reads.clear();
    }
}

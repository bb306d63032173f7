//! The replica: acceptor + proposer + learner + service host — the one
//! Multi-Paxos engine, generic over the [`Service`] it replicates.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

use obs::{Counter, FieldValue, Gauge, Histogram, Obs, SpanHandle, TraceContext};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use simnet::{Context, NodeId, SimTime, TimerToken};

use crate::ballot::{Ballot, Slot};
use crate::msg::{
    AcceptedEntry, BatchEntry, ChosenEntry, ClientOp, Command, Msg, QuorumRule, SnapshotData,
    CORE_KINDS,
};
use crate::service::{ExtMsg, JoinField, Service};

/// Static replica configuration.
#[derive(Clone, Debug)]
pub struct ReplicaConfig {
    /// The quorum rule (majority for the lock service, RS-Paxos for the
    /// coded storage service).
    pub quorum: QuorumRule,
    /// Internal bookkeeping tick.
    pub tick: SimTime,
    /// Leader heartbeat period.
    pub heartbeat_every: SimTime,
    /// Election timeout range (randomized per deadline).
    pub election_timeout: (SimTime, SimTime),
    /// Re-broadcast period for unacknowledged proposals (and for the
    /// store's shard pulls).
    pub proposal_retry: SimTime,
    /// The store gives up on a read after this long without `m` shards.
    pub read_timeout: SimTime,
    /// Maximum entries per catch-up reply batch.
    pub catchup_batch: usize,
    /// Compact the log (snapshot + prune) once this many slots have been
    /// applied since the previous compaction. `None` disables compaction.
    pub compact_after: Option<u64>,
    /// Maximum client operations folded into one slot. `1` disables
    /// batching (each request gets its own slot, the pre-batching wire
    /// behavior, byte-identical message streams).
    pub batch_max_ops: usize,
    /// How long the leader lingers on a partial batch before proposing
    /// it anyway. Only consulted when batching is enabled.
    pub batch_delay: SimTime,
    /// Maximum in-flight (accepted-but-unchosen) proposals at the
    /// leader. `0` means unlimited — the pre-pipelining behavior.
    /// With a bound, excess requests queue at the leader and are
    /// batched into slots as the window frees up.
    pub pipeline: usize,
    /// Serve read-only commands ([`Service::is_read_only`]) from
    /// the local applied state instead of the log. Guarantees session
    /// monotonicity (a read never precedes the issuing client's last
    /// acknowledged write), not full linearizability.
    pub local_reads: bool,
    /// Observability sink (metrics + tracing). Disabled by default; when
    /// enabled the replica counts messages by kind, tracks elections and
    /// ballot churn, and times phase-1/phase-2 round trips in sim time.
    pub obs: Obs,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        ReplicaConfig {
            quorum: QuorumRule::Majority,
            tick: SimTime::from_millis(50),
            heartbeat_every: SimTime::from_millis(200),
            election_timeout: (SimTime::from_millis(800), SimTime::from_millis(1600)),
            proposal_retry: SimTime::from_millis(400),
            read_timeout: SimTime::from_secs(5),
            catchup_batch: 512,
            compact_after: Some(4096),
            batch_max_ops: 1,
            batch_delay: SimTime::from_millis(5),
            pipeline: 0,
            local_reads: false,
            obs: Obs::disabled(),
        }
    }
}

impl ReplicaConfig {
    /// The defaults for a θ(m, n) RS-Paxos group: `⌈(n+m)/2⌉` quorums
    /// and no compaction (a peer's snapshot would carry its own shards,
    /// not the receiver's).
    pub fn rs_paxos(m: usize) -> Self {
        ReplicaConfig {
            quorum: QuorumRule::RsPaxos { m },
            compact_after: None,
            ..ReplicaConfig::default()
        }
    }
}

const TICK_TOKEN: TimerToken = TimerToken(0);
/// Linger timer for a partial batch (token 1 is the client tick).
const BATCH_TOKEN: TimerToken = TimerToken(2);

/// The proposer's phase.
#[derive(Clone, Debug)]
enum Phase<W> {
    /// Passive: following a (possibly unknown) leader.
    Follower,
    /// Campaigning: collecting promises for `ballot`.
    Preparing {
        promises: HashMap<NodeId, (Vec<AcceptedEntry<W>>, Slot)>,
    },
    /// Leading: the stable proposer for `ballot`.
    Leading,
}

/// An in-flight proposal at the leader.
#[derive(Clone, Debug)]
struct Proposal<S: Service> {
    value: Command<S::Command>,
    /// The service's encoding of `value`, reused for every destination
    /// and retry.
    enc: S::Encoded,
    acks: HashSet<NodeId>,
    sent_at: SimTime,
    /// Open per-operation propose span, a causal child of the request
    /// that triggered the proposal (inert when tracing is off).
    propose_span: SpanHandle,
    /// Open quorum-wait trace span, a causal child of `propose_span`.
    span: SpanHandle,
}

/// Pre-resolved instrument handles for the replica's hot paths, so the
/// per-message cost is an atomic add (or a `None` check when disabled)
/// instead of a registry lookup.
#[derive(Clone, Debug)]
struct ReplicaMetrics {
    obs: Obs,
    /// Indexed by [`Msg::kind_index`].
    sent: Vec<Counter>,
    recv: Vec<Counter>,
    elections: Counter,
    leadership: Counter,
    ballot_round: Gauge,
    phase1_micros: Histogram,
    phase2_micros: Histogram,
    batches_proposed: Counter,
    batched_ops: Counter,
    reads_local: Counter,
    reads_deferred: Counter,
}

impl ReplicaMetrics {
    fn new<S: Service>(obs: Obs) -> Self {
        let profile = S::PROFILE;
        let p = profile.prefix;
        // Instruments a service never uses stay unregistered (inert).
        let counter = |name: String, used: bool| {
            if used {
                obs.counter(&name)
            } else {
                Counter::default()
            }
        };
        let kinds = || CORE_KINDS.iter().chain(S::Ext::KINDS);
        let kind_used =
            |kind: &str| profile.local_reads || !matches!(kind, "read_request" | "read_response");
        ReplicaMetrics {
            sent: kinds()
                .map(|k| counter(format!("{p}.msg_sent.{k}"), kind_used(k)))
                .collect(),
            recv: kinds()
                .map(|k| counter(format!("{p}.msg_recv.{k}"), kind_used(k)))
                .collect(),
            elections: obs.counter(&format!("{p}.elections_started")),
            leadership: obs.counter(&format!("{p}.leadership_acquired")),
            ballot_round: obs.gauge(&format!("{p}.ballot_round")),
            phase1_micros: obs.histogram(&format!("{p}.phase1_micros")),
            phase2_micros: obs.histogram(&format!("{p}.phase2_micros")),
            batches_proposed: obs.counter(&format!("{p}.batches_proposed")),
            batched_ops: obs.counter(&format!("{p}.batched_ops")),
            reads_local: counter(format!("{p}.reads_local"), profile.local_reads),
            reads_deferred: counter(format!("{p}.reads_deferred"), profile.local_reads),
            obs,
        }
    }
}

/// Sim-time milliseconds as trace microseconds.
fn sim_micros(t: SimTime) -> u64 {
    t.as_millis().saturating_mul(1_000)
}

/// A client request parked at the leader: waiting for leadership, for a
/// reconfiguration to commit, for the pipeline window to free up, or for
/// its batch to fill.
#[derive(Clone, Debug)]
struct PendingOp<C> {
    client: NodeId,
    req_id: u64,
    op: ClientOp<C>,
    trace: TraceContext,
    /// Arrival time, for the batch linger policy.
    at: SimTime,
}

/// A follower-local read parked until the applied prefix reaches the
/// issuing client's session floor. Volatile: cleared on reboot (the
/// client retransmits and eventually falls back to the leader).
#[derive(Clone, Debug)]
struct WaitingRead<C> {
    client: NodeId,
    req_id: u64,
    cmd: C,
    floor: Slot,
}

/// A slot's highest accepted ballot in a prepare quorum and every copy
/// accepted at it.
type HighestAccepted<W> = (Ballot, Vec<Command<W>>);

/// Per-slot acceptor state.
#[derive(Clone, Debug)]
struct SlotState<W> {
    accepted: Option<(Ballot, Command<W>)>,
    chosen: Option<Command<W>>,
}

impl<W> Default for SlotState<W> {
    fn default() -> Self {
        SlotState {
            accepted: None,
            chosen: None,
        }
    }
}

/// What a [`Service`] hook may do to the replica hosting it: read the
/// clock and leadership, send service-only messages, and answer clients.
pub struct Io<'a, S: Service> {
    ctx: &'a mut Context<Msg<S>>,
    me: NodeId,
    view: &'a [NodeId],
    leading: bool,
    applied: Slot,
    dedup: &'a mut HashMap<NodeId, (u64, Option<S::Response>)>,
    sent: &'a [Counter],
    cfg: &'a ReplicaConfig,
}

impl<S: Service> Io<'_, S> {
    /// The replica's current (skewed) time.
    pub fn now(&self) -> SimTime {
        self.ctx.now
    }

    /// Whether the hosting replica currently leads.
    pub fn is_leader(&self) -> bool {
        self.leading
    }

    /// The hosting replica's configuration.
    pub fn config(&self) -> &ReplicaConfig {
        self.cfg
    }

    /// Send a service-only message, counting it by kind.
    pub fn send(&mut self, to: NodeId, msg: S::Ext) {
        self.sent[CORE_KINDS.len() + msg.kind_index()].inc();
        self.ctx.send(to, Msg::Ext(msg));
    }

    /// Broadcast a service-only message to the view (self excluded),
    /// counting each copy by kind.
    pub fn broadcast(&mut self, msg: S::Ext) {
        let fanout = self.view.iter().filter(|&&p| p != self.me).count();
        self.sent[CORE_KINDS.len() + msg.kind_index()].add(fanout as u64);
        self.ctx.broadcast(self.view.iter(), Msg::Ext(msg));
    }

    /// Answer `(client, req_id)`: record the response in the dedup cache
    /// unless a later request of the client is already there, and send
    /// it when this replica leads.
    pub fn finish(&mut self, client: NodeId, req_id: u64, resp: S::Response) {
        let newer = self
            .dedup
            .get(&client)
            .map(|(last, _)| *last < req_id)
            .unwrap_or(true);
        if newer {
            self.dedup.insert(client, (req_id, Some(resp.clone())));
        }
        if self.leading {
            let msg = Msg::Response {
                req_id,
                resp: Some(resp),
                at: self.applied,
            };
            self.sent[msg.kind_index()].inc();
            self.ctx.send(client, msg);
        }
    }
}

/// A Multi-Paxos replica hosting a [`Service`].
#[derive(Clone, Debug)]
pub struct Replica<S: Service> {
    me: NodeId,
    cfg: ReplicaConfig,
    /// Current membership view, sorted.
    view: Vec<NodeId>,
    /// Number of reconfigurations applied.
    view_id: u64,
    /// True once this replica applied its own removal.
    retired: bool,

    sm: S,
    /// Per-slot protocol state (pruned below `applied`).
    slots: BTreeMap<Slot, SlotState<S::Wire>>,
    /// First unchosen slot (everything below is chosen).
    commit_index: Slot,
    /// First unapplied slot (`applied ≤ commit_index`).
    applied: Slot,
    /// Compaction floor: slots below this were pruned into the snapshot
    /// implied by the live state machine.
    floor: Slot,
    /// Exactly-once cache: client → (last applied req_id, response).
    dedup: HashMap<NodeId, (u64, Option<S::Response>)>,
    /// Lifetime count of batch slot values applied (survives reboots;
    /// chaos sweeps assert the batched path actually ran).
    batches_applied: u64,

    /// Highest ballot promised (acceptor duty).
    promised: Ballot,
    /// Our own ballot when campaigning or leading.
    ballot: Ballot,
    phase: Phase<S::Wire>,
    /// Who we believe leads (for request forwarding).
    leader: Option<NodeId>,
    /// In-flight proposals (leader only).
    proposals: BTreeMap<Slot, Proposal<S>>,
    /// Next free slot (leader only).
    next_slot: Slot,
    /// Requests waiting for leadership, for a reconfig to commit, for
    /// the pipeline window, or for their batch to fill — each with the
    /// causal trace it arrived under.
    pending: VecDeque<PendingOp<S::Command>>,
    /// True while a Reconfig proposal is in flight (stalls later ones).
    reconfig_in_flight: bool,
    /// Follower-local reads waiting for the applied prefix to reach
    /// their session floor; drained in one combined pass per advance.
    waiting_reads: Vec<WaitingRead<S::Command>>,

    election_deadline: SimTime,
    last_heartbeat_sent: SimTime,
    rng: ChaCha8Rng,
    metrics: ReplicaMetrics,
    /// Open phase-1 trace span and its start time while campaigning.
    phase1_open: Option<(SpanHandle, SimTime)>,
}

impl<S: Service> Replica<S> {
    /// Create a replica with the given identity, initial view, service
    /// state and RNG seed (used only for election jitter).
    pub fn new(me: NodeId, view: Vec<NodeId>, sm: S, cfg: ReplicaConfig, seed: u64) -> Self {
        let mut view = view;
        view.sort_unstable();
        view.dedup();
        assert!(view.contains(&me) || view.is_empty(), "replica not in view");
        let mut sm = sm;
        sm.attach(view.len(), &cfg);
        let metrics = ReplicaMetrics::new::<S>(cfg.obs.clone());
        let salt = S::PROFILE.replica_salt;
        Replica {
            me,
            cfg,
            view,
            view_id: 0,
            retired: false,
            sm,
            slots: BTreeMap::new(),
            commit_index: 0,
            applied: 0,
            floor: 0,
            dedup: HashMap::new(),
            batches_applied: 0,
            promised: Ballot::BOTTOM,
            ballot: Ballot::BOTTOM,
            phase: Phase::Follower,
            leader: None,
            proposals: BTreeMap::new(),
            next_slot: 0,
            pending: VecDeque::new(),
            reconfig_in_flight: false,
            waiting_reads: Vec::new(),
            election_deadline: SimTime::ZERO,
            last_heartbeat_sent: SimTime::ZERO,
            rng: ChaCha8Rng::seed_from_u64(seed ^ (me.0 as u64).wrapping_mul(salt)),
            metrics,
            phase1_open: None,
        }
    }

    // ------------------------------------------------------ introspection

    /// This replica's node id.
    pub fn id(&self) -> NodeId {
        self.me
    }

    /// The current membership view.
    pub fn view(&self) -> &[NodeId] {
        &self.view
    }

    /// Number of reconfigurations applied so far.
    pub fn view_id(&self) -> u64 {
        self.view_id
    }

    /// Whether this replica currently leads.
    pub fn is_leader(&self) -> bool {
        matches!(self.phase, Phase::Leading)
    }

    /// The believed leader, if any.
    pub fn leader_hint(&self) -> Option<NodeId> {
        self.leader
    }

    /// First unchosen slot.
    pub fn commit_index(&self) -> Slot {
        self.commit_index
    }

    /// The hosted service state (applied prefix).
    pub fn state_machine(&self) -> &S {
        &self.sm
    }

    /// The compaction floor: slots below this are no longer in the log.
    pub fn compaction_floor(&self) -> Slot {
        self.floor
    }

    /// Lifetime count of batch slot values this replica has applied.
    pub fn batches_applied(&self) -> u64 {
        self.batches_applied
    }

    /// Package the applied state as a snapshot (boxed: it rides in
    /// messages, which stay small without it).
    fn snapshot(&self) -> Box<SnapshotData<S>> {
        Box::new(SnapshotData {
            applied: self.applied,
            view: self.view.clone(),
            view_id: self.view_id,
            sm: self.sm.clone(),
            dedup: self
                .dedup
                .iter()
                .map(|(&c, (r, resp))| (c, *r, resp.clone()))
                .collect(),
        })
    }

    /// Adopt a snapshot that is ahead of the local applied prefix.
    fn install_snapshot(&mut self, snap: SnapshotData<S>, now: SimTime) {
        if snap.applied <= self.applied {
            return;
        }
        self.sm = snap.sm;
        self.dedup = snap
            .dedup
            .into_iter()
            .map(|(c, r, resp)| (c, (r, resp)))
            .collect();
        if snap.view_id >= self.view_id {
            self.view = snap.view;
            self.view_id = snap.view_id;
        }
        self.applied = snap.applied;
        self.commit_index = self.commit_index.max(snap.applied);
        self.floor = self.floor.max(snap.applied);
        let cut: Vec<Slot> = self.slots.range(..snap.applied).map(|(&s, _)| s).collect();
        for s in cut {
            self.slots.remove(&s);
        }
        if !self.view.contains(&self.me) {
            self.retired = true;
            self.step_down(now);
        }
    }

    /// Snapshot and prune the applied prefix when due.
    fn maybe_compact(&mut self) {
        let Some(every) = self.cfg.compact_after else {
            return;
        };
        if self.applied.saturating_sub(self.floor) < every {
            return;
        }
        self.floor = self.applied;
        let cut: Vec<Slot> = self.slots.range(..self.floor).map(|(&s, _)| s).collect();
        for s in cut {
            self.slots.remove(&s);
        }
    }

    /// Whether this replica applied its own removal from the view.
    pub fn is_retired(&self) -> bool {
        self.retired
    }

    /// The chosen log prefix as applied commands (for consistency checks).
    pub fn applied_prefix(&self) -> Vec<(Slot, Command<S::Wire>)> {
        self.slots
            .iter()
            .filter(|(s, _)| **s < self.applied)
            .filter_map(|(s, st)| st.chosen.clone().map(|v| (*s, v)))
            .collect()
    }

    fn quorum(&self) -> usize {
        self.cfg.quorum.quorum_size(self.view.len())
    }

    /// `node`'s position in the view — the shard index of services that
    /// code by position. Those only ever address members; a node outside
    /// the view maps past the end.
    fn idx_of(&self, node: NodeId) -> usize {
        self.view
            .iter()
            .position(|&n| n == node)
            .unwrap_or(usize::MAX)
    }

    /// The service state alongside the [`Io`] its hooks act through.
    fn service_io<'a>(&'a mut self, ctx: &'a mut Context<Msg<S>>) -> (&'a mut S, Io<'a, S>) {
        let io = Io {
            ctx,
            me: self.me,
            view: &self.view,
            leading: matches!(self.phase, Phase::Leading),
            applied: self.applied,
            dedup: &mut self.dedup,
            sent: &self.metrics.sent,
            cfg: &self.cfg,
        };
        (&mut self.sm, io)
    }

    // ------------------------------------------------------ observability

    /// Send one message, counting it by kind.
    fn send_msg(&self, ctx: &mut Context<Msg<S>>, to: NodeId, msg: Msg<S>) {
        self.metrics.sent[msg.kind_index()].inc();
        ctx.send(to, msg);
    }

    /// Broadcast to the view (self excluded, matching
    /// [`Context::broadcast`]), counting each copy by kind.
    fn broadcast_msg(&self, ctx: &mut Context<Msg<S>>, msg: Msg<S>) {
        let fanout = self.view.iter().filter(|&&p| p != self.me).count();
        self.metrics.sent[msg.kind_index()].add(fanout as u64);
        ctx.broadcast(self.view.iter(), msg);
    }

    /// Send every peer (self excluded) its own message, built from its
    /// view position, under an explicit trace context — so per-operation
    /// protocol traffic (Accepts, Commits, retries) stays parented under
    /// the operation's propose span rather than whatever message
    /// happened to trigger the send.
    fn send_to_peers(
        &self,
        ctx: &mut Context<Msg<S>>,
        trace: TraceContext,
        mut msg_for: impl FnMut(usize) -> Msg<S>,
    ) {
        for (idx, &peer) in self.view.iter().enumerate() {
            if peer != self.me {
                let msg = msg_for(idx);
                self.metrics.sent[msg.kind_index()].inc();
                ctx.send_traced(peer, msg, trace);
            }
        }
    }

    /// Drive the shared trace clock to the simulation's current time.
    fn sync_obs_time(&self, now: SimTime) {
        self.metrics.obs.set_time_micros(sim_micros(now));
    }

    fn reset_election_deadline(&mut self, now: SimTime) {
        let (lo, hi) = self.cfg.election_timeout;
        let span = hi.as_millis().saturating_sub(lo.as_millis()).max(1);
        let jitter = self.rng.gen_range(0..span);
        self.election_deadline = now + lo + SimTime::from_millis(jitter);
    }

    fn step_down(&mut self, now: SimTime) {
        let names = S::PROFILE.spans;
        if let Some((span, _)) = self.phase1_open.take() {
            self.metrics.obs.trace.span_close(
                span,
                names.election,
                &[("won", FieldValue::Bool(false))],
            );
        }
        let open_spans: Vec<(SpanHandle, SpanHandle)> = self
            .proposals
            .values()
            .map(|p| (p.span, p.propose_span))
            .collect();
        for (span, propose_span) in open_spans {
            self.metrics.obs.trace.span_close(
                span,
                names.quorum_wait,
                &[("aborted", FieldValue::Bool(true))],
            );
            self.metrics.obs.trace.span_close(
                propose_span,
                names.propose,
                &[("aborted", FieldValue::Bool(true))],
            );
        }
        self.phase = Phase::Follower;
        self.proposals.clear();
        if S::PROFILE.step_down_drops_pending {
            self.pending.clear();
        }
        self.sm.on_step_down();
        self.reconfig_in_flight = false;
        self.reset_election_deadline(now);
    }

    /// Recover after a crash: drop volatile (in-memory) state, keep the
    /// durable (on-disk) state — `promised`, accepted/chosen slots, the
    /// applied service state and the exactly-once cache.
    ///
    /// Paxos quorum intersection is only sound if acceptor state survives
    /// restarts: a node that re-promises with an empty accepted set can
    /// complete a new-leader quorum that excludes every acker of an
    /// already-chosen value, letting the new leader choose a different
    /// command for the same slot. A replica whose disk is truly gone must
    /// rejoin as a *new* node via reconfiguration, not reuse its id.
    pub fn reboot(&mut self) {
        self.step_down(SimTime::ZERO);
        self.leader = None;
        // In-flight client requests died with the process; clients retry.
        self.pending.clear();
        self.waiting_reads.clear();
        // `on_start` re-arms the tick timer and election deadline at boot.
    }

    // ----------------------------------------------------------- election

    fn start_election(&mut self, ctx: &mut Context<Msg<S>>) {
        if self.retired || !self.view.contains(&self.me) {
            return;
        }
        let names = S::PROFILE.spans;
        let round = self.promised.round.max(self.ballot.round) + 1;
        self.ballot = Ballot {
            round,
            node: self.me,
        };
        self.promised = self.ballot;
        self.leader = None;
        let mut promises = HashMap::new();
        promises.insert(
            self.me,
            (self.accepted_tail(self.commit_index), self.commit_index),
        );
        self.phase = Phase::Preparing { promises };
        self.reset_election_deadline(ctx.now);
        self.metrics.elections.inc();
        self.metrics.ballot_round.set(round as f64);
        if let Some((span, _)) = self.phase1_open.take() {
            // A re-election supersedes the previous campaign.
            self.metrics.obs.trace.span_close(
                span,
                names.election,
                &[("won", FieldValue::Bool(false))],
            );
        }
        let span = self.metrics.obs.trace.span_open(
            names.election,
            &[
                ("node", FieldValue::U64(self.me.0 as u64)),
                ("round", FieldValue::U64(round)),
            ],
        );
        self.phase1_open = Some((span, ctx.now));
        let msg = Msg::Prepare {
            ballot: self.ballot,
            from_slot: self.commit_index,
        };
        self.broadcast_msg(ctx, msg);
        // A single-node view elects itself immediately.
        self.try_become_leader(ctx);
    }

    fn accepted_tail(&self, from: Slot) -> Vec<AcceptedEntry<S::Wire>> {
        self.slots
            .range(from..)
            .filter_map(|(&slot, st)| {
                if st.chosen.is_some() {
                    return None;
                }
                st.accepted.as_ref().map(|(ballot, value)| AcceptedEntry {
                    slot,
                    ballot: *ballot,
                    value: value.clone(),
                })
            })
            .collect()
    }

    /// The chosen entries from `from` on, as `dest` should receive them.
    fn chosen_tail(&self, from: Slot, dest: NodeId) -> Vec<ChosenEntry<S::Wire>> {
        let dest = self.idx_of(dest);
        self.slots
            .range(from..)
            .filter_map(|(&slot, st)| {
                st.chosen.as_ref().map(|value| ChosenEntry {
                    slot,
                    value: self.sm.reshape_for(value, slot, dest),
                })
            })
            .collect()
    }

    fn try_become_leader(&mut self, ctx: &mut Context<Msg<S>>) {
        let quorum = self.quorum();
        let Phase::Preparing { promises } = &self.phase else {
            return;
        };
        if promises.len() < quorum {
            return;
        }
        let Phase::Preparing { promises } = std::mem::replace(&mut self.phase, Phase::Leading)
        else {
            unreachable!("checked above");
        };
        // Per slot: the highest accepted ballot in the quorum and every
        // copy accepted at it (one per acceptor). The peer with the
        // highest commit index (first in iteration order) serves
        // catch-up.
        let mut merged: BTreeMap<Slot, HighestAccepted<S::Wire>> = BTreeMap::new();
        let mut max_commit = self.commit_index;
        let mut best_peer = self.me;
        for (&peer, (accepted, ci)) in &promises {
            if *ci > max_commit {
                max_commit = *ci;
                best_peer = peer;
            }
            for e in accepted {
                let (ballot, values) = merged
                    .entry(e.slot)
                    .or_insert_with(|| (Ballot::BOTTOM, Vec::new()));
                if e.ballot > *ballot {
                    *ballot = e.ballot;
                    *values = vec![e.value.clone()];
                } else if e.ballot == *ballot {
                    values.push(e.value.clone());
                }
            }
        }
        self.leader = Some(self.me);
        self.metrics.leadership.inc();
        let names = S::PROFILE.spans;
        if let Some(takeover) = names.takeover {
            self.metrics.obs.trace.event(
                takeover,
                &[
                    ("node", FieldValue::U64(self.me.0 as u64)),
                    ("round", FieldValue::U64(self.ballot.round)),
                    ("commit_index", FieldValue::U64(self.commit_index)),
                    ("merged", FieldValue::U64(merged.len() as u64)),
                    (
                        "merged_hi",
                        FieldValue::U64(merged.keys().next_back().copied().unwrap_or(0)),
                    ),
                    (
                        "promisers",
                        FieldValue::U64(
                            promises
                                .keys()
                                .fold(0u64, |m, n| m | (1 << (n.0 as u64 % 64))),
                        ),
                    ),
                ],
            );
        }
        if let Some((span, started)) = self.phase1_open.take() {
            self.metrics
                .phase1_micros
                .record(sim_micros(ctx.now.saturating_sub(started)));
            self.metrics.obs.trace.span_close(
                span,
                names.election,
                &[("won", FieldValue::Bool(true))],
            );
        }
        self.last_heartbeat_sent = SimTime::ZERO; // heartbeat asap
                                                  // Re-propose recovered values, fill gaps with no-ops up to the
                                                  // top. Fresh proposals must start past every slot already
                                                  // decided, not just past the merged *accepted* entries: a chosen
                                                  // slot adopted from a promise can sit beyond a gap (commit_index
                                                  // stalls at the gap), and a peer's commit index proves everything
                                                  // below it was chosen somewhere. Assigning a fresh command to
                                                  // such a slot would overwrite a decided value.
        let top = merged
            .keys()
            .next_back()
            .copied()
            .map(|s| s + 1)
            .unwrap_or(0);
        let chosen_top = self
            .slots
            .iter()
            .rev()
            .find(|(_, st)| st.chosen.is_some())
            .map(|(&s, _)| s + 1)
            .unwrap_or(0);
        self.next_slot = self.commit_index.max(top).max(chosen_top).max(max_commit);
        let mut to_propose: Vec<(Slot, Command<S::Command>)> = Vec::new();
        for slot in self.commit_index..self.next_slot {
            if self.slot_state(slot).chosen.is_some() {
                continue;
            }
            let value = merged
                .get(&slot)
                .map(|(_, values)| self.sm.recover(values))
                .unwrap_or(Command::Noop);
            to_propose.push((slot, value));
        }
        for (slot, value) in to_propose {
            // Re-proposals triggered by the view change are causally the
            // election's work: parent them under whatever message closed
            // the quorum (usually the deciding Promise).
            let trace = ctx.trace();
            self.send_accepts(slot, value, trace, ctx);
        }
        // Lagging behind a peer's commit index: fetch the chosen prefix.
        if max_commit > self.commit_index && best_peer != self.me {
            self.send_msg(
                ctx,
                best_peer,
                Msg::CatchupRequest {
                    from_slot: self.commit_index,
                },
            );
        }
        self.flush_pending(ctx);
        self.send_heartbeat(ctx);
    }

    // --------------------------------------------------------- proposing

    fn slot_state(&mut self, slot: Slot) -> &mut SlotState<S::Wire> {
        self.slots.entry(slot).or_default()
    }

    fn send_accepts(
        &mut self,
        slot: Slot,
        value: Command<S::Command>,
        trace: TraceContext,
        ctx: &mut Context<Msg<S>>,
    ) {
        let ballot = self.ballot;
        let enc = self.sm.encode(&value);
        // Self-accept immediately.
        let mine = self.sm.wire_for(&value, &enc, self.idx_of(self.me));
        self.slot_state(slot).accepted = Some((ballot, mine));
        let mut acks = HashSet::new();
        acks.insert(self.me);
        // Per-operation spans: the propose span is a causal child of the
        // request (or election) that produced the value; the quorum wait
        // nests inside it and the phase-2 sends ride its context.
        let names = S::PROFILE.spans;
        let propose_span = self.metrics.obs.trace.span_open_causal(
            names.propose,
            trace,
            &[
                ("slot", FieldValue::U64(slot)),
                ("node", FieldValue::U64(self.me.0 as u64)),
            ],
        );
        let span = self.metrics.obs.trace.span_open_causal(
            names.quorum_wait,
            propose_span.context(),
            &[("slot", FieldValue::U64(slot))],
        );
        self.send_to_peers(ctx, span.context(), |dest| Msg::Accept {
            ballot,
            slot,
            value: self.sm.wire_for(&value, &enc, dest),
        });
        self.proposals.insert(
            slot,
            Proposal {
                value,
                enc,
                acks,
                sent_at: ctx.now,
                propose_span,
                span,
            },
        );
        self.maybe_choose(slot, ctx);
    }

    /// Whether requests go through the batching/pipelining queue rather
    /// than the classic one-request-one-slot fast path. Off by default;
    /// the classic path keeps byte-identical message streams.
    fn batching_enabled(&self) -> bool {
        self.cfg.batch_max_ops > 1 || self.cfg.pipeline > 0
    }

    /// Whether a proposal for `(client, req_id)` is already in flight.
    fn in_flight_dup(&self, client: NodeId, req_id: u64) -> bool {
        self.proposals.values().any(|p| match &p.value {
            Command::App {
                client: c,
                req_id: r,
                ..
            }
            | Command::Reconfig {
                client: c,
                req_id: r,
                ..
            } => *c == client && *r == req_id,
            Command::Batch(entries) => entries
                .iter()
                .any(|e| e.client == client && e.req_id == req_id),
            Command::Noop => false,
        })
    }

    /// Dedup admission: answer a retransmission of the client's last
    /// applied request from the cache and drop stale or in-flight
    /// duplicates. Returns `false` when the request is already settled.
    fn admit(&mut self, client: NodeId, req_id: u64, ctx: &mut Context<Msg<S>>) -> bool {
        if let Some((last, resp)) = self.dedup.get(&client) {
            if *last == req_id {
                let resp = resp.clone();
                let at = self.applied;
                self.send_msg(ctx, client, Msg::Response { req_id, resp, at });
                return false;
            }
            if *last > req_id {
                return false; // stale duplicate
            }
        }
        // Duplicate of an in-flight proposal: ignore (it will answer).
        !self.in_flight_dup(client, req_id)
    }

    fn flush_pending(&mut self, ctx: &mut Context<Msg<S>>) {
        if !matches!(self.phase, Phase::Leading) {
            return;
        }
        if self.batching_enabled() {
            self.maybe_flush_batches(true, ctx);
            return;
        }
        while !self.reconfig_in_flight {
            let Some(p) = self.pending.pop_front() else {
                break;
            };
            self.propose_op(p.client, p.req_id, p.op, p.trace, ctx);
        }
    }

    /// Queue one request for batched proposing (dedup/stale/duplicate
    /// checks up front, mirroring [`Replica::propose_op`]).
    fn enqueue_op(
        &mut self,
        client: NodeId,
        req_id: u64,
        op: ClientOp<S::Command>,
        trace: TraceContext,
        ctx: &mut Context<Msg<S>>,
    ) {
        if !self.admit(client, req_id, ctx)
            || self
                .pending
                .iter()
                .any(|p| p.client == client && p.req_id == req_id)
        {
            return; // settled, or a retransmission of something queued
        }
        self.pending.push_back(PendingOp {
            client,
            req_id,
            op,
            trace,
            at: ctx.now,
        });
        self.maybe_flush_batches(false, ctx);
    }

    /// Drain the pending queue into slot proposals: full batches go out
    /// immediately, a partial batch lingers up to `batch_delay` (unless
    /// `force`), and the pipeline cap bounds in-flight proposals. Called
    /// on request arrival, on the linger timer, when a slot is chosen,
    /// and (forced) at leadership acquisition.
    fn maybe_flush_batches(&mut self, force: bool, ctx: &mut Context<Msg<S>>) {
        loop {
            if !matches!(self.phase, Phase::Leading)
                || self.reconfig_in_flight
                || self.pending.is_empty()
            {
                return;
            }
            if self.cfg.pipeline > 0 && self.proposals.len() >= self.cfg.pipeline {
                return; // window full; maybe_choose re-flushes on commit
            }
            // A reconfiguration is never batched: propose it alone.
            if matches!(
                self.pending.front().map(|p| &p.op),
                Some(ClientOp::Reconfig { .. })
            ) {
                let p = self.pending.pop_front().expect("checked non-empty");
                self.propose_op(p.client, p.req_id, p.op, p.trace, ctx);
                continue;
            }
            let (take, full) = S::batch_take(
                self.pending.iter().map(|p| (p.client, &p.op)),
                self.pending.len(),
                self.cfg.batch_max_ops,
            );
            let oldest = self.pending.front().map(|p| p.at).unwrap_or(ctx.now);
            let age = ctx.now.saturating_sub(oldest);
            if !force && !full && age < self.cfg.batch_delay {
                // Linger: re-check when the oldest entry's delay expires.
                let wait = self.cfg.batch_delay.saturating_sub(age);
                ctx.set_timer(wait.max(SimTime::from_millis(1)), BATCH_TOKEN);
                return;
            }
            let profile = S::PROFILE;
            let mut entries: Vec<BatchEntry<S::Command>> = Vec::with_capacity(take);
            let mut trace: Option<TraceContext> = None;
            for p in self.pending.drain(..take) {
                let ClientOp::App(cmd) = p.op else {
                    unreachable!("batch_take yields only App ops");
                };
                // The batch's protocol traffic is parented under the
                // first entry's trace; later joiners get a causal marker
                // in their own traces instead.
                if trace.is_none() {
                    trace = Some(p.trace);
                } else {
                    let field = match profile.batch_join {
                        JoinField::ReqId => ("req_id", FieldValue::U64(p.req_id)),
                        JoinField::Client => ("client", FieldValue::U64(p.client.0 as u64)),
                    };
                    self.metrics.obs.trace.event_causal(
                        profile.spans.batch_join,
                        p.trace,
                        &[field],
                    );
                }
                entries.push(BatchEntry {
                    client: p.client,
                    req_id: p.req_id,
                    cmd,
                });
            }
            if entries.len() > 1 || profile.count_single_batches {
                self.metrics.batches_proposed.inc();
                self.metrics.batched_ops.add(entries.len() as u64);
            }
            let value = if entries.len() == 1 {
                let e = entries.pop().expect("len checked");
                Command::App {
                    client: e.client,
                    req_id: e.req_id,
                    cmd: e.cmd,
                }
            } else {
                Command::Batch(entries)
            };
            let slot = self.allocate_slot();
            self.send_accepts(slot, value, trace.expect("take >= 1"), ctx);
        }
    }

    /// Never allocate a slot that is already decided (a commit adopted
    /// from a peer can land beyond the contiguous prefix).
    fn allocate_slot(&mut self) -> Slot {
        while self
            .slots
            .get(&self.next_slot)
            .is_some_and(|st| st.chosen.is_some())
        {
            self.next_slot += 1;
        }
        let slot = self.next_slot;
        self.next_slot += 1;
        slot
    }

    fn propose_op(
        &mut self,
        client: NodeId,
        req_id: u64,
        op: ClientOp<S::Command>,
        trace: TraceContext,
        ctx: &mut Context<Msg<S>>,
    ) {
        if !self.admit(client, req_id, ctx) {
            return;
        }
        let value = match op {
            ClientOp::App(cmd) => Command::App {
                client,
                req_id,
                cmd,
            },
            ClientOp::Reconfig { add, remove } => {
                if self.reconfig_in_flight {
                    self.pending.push_back(PendingOp {
                        client,
                        req_id,
                        op: ClientOp::Reconfig { add, remove },
                        trace,
                        at: ctx.now,
                    });
                    return;
                }
                self.reconfig_in_flight = true;
                Command::Reconfig {
                    client,
                    req_id,
                    add,
                    remove,
                }
            }
        };
        let slot = self.allocate_slot();
        self.send_accepts(slot, value, trace, ctx);
    }

    fn maybe_choose(&mut self, slot: Slot, ctx: &mut Context<Msg<S>>) {
        let quorum = self.quorum();
        let Some(p) = self.proposals.get(&slot) else {
            return;
        };
        if p.acks.len() < quorum {
            return;
        }
        let p = self.proposals.remove(&slot).expect("checked above");
        let names = S::PROFILE.spans;
        self.metrics
            .phase2_micros
            .record(sim_micros(ctx.now.saturating_sub(p.sent_at)));
        self.metrics.obs.trace.span_close(
            p.span,
            names.quorum_wait,
            &[
                ("slot", FieldValue::U64(slot)),
                ("acks", FieldValue::U64(p.acks.len() as u64)),
            ],
        );
        let propose_ctx = p.propose_span.context();
        self.metrics.obs.trace.event_causal(
            names.commit,
            propose_ctx,
            &[("slot", FieldValue::U64(slot))],
        );
        self.metrics.obs.trace.span_close(
            p.propose_span,
            names.propose,
            &[("slot", FieldValue::U64(slot))],
        );
        // Chosen values are write-once (mirroring `note_chosen`): if a
        // commit for this slot was adopted while our proposal was in
        // flight, Paxos guarantees the values agree — keep the stored one.
        if self.slot_state(slot).chosen.is_none() {
            let mine = self.sm.wire_for(&p.value, &p.enc, self.idx_of(self.me));
            self.slot_state(slot).chosen = Some(mine);
        }
        self.sm.on_chosen(slot, &p.value);
        // Commit to every peer with its own copy.
        self.send_to_peers(ctx, propose_ctx, |dest| Msg::Commit {
            entry: ChosenEntry {
                slot,
                value: self.sm.wire_for(&p.value, &p.enc, dest),
            },
        });
        self.advance(ctx);
        // A slot just left the pipeline window: queued requests may go.
        if self.batching_enabled() {
            self.maybe_flush_batches(false, ctx);
        }
    }

    // ----------------------------------------------------------- learning

    fn note_chosen(&mut self, entry: ChosenEntry<S::Wire>, ctx: &mut Context<Msg<S>>) {
        let st = self.slot_state(entry.slot);
        match st.chosen.as_mut() {
            None => st.chosen = Some(entry.value),
            Some(existing) => S::upgrade_chosen(existing, entry.value),
        }
        self.advance(ctx);
    }

    /// Apply every contiguously chosen slot, then compact when due.
    fn advance(&mut self, ctx: &mut Context<Msg<S>>) {
        loop {
            let Some(value) = self
                .slots
                .get(&self.commit_index)
                .and_then(|st| st.chosen.clone())
            else {
                break;
            };
            let slot = self.commit_index;
            self.commit_index += 1;
            self.apply(slot, value, ctx);
        }
        self.maybe_compact();
        self.serve_waiting_reads(ctx);
    }

    /// The flat-combining pass: one scan at the current applied point
    /// answers every parked read whose session floor has been reached.
    fn serve_waiting_reads(&mut self, ctx: &mut Context<Msg<S>>) {
        if self.waiting_reads.is_empty() {
            return;
        }
        let applied = self.applied;
        let (ready, still): (Vec<_>, Vec<_>) = self
            .waiting_reads
            .drain(..)
            .partition(|r| r.floor <= applied);
        self.waiting_reads = still;
        for r in ready {
            self.serve_read(r.client, r.req_id, &r.cmd, ctx);
        }
    }

    /// Answer a read-only command from the local applied state.
    fn serve_read(
        &mut self,
        client: NodeId,
        req_id: u64,
        cmd: &S::Command,
        ctx: &mut Context<Msg<S>>,
    ) {
        let resp = self
            .sm
            .peek(cmd)
            .expect("is_read_only commands must be peekable");
        let at = self.applied;
        self.metrics.reads_local.inc();
        self.send_msg(ctx, client, Msg::ReadResponse { req_id, resp, at });
    }

    fn apply(&mut self, slot: Slot, value: Command<S::Wire>, ctx: &mut Context<Msg<S>>) {
        debug_assert_eq!(slot, self.applied, "out-of-order apply");
        self.applied = slot + 1;
        // Applies triggered by a traced Commit/Accepted land inside the
        // operation's trace; catch-up applies carry their own context.
        self.metrics.obs.trace.event_causal(
            S::PROFILE.spans.apply,
            ctx.trace(),
            &[
                ("slot", FieldValue::U64(slot)),
                ("node", FieldValue::U64(self.me.0 as u64)),
            ],
        );
        match value {
            Command::Noop => {}
            Command::App {
                client,
                req_id,
                cmd,
            } => {
                self.apply_app(slot, client, req_id, cmd, ctx);
            }
            Command::Batch(entries) => {
                // Atomic within the slot: every entry applies (in order)
                // before the next slot is considered.
                self.batches_applied += 1;
                for e in entries {
                    self.apply_app(slot, e.client, e.req_id, e.cmd, ctx);
                }
            }
            Command::Reconfig {
                client,
                req_id,
                add,
                remove,
            } => {
                let mut joiners = Vec::new();
                for n in add {
                    if !self.view.contains(&n) {
                        self.view.push(n);
                        joiners.push(n);
                    }
                }
                self.view.retain(|n| !remove.contains(n));
                self.view.sort_unstable();
                self.view_id += 1;
                self.dedup.insert(client, (req_id, None));
                if !self.view.contains(&self.me) {
                    self.retired = true;
                    self.step_down(ctx.now);
                }
                if matches!(self.phase, Phase::Leading) {
                    self.reconfig_in_flight = false;
                    let at = self.applied;
                    self.send_msg(
                        ctx,
                        client,
                        Msg::Response {
                            req_id,
                            resp: None,
                            at,
                        },
                    );
                    // New members need the history to join the view: the
                    // snapshot for the compacted prefix plus the live tail.
                    let snapshot = (self.floor > 0).then(|| self.snapshot());
                    for peer in joiners {
                        if peer != self.me {
                            let entries = self.chosen_tail(self.floor, peer);
                            self.send_msg(
                                ctx,
                                peer,
                                Msg::CatchupReply {
                                    snapshot: snapshot.clone(),
                                    entries,
                                },
                            );
                        }
                    }
                    self.flush_pending(ctx);
                }
            }
        }
    }

    /// Apply one application command with exactly-once semantics and
    /// (at the leader) answer the client. Shared by singleton and
    /// batched slot values; `self.applied` already points past the
    /// containing slot, so it doubles as the response's `at`.
    fn apply_app(
        &mut self,
        slot: Slot,
        client: NodeId,
        req_id: u64,
        cmd: S::Wire,
        ctx: &mut Context<Msg<S>>,
    ) {
        if !S::PROFILE.apply_duplicates {
            if let Some((last, cached)) = self.dedup.get(&client) {
                if *last >= req_id {
                    let resp = cached.clone();
                    if matches!(self.phase, Phase::Leading) {
                        let at = self.applied;
                        self.send_msg(ctx, client, Msg::Response { req_id, resp, at });
                    }
                    return;
                }
            }
        }
        let (sm, mut io) = self.service_io(ctx);
        if let Some(resp) = sm.apply_entry(slot, client, req_id, cmd, &mut io) {
            io.finish(client, req_id, resp);
        }
    }

    // ---------------------------------------------------------- heartbeat

    fn send_heartbeat(&mut self, ctx: &mut Context<Msg<S>>) {
        self.last_heartbeat_sent = ctx.now;
        self.broadcast_msg(
            ctx,
            Msg::Heartbeat {
                ballot: self.ballot,
                commit_index: self.commit_index,
            },
        );
    }

    // ---------------------------------------------------- actor callbacks

    /// Boot: arm the tick timer and stagger the first election.
    pub fn on_start(&mut self, ctx: &mut Context<Msg<S>>) {
        self.reset_election_deadline(ctx.now);
        ctx.set_timer(self.cfg.tick, TICK_TOKEN);
    }

    /// Periodic bookkeeping.
    pub fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<Msg<S>>) {
        self.sync_obs_time(ctx.now);
        if token == BATCH_TOKEN {
            // A batch linger expired; flush whatever is due.
            self.maybe_flush_batches(false, ctx);
            return;
        }
        ctx.set_timer(self.cfg.tick, TICK_TOKEN);
        if self.retired {
            return;
        }
        match self.phase {
            Phase::Leading => {
                if ctx.now.saturating_sub(self.last_heartbeat_sent) >= self.cfg.heartbeat_every {
                    self.send_heartbeat(ctx);
                }
                // Backstop for the linger timer (lost across reboots).
                if self.batching_enabled() && !self.pending.is_empty() {
                    self.maybe_flush_batches(false, ctx);
                }
                // Re-send stale proposals. Retries are causally part of
                // the original quorum wait, not the timer that noticed
                // the staleness.
                let stale: Vec<Slot> = self
                    .proposals
                    .iter()
                    .filter(|(_, p)| ctx.now.saturating_sub(p.sent_at) >= self.cfg.proposal_retry)
                    .map(|(&s, _)| s)
                    .collect();
                let ballot = self.ballot;
                for slot in stale {
                    let p = self.proposals.get_mut(&slot).expect("stale slot present");
                    p.sent_at = ctx.now;
                    let p = &self.proposals[&slot];
                    self.send_to_peers(ctx, p.span.context(), |dest| Msg::Accept {
                        ballot,
                        slot,
                        value: self.sm.wire_for(&p.value, &p.enc, dest),
                    });
                }
                let (sm, mut io) = self.service_io(ctx);
                sm.on_leader_tick(&mut io);
            }
            _ => {
                if ctx.now >= self.election_deadline {
                    self.start_election(ctx);
                }
            }
        }
    }

    /// Message dispatch.
    pub fn on_message(&mut self, from: NodeId, msg: Msg<S>, ctx: &mut Context<Msg<S>>) {
        self.sync_obs_time(ctx.now);
        self.metrics.recv[msg.kind_index()].inc();
        if self.retired {
            // A retired node still answers catch-up (it has the history).
            if let Msg::CatchupRequest { from_slot } = msg {
                let snapshot = (from_slot < self.floor).then(|| self.snapshot());
                let entries = self.chosen_tail(from_slot.max(self.floor), from);
                self.send_msg(ctx, from, Msg::CatchupReply { snapshot, entries });
            }
            return;
        }
        match msg {
            Msg::Prepare { ballot, from_slot } => {
                if ballot >= self.promised {
                    self.promised = ballot;
                    if ballot.node != self.me {
                        if matches!(self.phase, Phase::Leading | Phase::Preparing { .. }) {
                            self.step_down(ctx.now);
                        }
                        self.leader = None;
                        self.reset_election_deadline(ctx.now);
                    }
                    let snapshot = (from_slot < self.floor).then(|| self.snapshot());
                    let reply = Msg::Promise {
                        ballot,
                        accepted: self.accepted_tail(from_slot),
                        chosen: self.chosen_tail(from_slot, from),
                        commit_index: self.commit_index,
                        snapshot,
                    };
                    self.send_msg(ctx, from, reply);
                } else {
                    self.send_msg(
                        ctx,
                        from,
                        Msg::Reject {
                            promised: self.promised,
                        },
                    );
                }
            }
            Msg::Promise {
                ballot,
                accepted,
                chosen,
                commit_index,
                snapshot,
            } => {
                // Adopt state regardless of phase: a snapshot first (it
                // may cover compacted history), then any chosen entries
                // (the sender shaped them for us).
                if let Some(snap) = snapshot {
                    self.install_snapshot(*snap, ctx.now);
                }
                for e in chosen {
                    self.note_chosen(e, ctx);
                }
                if ballot != self.ballot {
                    return;
                }
                if let Phase::Preparing { promises } = &mut self.phase {
                    promises.insert(from, (accepted, commit_index));
                    self.try_become_leader(ctx);
                }
            }
            Msg::Accept {
                ballot,
                slot,
                value,
            } => {
                if ballot >= self.promised {
                    self.promised = ballot;
                    if ballot.node != self.me {
                        if matches!(self.phase, Phase::Leading | Phase::Preparing { .. }) {
                            self.step_down(ctx.now);
                        }
                        self.leader = Some(ballot.node);
                        self.reset_election_deadline(ctx.now);
                    }
                    self.slot_state(slot).accepted = Some((ballot, value));
                    self.send_msg(ctx, from, Msg::Accepted { ballot, slot });
                } else {
                    self.send_msg(
                        ctx,
                        from,
                        Msg::Reject {
                            promised: self.promised,
                        },
                    );
                }
            }
            Msg::Accepted { ballot, slot } => {
                if ballot == self.ballot && matches!(self.phase, Phase::Leading) {
                    if let Some(p) = self.proposals.get_mut(&slot) {
                        p.acks.insert(from);
                        self.maybe_choose(slot, ctx);
                    }
                }
            }
            Msg::Reject { promised } => {
                if promised > self.promised {
                    self.promised = promised;
                }
                if promised > self.ballot
                    && matches!(self.phase, Phase::Leading | Phase::Preparing { .. })
                {
                    self.step_down(ctx.now);
                }
            }
            Msg::Commit { entry } => {
                self.note_chosen(entry, ctx);
            }
            Msg::Heartbeat {
                ballot,
                commit_index,
            } => {
                if ballot >= self.promised {
                    self.promised = ballot;
                    if ballot.node != self.me {
                        if matches!(self.phase, Phase::Leading | Phase::Preparing { .. }) {
                            self.step_down(ctx.now);
                        }
                        self.leader = Some(ballot.node);
                    }
                    self.reset_election_deadline(ctx.now);
                    if commit_index > self.commit_index {
                        self.send_msg(
                            ctx,
                            ballot.node,
                            Msg::CatchupRequest {
                                from_slot: self.commit_index,
                            },
                        );
                    }
                }
            }
            Msg::CatchupRequest { from_slot } => {
                let snapshot = (from_slot < self.floor).then(|| self.snapshot());
                let mut entries = self.chosen_tail(from_slot.max(self.floor), from);
                entries.truncate(self.cfg.catchup_batch);
                self.send_msg(ctx, from, Msg::CatchupReply { snapshot, entries });
            }
            Msg::CatchupReply { snapshot, entries } => {
                if let Some(snap) = snapshot {
                    self.install_snapshot(*snap, ctx.now);
                }
                for e in entries {
                    self.note_chosen(e, ctx);
                }
            }
            Msg::Request { client, req_id, op } => {
                self.handle_request(client, req_id, op, ctx);
            }
            Msg::ReadRequest {
                client,
                req_id,
                cmd,
                floor,
            } => {
                if S::PROFILE.local_reads && self.cfg.local_reads && S::is_read_only(&cmd) {
                    if self.applied >= floor {
                        self.serve_read(client, req_id, &cmd, ctx);
                    } else {
                        // Behind the client's session: park until the
                        // applied prefix catches up (served in the next
                        // combined pass), preserving monotonicity.
                        self.metrics.reads_deferred.inc();
                        self.waiting_reads.push(WaitingRead {
                            client,
                            req_id,
                            cmd,
                            floor,
                        });
                    }
                } else {
                    // Local reads disabled (or not actually read-only):
                    // serialize through the log like any other request.
                    self.handle_request(client, req_id, ClientOp::App(cmd), ctx);
                }
            }
            Msg::Ext(msg) => {
                let (sm, mut io) = self.service_io(ctx);
                sm.on_ext(from, msg, &mut io);
            }
            Msg::Response { .. } | Msg::ReadResponse { .. } => {
                // Replicas never receive responses; ignore.
            }
        }
    }

    /// Route one client operation: propose (or enqueue for batching)
    /// when leading, forward to the believed leader otherwise.
    fn handle_request(
        &mut self,
        client: NodeId,
        req_id: u64,
        op: ClientOp<S::Command>,
        ctx: &mut Context<Msg<S>>,
    ) {
        if matches!(op, ClientOp::Reconfig { .. }) && !S::PROFILE.reconfig {
            return; // fixed membership: the view is the shard layout
        }
        match self.phase {
            Phase::Leading => {
                let trace = ctx.trace();
                if self.batching_enabled() {
                    self.enqueue_op(client, req_id, op, trace, ctx);
                } else {
                    self.propose_op(client, req_id, op, trace, ctx);
                }
            }
            _ => {
                if let Some(leader) = self.leader {
                    if leader != self.me {
                        self.send_msg(ctx, leader, Msg::Request { client, req_id, op });
                    }
                }
                // No leader known: drop; the client retransmits.
            }
        }
    }
}

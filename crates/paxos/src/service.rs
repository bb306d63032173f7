//! The service seam of the replica core.
//!
//! [`crate::Replica`] is the one Multi-Paxos engine in the workspace:
//! election, step-down, heartbeats, batching and pipelining, the two
//! phases, catch-up, exactly-once dedup and per-kind message metrics all
//! live there. A [`Service`] supplies only what really differs between
//! the replicated services built on it:
//!
//! * the value each acceptor stores for a proposal — a plain replicated
//!   [`StateMachine`] stores the command itself, the RS-Paxos store sends
//!   acceptor `i` only shard `i` ([`Service::wire_for`],
//!   [`Service::reshape_for`]);
//! * how a new leader recovers a slot from the highest-ballot copies in
//!   its prepare quorum ([`Service::recover`]), and how a second copy of
//!   a chosen value merges into the first ([`Service::upgrade_chosen`]);
//! * applying chosen entries, plus any service-only messages and
//!   leader-side periodic work ([`Service::apply_entry`],
//!   [`Service::on_ext`], [`Service::on_leader_tick`]);
//! * a [`Profile`] of per-service constants: metric and span names,
//!   RNG salts, the client session timeout, and the few protocol
//!   behaviours in which the services deliberately differ.
//!
//! Every [`StateMachine`] is a [`Service`] with the lock service's
//! profile, so a plain state machine plugs into the core unchanged.

use std::fmt::Debug;

use simnet::{NodeId, SimTime};

use crate::ballot::Slot;
use crate::msg::{ClientOp, Command};
use crate::replica::{Io, ReplicaConfig};

/// A deterministic replicated state machine, replicated whole: every
/// acceptor stores the full command.
pub trait StateMachine: Clone + Debug {
    /// Commands the machine applies.
    type Command: Clone + Debug;
    /// Responses it produces.
    type Response: Clone + Debug;

    /// Apply one command, mutating the state and producing a response.
    /// Must be deterministic: identical command sequences yield identical
    /// states on every replica.
    fn apply(&mut self, cmd: &Self::Command) -> Self::Response;

    /// Whether `cmd` leaves the state unchanged when applied. Read-only
    /// commands may be served by followers from their applied prefix
    /// (session monotonicity, gated by the client's floor) instead of
    /// going through the log. Must agree with [`StateMachine::peek`]:
    /// `is_read_only(cmd)` implies `peek(cmd)` returns `Some`.
    fn is_read_only(_cmd: &Self::Command) -> bool {
        false
    }

    /// Evaluate a read-only command against the current state without
    /// mutating it. Returns `None` for commands that are not read-only.
    fn peek(&self, _cmd: &Self::Command) -> Option<Self::Response> {
        None
    }
}

/// Names of the spans and events a service's replicas trace.
#[derive(Clone, Copy, Debug)]
pub struct SpanNames {
    /// Phase-1 campaign span.
    pub election: &'static str,
    /// Event emitted when a campaign wins, if the service traces it.
    pub takeover: Option<&'static str>,
    /// Per-slot proposal span.
    pub propose: &'static str,
    /// Phase-2 quorum wait, nested in the proposal span.
    pub quorum_wait: &'static str,
    /// Event marking a slot chosen at the leader.
    pub commit: &'static str,
    /// Event marking a slot applied on a replica.
    pub apply: &'static str,
    /// Event marking a request that joined an earlier request's batch.
    pub batch_join: &'static str,
}

/// The field a batch-join event carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinField {
    /// The joining request's id (`req_id`).
    ReqId,
    /// The joining request's client (`client`).
    Client,
}

/// Per-service constants the core consults.
#[derive(Clone, Copy, Debug)]
pub struct Profile {
    /// Metric prefix: counters are `{prefix}.msg_sent.{kind}` and so on.
    pub prefix: &'static str,
    /// Trace span and event names.
    pub spans: SpanNames,
    /// Salt mixed into each replica's election-jitter RNG seed.
    pub replica_salt: u64,
    /// Salt mixed into each closed-loop client's RNG seed.
    pub client_salt: u64,
    /// Retransmission timeout of client sessions.
    pub session_timeout: SimTime,
    /// A replica that steps down drops its queue of unproposed requests
    /// (otherwise the queue waits for the next term it leads).
    pub step_down_drops_pending: bool,
    /// A chosen entry whose `(client, req_id)` was already applied is
    /// applied again (otherwise it is answered from the dedup cache).
    pub apply_duplicates: bool,
    /// The batch counters count single-request proposals too
    /// (otherwise only multi-request batches).
    pub count_single_batches: bool,
    /// Followers may serve read-only commands from their applied state.
    pub local_reads: bool,
    /// Membership may change through committed `Reconfig` entries.
    pub reconfig: bool,
    /// The field batch-join events carry.
    pub batch_join: JoinField,
}

/// The profile of a plain replicated [`StateMachine`] — the lock service.
pub const LOCK_PROFILE: Profile = Profile {
    prefix: "paxos",
    spans: SpanNames {
        election: "paxos.election",
        takeover: Some("paxos.takeover"),
        propose: "paxos.propose",
        quorum_wait: "paxos.quorum_wait",
        commit: "paxos.commit",
        apply: "paxos.apply",
        batch_join: "paxos.batch_join",
    },
    replica_salt: 0x9E37_79B9,
    client_salt: 0x51_7C_C1_B7,
    session_timeout: SimTime::from_millis(1_000),
    step_down_drops_pending: false,
    apply_duplicates: false,
    count_single_batches: true,
    local_reads: true,
    reconfig: true,
    batch_join: JoinField::ReqId,
};

/// Service-only protocol messages, carried in [`crate::Msg::Ext`].
pub trait ExtMsg: Clone + Debug {
    /// Kind names, indexed by [`ExtMsg::kind_index`]; they label the
    /// per-kind message counters after the core kinds.
    const KINDS: &'static [&'static str];

    /// Index of this message's kind into [`ExtMsg::KINDS`].
    fn kind_index(&self) -> usize;
}

/// No service-only messages.
#[derive(Clone, Debug)]
pub enum NoExt {}

impl ExtMsg for NoExt {
    const KINDS: &'static [&'static str] = &[];

    fn kind_index(&self) -> usize {
        match *self {}
    }
}

/// A service replicated by the Multi-Paxos core. The implementing type
/// is the replica's service state: its applied state machine plus
/// whatever leader-side state the service keeps.
pub trait Service: Clone + Debug {
    /// Commands clients submit.
    type Command: Clone + Debug;
    /// Responses clients receive.
    type Response: Clone + Debug;
    /// Commands as an acceptor stores them (the slot log's payload).
    type Wire: Clone + Debug;
    /// Leader-side encoding of one proposal, computed once and reused
    /// for every destination and retry.
    type Encoded: Clone + Debug;
    /// Service-only messages.
    type Ext: ExtMsg;

    /// Per-service constants.
    const PROFILE: Profile;

    /// Bind the service to a replica of a group of `n` with `cfg`.
    fn attach(&mut self, _n: usize, _cfg: &ReplicaConfig) {}

    /// Encode a proposal once, before it is sent anywhere.
    fn encode(&self, value: &Command<Self::Command>) -> Self::Encoded;

    /// The value the acceptor at view position `dest` stores for a
    /// proposal (also sent in the proposal's commits).
    fn wire_for(
        &self,
        value: &Command<Self::Command>,
        enc: &Self::Encoded,
        dest: usize,
    ) -> Command<Self::Wire>;

    /// The copy of a locally chosen value to send to the replica at view
    /// position `dest` (promises and catch-up).
    fn reshape_for(
        &self,
        chosen: &Command<Self::Wire>,
        slot: Slot,
        dest: usize,
    ) -> Command<Self::Wire>;

    /// Recover a slot's proposal from the copies accepted at the highest
    /// ballot in a prepare quorum (never empty). A value that cannot be
    /// recovered was provably never chosen; return [`Command::Noop`].
    fn recover(&self, values: &[Command<Self::Wire>]) -> Command<Self::Command>;

    /// Merge a second copy of an already chosen value into the stored one.
    fn upgrade_chosen(_existing: &mut Command<Self::Wire>, _incoming: Command<Self::Wire>) {}

    /// The leader chose `value` for `slot`.
    fn on_chosen(&mut self, _slot: Slot, _value: &Command<Self::Command>) {}

    /// How many queued requests, front first, the next batch takes (at
    /// most `max_ops`), and whether waiting could not grow the batch.
    /// `queued` counts all of `pending`; it never starts with a
    /// reconfiguration. The default takes the leading run of
    /// application commands.
    fn batch_take<'a>(
        pending: impl Iterator<Item = (NodeId, &'a ClientOp<Self::Command>)>,
        _queued: usize,
        max_ops: usize,
    ) -> (usize, bool)
    where
        Self::Command: 'a,
    {
        let max_ops = max_ops.max(1);
        let apps = pending
            .take_while(|(_, op)| matches!(op, ClientOp::App(_)))
            .count();
        (apps.min(max_ops), apps >= max_ops)
    }

    /// Apply one chosen application command. `Some` answers it now
    /// (recorded in the dedup cache and, at the leader, sent to the
    /// client); `None` leaves it unanswered or answers it later through
    /// [`Io::finish`].
    fn apply_entry(
        &mut self,
        slot: Slot,
        client: NodeId,
        req_id: u64,
        cmd: Self::Wire,
        io: &mut Io<'_, Self>,
    ) -> Option<Self::Response>;

    /// Whether followers may answer `cmd` locally (see
    /// [`StateMachine::is_read_only`]).
    fn is_read_only(_cmd: &Self::Command) -> bool {
        false
    }

    /// Evaluate a read-only command locally.
    fn peek(&self, _cmd: &Self::Command) -> Option<Self::Response> {
        None
    }

    /// Handle a service-only message.
    fn on_ext(&mut self, _from: NodeId, _msg: Self::Ext, _io: &mut Io<'_, Self>) {}

    /// Periodic work at the leader, after proposal retries.
    fn on_leader_tick(&mut self, _io: &mut Io<'_, Self>) {}

    /// The replica stepped down (or rebooted).
    fn on_step_down(&mut self) {}
}

impl<SM: StateMachine> Service for SM {
    type Command = SM::Command;
    type Response = SM::Response;
    type Wire = SM::Command;
    type Encoded = ();
    type Ext = NoExt;

    const PROFILE: Profile = LOCK_PROFILE;

    fn encode(&self, _value: &Command<SM::Command>) {}

    fn wire_for(
        &self,
        value: &Command<SM::Command>,
        _enc: &(),
        _dest: usize,
    ) -> Command<SM::Command> {
        value.clone()
    }

    fn reshape_for(
        &self,
        chosen: &Command<SM::Command>,
        _slot: Slot,
        _dest: usize,
    ) -> Command<SM::Command> {
        chosen.clone()
    }

    fn recover(&self, values: &[Command<SM::Command>]) -> Command<SM::Command> {
        values[0].clone()
    }

    fn apply_entry(
        &mut self,
        _slot: Slot,
        _client: NodeId,
        _req_id: u64,
        cmd: SM::Command,
        _io: &mut Io<'_, Self>,
    ) -> Option<SM::Response> {
        Some(StateMachine::apply(self, &cmd))
    }

    fn is_read_only(cmd: &SM::Command) -> bool {
        <SM as StateMachine>::is_read_only(cmd)
    }

    fn peek(&self, cmd: &SM::Command) -> Option<SM::Response> {
        StateMachine::peek(self, cmd)
    }
}

//! Wire messages, log entries and quorum rules, shared by every service.

use simnet::NodeId;

pub use quorum::QuorumRule;

use crate::ballot::{Ballot, Slot};
use crate::service::{ExtMsg, Service};

/// An operation a client may submit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientOp<C> {
    /// An application command for the state machine.
    App(C),
    /// A membership change: add `add`, then remove `remove`.
    Reconfig {
        /// Nodes to add to the view.
        add: Vec<NodeId>,
        /// Nodes to remove from the view.
        remove: Vec<NodeId>,
    },
}

impl<C> From<C> for ClientOp<C> {
    fn from(cmd: C) -> Self {
        ClientOp::App(cmd)
    }
}

/// One client operation inside a [`Command::Batch`]: the same
/// (client, req_id, cmd) triple as [`Command::App`], without the enum
/// overhead, so a batch is a flat run of entries applied atomically in
/// one slot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchEntry<C> {
    /// Originating client node.
    pub client: NodeId,
    /// Client-local request id (monotone per client).
    pub req_id: u64,
    /// The state-machine command.
    pub cmd: C,
}

/// A value agreed on for a log slot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Command<C> {
    /// An application command, tagged with its originator for routing the
    /// response and deduplicating retransmissions.
    App {
        /// Originating client node.
        client: NodeId,
        /// Client-local request id (monotone per client).
        req_id: u64,
        /// The state-machine command.
        cmd: C,
    },
    /// Membership change (applies from the next slot onward).
    Reconfig {
        /// Originating client node.
        client: NodeId,
        /// Client-local request id.
        req_id: u64,
        /// Nodes to add.
        add: Vec<NodeId>,
        /// Nodes to remove.
        remove: Vec<NodeId>,
    },
    /// Several application commands agreed on as one slot value. The
    /// entries are applied in order within the slot, atomically: a batch
    /// is either entirely chosen (and thus entirely applied on every
    /// replica) or not chosen at all. Invariants: never empty, never
    /// nested, and at most one entry per (client, req_id).
    Batch(Vec<BatchEntry<C>>),
    /// A no-op used to fill gaps during leader recovery.
    Noop,
}

impl<C> Command<C> {
    /// The same value with every application command mapped through
    /// `f`, which also gets the command's position in the slot (0 for a
    /// single command).
    pub fn map_cmds<D>(&self, mut f: impl FnMut(usize, &C) -> D) -> Command<D> {
        match self {
            Command::App {
                client,
                req_id,
                cmd,
            } => Command::App {
                client: *client,
                req_id: *req_id,
                cmd: f(0, cmd),
            },
            Command::Reconfig {
                client,
                req_id,
                add,
                remove,
            } => Command::Reconfig {
                client: *client,
                req_id: *req_id,
                add: add.clone(),
                remove: remove.clone(),
            },
            Command::Batch(entries) => Command::Batch(
                entries
                    .iter()
                    .enumerate()
                    .map(|(j, e)| BatchEntry {
                        client: e.client,
                        req_id: e.req_id,
                        cmd: f(j, &e.cmd),
                    })
                    .collect(),
            ),
            Command::Noop => Command::Noop,
        }
    }
}

/// A slot's accepted (not necessarily chosen) state, carried in promises.
#[derive(Clone, Debug)]
pub struct AcceptedEntry<C> {
    /// The slot this entry belongs to.
    pub slot: Slot,
    /// The ballot at which it was accepted.
    pub ballot: Ballot,
    /// The value.
    pub value: Command<C>,
}

/// A chosen slot value, carried in promises, commits and catch-up replies.
#[derive(Clone, Debug)]
pub struct ChosenEntry<C> {
    /// The slot.
    pub slot: Slot,
    /// The chosen value.
    pub value: Command<C>,
}

/// A state snapshot replacing the compacted log prefix: the applied state
/// machine plus everything a replica needs to resume from `applied`.
#[derive(Clone, Debug)]
pub struct SnapshotData<SM: Service> {
    /// Every slot below this is applied into `sm`.
    pub applied: Slot,
    /// The membership view as of `applied`.
    pub view: Vec<NodeId>,
    /// Number of reconfigurations applied.
    pub view_id: u64,
    /// The state machine at `applied`.
    pub sm: SM,
    /// The exactly-once cache at `applied`.
    pub dedup: Vec<(NodeId, u64, Option<SM::Response>)>,
}

/// The protocol messages. The service `SM` fixes the client command and
/// response types, the acceptor-side wire command, and the service-only
/// messages carried in [`Msg::Ext`].
#[derive(Clone, Debug)]
pub enum Msg<SM: Service> {
    /// Phase-1a: a candidate asks for promises from `from_slot` on.
    Prepare {
        /// The candidate's ballot.
        ballot: Ballot,
        /// Slots below this are already chosen at the candidate.
        from_slot: Slot,
    },
    /// Phase-1b: promise not to accept lower ballots; reports state.
    Promise {
        /// The ballot being promised.
        ballot: Ballot,
        /// Accepted-but-not-chosen entries at or above `from_slot`.
        accepted: Vec<AcceptedEntry<SM::Wire>>,
        /// Chosen entries at or above the candidate's `from_slot` (and
        /// above the acceptor's compaction floor).
        chosen: Vec<ChosenEntry<SM::Wire>>,
        /// The acceptor's first unchosen slot.
        commit_index: Slot,
        /// The acceptor's snapshot, included when the candidate asked for
        /// slots below the acceptor's compaction floor.
        snapshot: Option<Box<SnapshotData<SM>>>,
    },
    /// Phase-2a: accept request for one slot.
    Accept {
        /// The leader's ballot.
        ballot: Ballot,
        /// Target slot.
        slot: Slot,
        /// Proposed value, as the destination acceptor stores it.
        value: Command<SM::Wire>,
    },
    /// Phase-2b: the acceptor accepted.
    Accepted {
        /// Echoed ballot.
        ballot: Ballot,
        /// Echoed slot.
        slot: Slot,
    },
    /// Nack: the sender has promised a higher ballot.
    Reject {
        /// The higher promised ballot.
        promised: Ballot,
    },
    /// Leader → all: a value is chosen.
    Commit {
        /// The chosen entry.
        entry: ChosenEntry<SM::Wire>,
    },
    /// Leader liveness + commit-index gossip.
    Heartbeat {
        /// The leader's ballot.
        ballot: Ballot,
        /// The leader's first unchosen slot.
        commit_index: Slot,
    },
    /// A lagging replica asks for chosen entries from `from_slot`.
    CatchupRequest {
        /// First missing slot.
        from_slot: Slot,
    },
    /// Response to [`Msg::CatchupRequest`].
    CatchupReply {
        /// A snapshot, when the requested slots were compacted away.
        snapshot: Option<Box<SnapshotData<SM>>>,
        /// A batch of chosen entries (above the snapshot, if any).
        entries: Vec<ChosenEntry<SM::Wire>>,
    },
    /// Client → replica (possibly forwarded): submit an operation.
    Request {
        /// The originating client.
        client: NodeId,
        /// Client-local request id.
        req_id: u64,
        /// The operation.
        op: ClientOp<SM::Command>,
    },
    /// Replica → client: the operation was applied.
    Response {
        /// Echoed request id.
        req_id: u64,
        /// The state machine's response (`None` for reconfigurations).
        resp: Option<SM::Response>,
        /// The responder's applied index after this operation took
        /// effect. Clients carry the maximum seen as their session
        /// `floor`, which gates follower-served reads (session
        /// monotonicity).
        at: Slot,
    },
    /// Client → replica: a read-only command the replica may answer
    /// locally from its applied state, without going through the log.
    ReadRequest {
        /// The originating client.
        client: NodeId,
        /// Client-local request id.
        req_id: u64,
        /// The read-only command ([`Service::is_read_only`]).
        cmd: SM::Command,
        /// The client's session floor: the applied index its last
        /// acknowledged write reached. The replica must not answer
        /// until its own applied index is at least this.
        floor: Slot,
    },
    /// Replica → client: a locally served read.
    ReadResponse {
        /// Echoed request id.
        req_id: u64,
        /// The read's result, evaluated at the replica's applied state.
        resp: SM::Response,
        /// The replica's applied index at evaluation time.
        at: Slot,
    },
    /// A service-only message.
    Ext(SM::Ext),
}

/// Core message kind names, indexed by [`Msg::kind_index`]; a service's
/// [`ExtMsg::KINDS`] follow them. Used to label per-kind counters.
pub const CORE_KINDS: [&str; 13] = [
    "prepare",
    "promise",
    "accept",
    "accepted",
    "reject",
    "commit",
    "heartbeat",
    "catchup_request",
    "catchup_reply",
    "request",
    "response",
    "read_request",
    "read_response",
];

impl<SM: Service> Msg<SM> {
    /// Stable snake_case name of this message's kind.
    pub fn kind(&self) -> &'static str {
        match self {
            Msg::Ext(e) => SM::Ext::KINDS[e.kind_index()],
            core => CORE_KINDS[core.kind_index()],
        }
    }

    /// Index of this message's kind: into [`CORE_KINDS`], then past it
    /// into the service's [`ExtMsg::KINDS`].
    pub fn kind_index(&self) -> usize {
        match self {
            Msg::Prepare { .. } => 0,
            Msg::Promise { .. } => 1,
            Msg::Accept { .. } => 2,
            Msg::Accepted { .. } => 3,
            Msg::Reject { .. } => 4,
            Msg::Commit { .. } => 5,
            Msg::Heartbeat { .. } => 6,
            Msg::CatchupRequest { .. } => 7,
            Msg::CatchupReply { .. } => 8,
            Msg::Request { .. } => 9,
            Msg::Response { .. } => 10,
            Msg::ReadRequest { .. } => 11,
            Msg::ReadResponse { .. } => 12,
            Msg::Ext(e) => CORE_KINDS.len() + e.kind_index(),
        }
    }
}

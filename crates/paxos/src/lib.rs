//! # paxos — the Multi-Paxos replica core over `simnet`
//!
//! The one consensus engine of the workspace. Both of the paper's
//! evaluation systems replicate through it: the Chubby-like **lock
//! service** (§5.1.1, [`LockService`]) and the RS-Paxos coded store
//! (§5.1.2, the `storage` crate's `ShardStore`). [`Replica`] is generic
//! over a [`Service`] and owns everything the two share:
//!
//! * stable leadership with heartbeats and randomized election timeouts,
//! * classic two-phase (prepare/accept) consensus per log slot with
//!   recovery of previously accepted values on leader change,
//! * leader batching and accept pipelining,
//! * in-order application to the service, exactly-once per client,
//! * client request routing, forwarding and retransmission,
//! * log catch-up for lagging or restarted replicas, and
//! * per-kind message counters and causal trace spans.
//!
//! A [`Service`] supplies only what differs — the value each acceptor
//! stores, how a new leader recovers it, and applying it — plus a
//! [`Profile`] of per-service constants (see [`service`]). Every
//! [`StateMachine`] is a service replicated whole; the lock service
//! additionally uses **view change** — membership reconfiguration
//! through committed `Reconfig` log entries, the mechanism the bidding
//! framework uses to swap spot instances between bidding intervals (§4:
//! "Adding and removing a spot instance is supported by the view change
//! of Paxos") — plus follower-local reads and log compaction.
//!
//! The quorum rule is pluggable ([`msg::QuorumRule`]): simple majority for
//! the lock service, or the larger `⌈(n+m)/2⌉` quorums RS-Paxos requires.
//! The same generic [`ClientState`], [`OpenLoopClient`], [`PaxosNode`] and
//! [`Cluster`] drive either service.
//!
//! Everything runs inside a deterministic [`simnet::Simulation`], so whole
//! cluster lifetimes — including the crash schedules the spot market
//! inflicts — replay bit-identically from a seed.

pub mod ballot;
pub mod client;
pub mod harness;
pub mod lock;
pub mod msg;
pub mod node;
pub mod open_loop;
pub mod replica;
pub mod service;

pub use ballot::{Ballot, Slot};
pub use client::{ClientState, CompletedOp};
pub use harness::Cluster;
pub use lock::{LockCmd, LockResp, LockService};
pub use msg::{BatchEntry, ClientOp, Command, Msg, QuorumRule};
pub use node::PaxosNode;
pub use open_loop::{OpenLoopClient, OpenOp};
pub use replica::{Io, Replica, ReplicaConfig};
pub use service::{ExtMsg, JoinField, NoExt, Profile, Service, SpanNames, StateMachine};

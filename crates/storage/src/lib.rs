//! # storage — an RS-Paxos erasure-coded distributed storage service
//!
//! The paper's second evaluation system (§5.1.2): a replicated object
//! store that, following RS-Paxos (Mu et al., HPDC'14), sends **coded
//! shards instead of full copies** through consensus. With a θ(m, n) code
//! the accept/prepare quorums grow to `q = ⌈(n+m)/2⌉`
//! ([`paxos::QuorumRule::RsPaxos`]) so that any two quorums intersect in
//! at least `m` replicas and a chosen value is always reconstructible;
//! the price is reduced fault tolerance (θ(3,5) tolerates one failure,
//! not two) — exactly the trade-off the paper's availability analysis
//! must capture.
//!
//! The store is not a protocol stack of its own: [`ShardStore`] is a
//! [`paxos::Service`] plugged into the shared Multi-Paxos core, so a
//! storage deployment is a `paxos::Cluster<ShardStore>` configured with
//! [`paxos::ReplicaConfig::rs_paxos`]. The service supplies only what
//! RS-Paxos changes (see [`service`]):
//!
//! * the leader encodes each `Put` into `n` shards and sends acceptor `i`
//!   only shard `i`; `Commit`, promises and catch-up carry each replica
//!   its own shard (re-encoded from the leader's object cache, or a
//!   metadata-only record when the object is gone);
//! * on leader change, promises return the accepted *shards*; a value at
//!   the highest ballot is reconstructed when ≥ m shards are present
//!   (guaranteed for chosen values by quorum intersection) and
//!   re-proposed; otherwise the slot provably never chose and is filled
//!   with a no-op;
//! * `Get` is serialized through the log; the leader answers from its
//!   object cache, or gathers `m` shards from peers ([`ShardMsg`]) and
//!   reconstructs.
//!
//! Membership is fixed per deployment (shard index = position in the
//! view); replacing an instance is modelled as crash + restart of a slot
//! ([`paxos::Cluster::replace`]), which matches the replay harness's
//! accounting. View change, follower-local reads and log compaction stay
//! with the lock service.

pub mod msg;
pub mod service;
pub mod store;

pub use msg::{ShardCmd, ShardMsg, StoreCmd, StoreResp};
pub use store::ShardStore;

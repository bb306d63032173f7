//! RS-Paxos commands, the shard-level log payload, and the shard
//! gathering messages of the read path.

use bytes::Bytes;
use paxos::ExtMsg;

/// Client-visible store commands.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreCmd {
    /// Write `object` under `key`.
    Put {
        /// Object key.
        key: String,
        /// Object bytes (shipped whole to the leader, coded from there).
        object: Bytes,
    },
    /// Read the object under `key`.
    Get {
        /// Object key.
        key: String,
    },
    /// Remove `key`.
    Delete {
        /// Object key.
        key: String,
    },
}

/// Client-visible responses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreResp {
    /// Put applied; the version is the log slot of the write.
    Stored {
        /// Version (log slot) assigned to the write.
        version: u64,
    },
    /// Get result.
    Value {
        /// The reconstructed object (`None` if the key is absent).
        object: Option<Bytes>,
    },
    /// Delete applied.
    Deleted,
    /// A read failed because too few shards survive (service degraded
    /// below the erasure threshold).
    Unavailable,
}

/// A command as an acceptor stores it: coded for puts, verbatim for the
/// data-free commands.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardCmd {
    /// One shard of a `Put`. An empty `shard` is a metadata-only record:
    /// its sender no longer had the object to code the receiver's shard.
    Put {
        /// Object key.
        key: String,
        /// The receiving acceptor's shard index.
        shard_idx: u8,
        /// Shard bytes.
        shard: Bytes,
    },
    /// A read marker (no payload).
    Get {
        /// Object key.
        key: String,
    },
    /// A delete marker.
    Delete {
        /// Object key.
        key: String,
    },
}

/// The read path's shard gathering: a leader without the object cached
/// reconstructs it from `m` replicas' shards.
#[derive(Clone, Debug)]
pub enum ShardMsg {
    /// Leader → replica: send me your shard of `(key, version)`.
    Pull {
        /// Object key.
        key: String,
        /// Version (slot of the put).
        version: u64,
    },
    /// Replica → leader: here is my shard.
    Push {
        /// Object key.
        key: String,
        /// Version.
        version: u64,
        /// Shard index.
        shard_idx: u8,
        /// Shard bytes.
        shard: Bytes,
    },
}

impl ExtMsg for ShardMsg {
    const KINDS: &'static [&'static str] = &["shard_pull", "shard_push"];

    fn kind_index(&self) -> usize {
        match self {
            ShardMsg::Pull { .. } => 0,
            ShardMsg::Push { .. } => 1,
        }
    }
}

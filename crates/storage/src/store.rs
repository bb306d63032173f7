//! The per-replica shard store: the applied state of the coded log, plus
//! the leader-side state of the RS-Paxos service (see [`crate::service`]).

use std::collections::{BTreeMap, HashMap};

use bytes::Bytes;
use erasure::ReedSolomon;
use obs::Counter;
use simnet::{NodeId, SimTime};

/// What one replica knows about one key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardEntry {
    /// Version = log slot of the latest applied `Put`.
    pub version: u64,
    /// This replica's shard index for that version.
    pub shard_idx: u8,
    /// The shard bytes — `None` when this replica learned the write's
    /// metadata (via catch-up from a leader without the object) but never
    /// received its shard.
    pub shard: Option<Bytes>,
}

/// A read the leader is reconstructing from peers' shards.
#[derive(Clone, Debug)]
pub(crate) struct PendingRead {
    pub(crate) client: NodeId,
    pub(crate) req_id: u64,
    pub(crate) shards: BTreeMap<u8, Bytes>,
    pub(crate) started: SimTime,
    pub(crate) last_pull: SimTime,
}

/// One replica of the RS-Paxos store: the applied key → shard map, and
/// the leader's object cache and reads in reconstruction.
#[derive(Clone, Debug, Default)]
pub struct ShardStore {
    entries: BTreeMap<String, ShardEntry>,
    /// The θ(m, n) code, bound when the store joins a replica.
    pub(crate) codec: Option<ReedSolomon>,
    /// Leader-side full-object cache: key → (version, object).
    pub(crate) objects: HashMap<String, (u64, Bytes)>,
    /// Reads awaiting shard reconstruction: (key, version) → state.
    pub(crate) pending_reads: HashMap<(String, u64), PendingRead>,
    pub(crate) reads_reconstructed: Counter,
    pub(crate) reads_unavailable: Counter,
}

impl ShardStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Apply a `Put` shard (or metadata-only record). Later versions win;
    /// an equal version with bytes upgrades a metadata-only record.
    pub fn apply_put(&mut self, key: &str, version: u64, shard_idx: u8, shard: Option<Bytes>) {
        match self.entries.get_mut(key) {
            Some(e) if e.version > version => {}
            Some(e) if e.version == version => {
                if e.shard.is_none() {
                    e.shard = shard;
                    e.shard_idx = shard_idx;
                }
            }
            _ => {
                self.entries.insert(
                    key.to_string(),
                    ShardEntry {
                        version,
                        shard_idx,
                        shard,
                    },
                );
            }
        }
    }

    /// Apply a `Delete` (only if not superseded by a newer write).
    pub fn apply_delete(&mut self, key: &str, version: u64) {
        if let Some(e) = self.entries.get(key) {
            if e.version <= version {
                self.entries.remove(key);
            }
        }
    }

    /// This replica's record for `key`.
    pub fn get(&self, key: &str) -> Option<&ShardEntry> {
        self.entries.get(key)
    }

    /// Number of keys present.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total bytes of shard data held (the storage-saving metric RS-Paxos
    /// optimizes).
    pub fn shard_bytes(&self) -> usize {
        self.entries
            .values()
            .filter_map(|e| e.shard.as_ref().map(Bytes::len))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn versions_are_monotone() {
        let mut s = ShardStore::new();
        s.apply_put("k", 5, 1, Some(Bytes::from_static(b"v5")));
        s.apply_put("k", 3, 1, Some(Bytes::from_static(b"v3")));
        assert_eq!(s.get("k").unwrap().version, 5);
        s.apply_put("k", 9, 2, Some(Bytes::from_static(b"v9")));
        assert_eq!(s.get("k").unwrap().version, 9);
        assert_eq!(s.get("k").unwrap().shard_idx, 2);
    }

    #[test]
    fn metadata_upgraded_by_shard_arrival() {
        let mut s = ShardStore::new();
        s.apply_put("k", 4, 3, None);
        assert!(s.get("k").unwrap().shard.is_none());
        s.apply_put("k", 4, 3, Some(Bytes::from_static(b"late")));
        assert_eq!(s.get("k").unwrap().shard.as_deref(), Some(&b"late"[..]));
        // A second arrival does not clobber.
        s.apply_put("k", 4, 0, Some(Bytes::from_static(b"dup")));
        assert_eq!(s.get("k").unwrap().shard.as_deref(), Some(&b"late"[..]));
    }

    #[test]
    fn delete_respects_versions() {
        let mut s = ShardStore::new();
        s.apply_put("k", 10, 0, Some(Bytes::from_static(b"x")));
        // A stale delete (version 7 < 10) is ignored.
        s.apply_delete("k", 7);
        assert!(s.get("k").is_some());
        s.apply_delete("k", 11);
        assert!(s.get("k").is_none());
        // Deleting a missing key is a no-op.
        s.apply_delete("k", 12);
        assert!(s.is_empty());
    }

    #[test]
    fn shard_bytes_accounting() {
        let mut s = ShardStore::new();
        s.apply_put("a", 1, 0, Some(Bytes::from(vec![0u8; 100])));
        s.apply_put("b", 2, 0, None);
        s.apply_put("c", 3, 0, Some(Bytes::from(vec![0u8; 50])));
        assert_eq!(s.shard_bytes(), 150);
        assert_eq!(s.len(), 3);
    }
}

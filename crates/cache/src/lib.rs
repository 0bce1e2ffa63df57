//! TierBase cache tier (§3, §4.1).
//!
//! In-memory hash tables with LRU eviction, sized to a byte budget and
//! split across shards for concurrency. The pieces the synchronization
//! policies need live here too:
//!
//! * [`lru`] / [`cache`] — the sharded LRU store with DRAM/PMem value
//!   placement and dirty-entry pinning (a dirty entry must never be
//!   evicted before it reaches the storage tier).
//! * [`coalesce`] — per-key write queues with write coalescing: multiple
//!   in-flight writes to one key collapse into the final value (the
//!   group-commit analog used by write-through, §4.1.1).
//! * [`replica`] — master→replica replication of cache contents and
//!   dirty data (write-back reliability, §4.1.2).

pub mod cache;
pub mod coalesce;
pub mod lru;
pub mod replica;
pub mod snapshot;

pub use cache::{CacheConfig, CacheStats, Lookup, ShardedCache};
pub use coalesce::WriteCoalescer;
pub use lru::{CacheEntry, LruShard};
pub use replica::{ReplicatedCache, ReplicationMode};
pub use snapshot::{load_snapshot, write_snapshot};

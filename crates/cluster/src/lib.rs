//! TierBase's distributed layer (§3): hash-slot sharding, a coordinator
//! group with leader election, node failover with replica promotion,
//! smart clients with cached routing, and a proxy for thin clients.
//!
//! Everything runs in-process — nodes are [`KvEngine`] instances and
//! "RPCs" are method calls — but the control-plane protocol is real:
//! routing epochs, stale-routing errors, replica promotion, and slot
//! migration behave as they would across machines.

/// Unit tests that arm `tb_common::fault` injections serialize on this
/// gate: the registry holds one injection slot per process.
#[cfg(test)]
pub(crate) fn fault_test_gate() -> parking_lot::MutexGuard<'static, ()> {
    static GATE: parking_lot::Mutex<()> = parking_lot::Mutex::new(());
    GATE.lock()
}

pub mod client;
pub mod coordinator;
pub mod node;
pub mod replication;
pub mod routing;

pub use client::{ClusterClient, Proxy};
pub use coordinator::{Coordinator, CoordinatorGroup};
pub use node::{NodeId, NodeStore, ServingMode};
pub use replication::{ReplChannel, ReplRecord, REPL_FAULT_SITES};
pub use routing::RoutingTable;

//! Offline shim for `crossbeam`.
//!
//! Provides `crossbeam::channel` — multi-producer **multi-consumer**
//! bounded/unbounded channels — implemented with a mutex-protected
//! deque and two condvars. std's `mpsc` cannot back this (its receiver
//! is single-consumer), and callers may hand one receiver to many
//! worker threads.

pub mod channel;

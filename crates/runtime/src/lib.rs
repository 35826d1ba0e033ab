//! Online instrumentation runtime: run *real* Rust threads under a live
//! `dgrace` detector.
//!
//! The paper instruments binaries with Intel PIN; this crate is the
//! library-based analog (the second half of the DESIGN.md substitution):
//! tracked synchronization and memory types emit exactly the events a PIN
//! tool would. Each thread appends its accesses to a bounded per-thread
//! queue, flushed on overflow and at every sync operation into the same
//! replay driver that offline replay and `serve` sessions step: one lock
//! around it, as the PIN tool serializes its analysis callbacks.
//! Accesses are routed by address to one of N detector shards, and sync
//! events are stamped once and fed to all shards so cross-shard
//! happens-before stays exact. The analysis observes a *real*
//! interleaving of the running threads.
//!
//! ```
//! use dgrace_runtime::Runtime;
//! use dgrace_core::DynamicGranularity;
//! use std::thread;
//!
//! let rt = Runtime::new(DynamicGranularity::new());
//! let counter = rt.cell(0u64);          // tracked shared memory
//! let main = rt.main();
//!
//! let (child, ticket) = main.fork();
//! let c2 = counter.clone();
//! let jh = thread::spawn(move || {
//!     c2.set(&child, 1);                // unsynchronized write...
//! });
//! counter.set(&main, 2);                // ...racing with this one
//! jh.join().unwrap();
//! main.join(ticket);
//!
//! let report = rt.finish();
//! assert_eq!(report.races.len(), 1);    // the race is caught live
//! ```
//!
//! Physical memory safety: tracked cells store their payloads in atomics
//! (relaxed ordering), so a *modeled* data race is never an actual Rust
//! data race — the detector sees the race, the process stays sound.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
mod engine;
mod faults;
mod ingest;
mod mem;
mod pipeline;
mod replay;
mod ring;
mod runtime;
mod sync;
mod sync_ext;

pub use checkpoint::{CheckpointManifest, CHECKPOINT_FILE};
pub use engine::{EngineError, SupervisorPolicy};
pub use faults::{corrupt_byte, silence_injected_panics, PanicOnEvent, INJECTED_PANIC_MARKER};
pub use ingest::IngestSession;
pub use mem::{TrackedArray, TrackedCell};
pub use replay::{
    replay, replay_pipelined, replay_sharded, CheckpointInterval, CheckpointOptions, ReplayError,
    RunPlan, Transport,
};
pub use ring::{PushError, Spsc};
pub use runtime::{JoinTicket, Runtime, RuntimeOptions, ThreadHandle};
pub use sync::{TrackedMutex, TrackedMutexGuard};
pub use sync_ext::{
    TrackedBarrier, TrackedCondvar, TrackedReadGuard, TrackedRwLock, TrackedWriteGuard,
};

//! Runtime for the compiled trigger programs of `dbring-compiler`, plus the maintenance
//! baselines the paper's complexity argument compares against.
//!
//! ## The two-stage pipeline: compile → lower → execute
//!
//! A standing query goes through two representations before it runs:
//!
//! 1. **`TriggerProgram`** (from [`dbring_compiler::compile`](dbring_compiler::compile())) — the string-named NC0C
//!    IR: readable, serializable, validatable, and the right entry point for anything
//!    that *inspects* a program (code generation, `describe()`, tests over statement
//!    structure).
//! 2. **`ExecPlan`** (from [`dbring_compiler::lower`](dbring_compiler::lower())) — the slot-resolved execution
//!    plan: every variable is a fixed `u16` frame slot, every lookup is pre-classified
//!    as a fully-bound `Probe` or a partially-bound `Enumerate` with its slice-index
//!    pattern chosen once. This is the right entry point for anything that *runs* a
//!    program; [`Executor::new`](executor::Executor::new) lowers internally, so most
//!    callers never touch the plan directly.
//!
//! ## Pluggable view storage
//!
//! The executor is generic over the [`ViewStorage`] backend
//! holding its materialized views — the paper's guarantee only needs point probes,
//! ring accumulation with zero-pruning, and partial-key enumeration, so backends with
//! different physical trade-offs plug in under the unchanged execution layer:
//! [`HashViewStorage`] (the default: hash map + hash slice
//! indexes, O(1) probes) and [`OrderedViewStorage`]
//! (`BTreeMap` + sorted range scans, O(log n) probes but prefix enumerations need no
//! secondary index at all). Select at compile time by naming the type
//! (`Executor::<OrderedViewStorage>::with_backend`) or at runtime through
//! [`StorageBackend`] and [`boxed_engine`].
//!
//! ## One executor, one ingest contract
//!
//! [`Executor`] is the only executor. A host ([`EngineRegistry`], and through it the
//! `dbring::Ring` facade) drives it through the [`ViewEngine`] interface with one
//! contract: stage a normalized batch on every touched view, commit only if all of
//! them succeed. A single-tuple update is a batch of one. [`Executor::apply`] /
//! [`Executor::apply_all`] remain as the per-tuple trigger firing of the paper, which
//! the single-view facade and the experiments measure. The string-named reference
//! interpreter this executor was lowered from lives on as a test oracle
//! (`crates/runtime/tests/interp`), checked against the executor operation for
//! operation.
//!
//! Three maintenance strategies are provided behind the common
//! [`MaintenanceStrategy`] interface:
//!
//! * [`Executor`] — **recursive IVM** (the paper's contribution),
//!   running the lowered plan over flat reusable frames: per update it performs a
//!   constant number of arithmetic operations per maintained value, never touches the
//!   base relations, and in the steady state allocates nothing on the heap (keys are
//!   assembled in scratch buffers; writes go through
//!   [`ViewStorage::add_ref`], which only clones a key
//!   on first insertion). Arithmetic operations and map writes are counted so the
//!   experiments can verify the constant-work claim (Theorem 7.1) directly rather than
//!   only through wall-clock time.
//! * [`ClassicalIvm`] — classical first-order incremental view
//!   maintenance: only the query result is materialized; on every update the *first*
//!   delta query is evaluated against the stored database with the reference evaluator.
//! * [`NaiveReeval`] — non-incremental evaluation: the query is
//!   recomputed from scratch after every update.
//!
//! [`executor::Executor::initialize_from`] loads a compiled program's views from a
//! non-empty starting database by evaluating each view's defining query once with the
//! reference evaluator (the "initial values" step of Section 1.1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod engine;
pub mod executor;
pub mod fault;
pub mod registry;
pub mod snapshot;
pub mod storage;
pub mod strategy;

pub use baseline::{ClassicalIvm, NaiveReeval};
pub use engine::{boxed_engine, try_boxed_engine, ViewEngine};
pub use executor::{ExecStats, Executor, RuntimeError, StagedBatch};
pub use fault::{FaultOp, FaultPlan, FaultStorage};
pub use registry::{EngineRegistry, ParallelConfig};
pub use snapshot::{OutputDelta, SnapshotAccess, SnapshotStore, ViewSnapshot};
pub use storage::{
    HashViewStorage, MapStorage, OrderedViewStorage, StorageBackend, StorageFootprint, ViewStorage,
};
pub use strategy::MaintenanceStrategy;

//! The object-safe engine interface a hosted view runs behind, and the by-value
//! engine factory.
//!
//! A ring-of-views engine (the `dbring::Ring` facade) hosts *many* standing views
//! over one update stream. The views differ in compiled program and storage backend,
//! so the host cannot be generic over one concrete executor type the way a single
//! [`IncrementalView`] is. [`ViewEngine`] is the object-safe contract that makes a
//! compiled, runnable view a *value*: everything the host needs to drive maintenance
//! (staged batch application, initialization from a snapshot) and serve reads (point
//! lookups, tables, work counters, footprints, the program itself) — behind
//! `Box<dyn ViewEngine>`, cloneable and inspectable. Its one implementation is the
//! lowered [`Executor`], on any storage backend.
//!
//! [`boxed_engine`] / [`try_boxed_engine`] are the by-value factory: pick a
//! [`StorageBackend`] with an enum value instead of a turbofish and get back a boxed
//! executor.
//!
//! The difference from [`MaintenanceStrategy`](crate::strategy::MaintenanceStrategy):
//! a strategy is the *measurement* interface (it covers the database-retaining
//! baselines, erases errors to `String`, and exposes only results), while `ViewEngine`
//! is the *hosting* interface (typed [`RuntimeError`]s, staged batch application,
//! snapshot initialization, program access for code generation). The baselines are
//! deliberately not `ViewEngine`s — they retain the base database, which a ring
//! maintains once for all views.
//!
//! [`IncrementalView`]: ../../dbring/struct.IncrementalView.html

use std::any::Any;
use std::collections::BTreeMap;

use dbring_agca::eval::EvalError;
use dbring_algebra::Number;
use dbring_compiler::{Diagnostic, LowerError, TriggerProgram};
use dbring_relations::{Database, DeltaBatch, Value};

use crate::executor::{ExecStats, Executor, RuntimeError, StagedBatch};
use crate::storage::{
    HashViewStorage, OrderedViewStorage, StorageBackend, StorageFootprint, ViewStorage,
};

/// The object-safe interface of one compiled, runnable view: what an engine host (a
/// ring of views, an experiment harness) needs to drive maintenance and serve reads,
/// independent of the concrete executor and storage backend behind it.
///
/// Implemented by [`Executor`] over every storage backend; obtain boxed instances from
/// [`boxed_engine`] (backend by value). `Box<dyn ViewEngine>` is `Clone`, so hosts
/// composed of boxed engines stay cheaply cloneable for experiments that fork a
/// loaded state.
pub trait ViewEngine: std::fmt::Debug + Send {
    /// The engine's registry name (`"recursive-ivm"`, `"recursive-ivm@ordered"`): the
    /// executor family, suffixed with `@<backend>` off the default backend.
    fn engine_name(&self) -> &'static str;

    /// The compiled trigger program this engine runs (inspectable, NC0C-generatable).
    fn program(&self) -> &TriggerProgram;

    /// Runs the static plan auditor over this engine's program: re-lowers it and
    /// returns every [`Diagnostic`] the analysis pass pipeline finds (empty means
    /// clean). This is a cold-path introspection call — auditing re-runs lowering, so
    /// don't put it on a per-update path.
    fn audit(&self) -> Vec<Diagnostic> {
        dbring_compiler::audit_program(self.program())
    }

    /// Stages an already-normalized [`DeltaBatch`] — the one way a host applies
    /// updates: one dispatch per `(relation, sign)` group, weighted firing where the
    /// trigger admits it, while logging the pre-image of every write. Returns the
    /// [`StagedBatch`] token the host later passes to
    /// [`commit_staged`](ViewEngine::commit_staged) or
    /// [`abort_staged`](ViewEngine::abort_staged). On `Err` the engine has already
    /// rolled itself back bit-exactly. Tokens are engine-specific: return one only to
    /// the engine that produced it.
    fn stage_batch(&mut self, batch: &DeltaBatch<'_>) -> Result<StagedBatch, RuntimeError>;

    /// Makes a staged batch permanent by releasing its undo log. Cannot fail.
    fn commit_staged(&mut self, staged: StagedBatch);

    /// Rolls a staged batch back: tables and stats return bit-exactly to the
    /// pre-stage state.
    fn abort_staged(&mut self, staged: StagedBatch);

    /// Loads every materialized view from a non-empty starting database by evaluating
    /// its defining query (the initialization step of Section 1.1). The database is
    /// not retained.
    fn initialize_from(&mut self, db: &Database) -> Result<(), EvalError>;

    /// The output value for one group key (zero if absent).
    fn output_value(&self, key: &[Value]) -> Number;

    /// The full output table, sorted by group key.
    fn output_table(&self) -> BTreeMap<Vec<Value>, Number>;

    /// Work counters accumulated so far.
    fn stats(&self) -> ExecStats;

    /// Resets the work counters.
    fn reset_stats(&mut self);

    /// Total entries across the whole view hierarchy.
    fn total_entries(&self) -> usize;

    /// Entry/index-entry counts of the whole view hierarchy (the cross-backend
    /// memory proxy).
    fn storage_footprint(&self) -> StorageFootprint;

    /// Clones the engine behind the object interface (`Box<dyn ViewEngine>: Clone`
    /// is built on this).
    fn boxed_clone(&self) -> Box<dyn ViewEngine>;

    /// Upcast for callers that know the concrete engine type (e.g. a facade that
    /// always hosts lowered executors and wants the typed `&Executor<S>` back).
    fn as_any(&self) -> &dyn Any;

    /// Mutable upcast, see [`ViewEngine::as_any`].
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl Clone for Box<dyn ViewEngine> {
    fn clone(&self) -> Self {
        self.boxed_clone()
    }
}

/// The one engine family: the lowered executor on any storage backend (not just the
/// in-tree ones). The engine name matches the executor's
/// [`MaintenanceStrategy`](crate::strategy::MaintenanceStrategy) name.
impl<S: ViewStorage + Send + 'static> ViewEngine for Executor<S> {
    fn engine_name(&self) -> &'static str {
        executor_name::<S>()
    }

    fn program(&self) -> &TriggerProgram {
        self.program()
    }

    fn stage_batch(&mut self, batch: &DeltaBatch<'_>) -> Result<StagedBatch, RuntimeError> {
        self.stage_batch(batch)
    }

    fn commit_staged(&mut self, staged: StagedBatch) {
        self.commit_staged(staged)
    }

    fn abort_staged(&mut self, staged: StagedBatch) {
        self.abort_staged(staged)
    }

    fn initialize_from(&mut self, db: &Database) -> Result<(), EvalError> {
        self.initialize_from(db)
    }

    fn output_value(&self, key: &[Value]) -> Number {
        self.output_value(key)
    }

    fn output_table(&self) -> BTreeMap<Vec<Value>, Number> {
        self.output_table()
    }

    fn stats(&self) -> ExecStats {
        self.stats()
    }

    fn reset_stats(&mut self) {
        self.reset_stats()
    }

    fn total_entries(&self) -> usize {
        self.total_entries()
    }

    fn storage_footprint(&self) -> StorageFootprint {
        self.storage_footprint()
    }

    fn boxed_clone(&self) -> Box<dyn ViewEngine> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The registry name of the lowered executor on backend `S`: `"recursive-ivm"`,
/// suffixed with `@<backend>` off the default hash backend.
pub(crate) fn executor_name<S: ViewStorage>() -> &'static str {
    match S::BACKEND {
        StorageBackend::Hash => "recursive-ivm",
        StorageBackend::Ordered => "recursive-ivm@ordered",
    }
}

/// Builds a boxed lowered-executor engine on the given storage backend — backend
/// chosen **by value**, no turbofish. This is the constructor engine hosts use.
///
/// # Panics
/// Panics if the program does not lower (impossible for programs produced by
/// [`dbring_compiler::compile`](dbring_compiler::compile()), which validates); use [`try_boxed_engine`] for
/// hand-built programs that may not.
pub fn boxed_engine(program: TriggerProgram, backend: StorageBackend) -> Box<dyn ViewEngine> {
    try_boxed_engine(program, backend).expect("compiled trigger programs always lower")
}

/// Fallible [`boxed_engine`]: surfaces lowering problems as a [`LowerError`].
pub fn try_boxed_engine(
    program: TriggerProgram,
    backend: StorageBackend,
) -> Result<Box<dyn ViewEngine>, LowerError> {
    Ok(match backend {
        StorageBackend::Hash => Box::new(Executor::<HashViewStorage>::try_with_backend(program)?),
        StorageBackend::Ordered => {
            Box::new(Executor::<OrderedViewStorage>::try_with_backend(program)?)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbring_agca::parser::parse_query;
    use dbring_compiler::compile;
    use dbring_relations::Update;

    fn sum_program() -> TriggerProgram {
        let mut catalog = Database::new();
        catalog.declare("R", &["A"]).unwrap();
        compile(&catalog, &parse_query("q := Sum(R(x))").unwrap()).unwrap()
    }

    /// Stages and commits `updates` as one batch through the object interface.
    fn apply(engine: &mut dyn ViewEngine, updates: &[Update]) {
        let staged = engine
            .stage_batch(&DeltaBatch::from_updates(updates))
            .unwrap();
        engine.commit_staged(staged);
    }

    #[test]
    fn boxed_engines_run_and_report_on_every_backend() {
        for backend in StorageBackend::ALL {
            let mut engine = boxed_engine(sum_program(), backend);
            apply(engine.as_mut(), &[Update::insert("R", vec![Value::int(3)])]);
            let updates = [
                Update::insert("R", vec![Value::int(4)]),
                Update::insert("R", vec![Value::int(4)]),
                Update::delete("R", vec![Value::int(3)]),
            ];
            apply(engine.as_mut(), &updates);
            assert_eq!(engine.output_value(&[]), Number::Int(2), "{backend}");
            assert_eq!(engine.output_table().len(), 1);
            assert!(engine.stats().updates >= 3);
            assert!(engine.total_entries() > 0);
            assert!(engine.storage_footprint().entries > 0);
            assert!(engine.program().triggers.len() >= 2);
            engine.reset_stats();
            assert_eq!(engine.stats(), ExecStats::default());
        }
    }

    #[test]
    fn boxed_engines_clone_independently() {
        let mut engine = boxed_engine(sum_program(), StorageBackend::Hash);
        apply(engine.as_mut(), &[Update::insert("R", vec![Value::int(1)])]);
        let mut fork = engine.clone();
        apply(fork.as_mut(), &[Update::insert("R", vec![Value::int(2)])]);
        assert_eq!(engine.output_value(&[]), Number::Int(1));
        assert_eq!(fork.output_value(&[]), Number::Int(2));
    }

    #[test]
    fn engine_names_match_the_strategy_registry() {
        use crate::strategy::MaintenanceStrategy;
        let hash = Executor::<HashViewStorage>::new(sum_program());
        let ordered = Executor::<OrderedViewStorage>::with_backend(sum_program());
        assert_eq!(ViewEngine::engine_name(&hash), "recursive-ivm");
        assert_eq!(ViewEngine::engine_name(&ordered), "recursive-ivm@ordered");
        assert_eq!(ViewEngine::engine_name(&hash), hash.strategy_name());
        assert_eq!(ViewEngine::engine_name(&ordered), ordered.strategy_name());
        for backend in StorageBackend::ALL {
            let engine = boxed_engine(sum_program(), backend);
            let expected = match backend {
                StorageBackend::Hash => "recursive-ivm",
                StorageBackend::Ordered => "recursive-ivm@ordered",
            };
            assert_eq!(engine.engine_name(), expected);
        }
    }

    #[test]
    fn initialization_through_the_object_interface() {
        let mut db = Database::new();
        db.declare("R", &["A"]).unwrap();
        db.insert("R", vec![Value::int(1)]).unwrap();
        db.insert("R", vec![Value::int(2)]).unwrap();
        let mut engine = boxed_engine(sum_program(), StorageBackend::Ordered);
        engine.initialize_from(&db).unwrap();
        assert_eq!(engine.output_value(&[]), Number::Int(2));
    }

    #[test]
    fn concrete_executor_recoverable_through_as_any() {
        let mut engine = boxed_engine(sum_program(), StorageBackend::Hash);
        apply(engine.as_mut(), &[Update::insert("R", vec![Value::int(7)])]);
        let typed = engine
            .as_any()
            .downcast_ref::<Executor<HashViewStorage>>()
            .expect("boxed_engine hosts a lowered executor");
        assert_eq!(typed.output_value(&[]), Number::Int(1));
        assert!(engine
            .as_any_mut()
            .downcast_mut::<Executor<OrderedViewStorage>>()
            .is_none());
    }

    #[test]
    fn engines_audit_through_the_object_interface() {
        let engine = boxed_engine(sum_program(), StorageBackend::Hash);
        assert!(
            !dbring_compiler::analysis::has_errors(&engine.audit()),
            "compiled programs lint clean of errors: {:?}",
            engine.audit()
        );
    }

    #[test]
    fn try_boxed_engine_surfaces_lowering_errors() {
        let mut program = sum_program();
        program.triggers[0].statements[0].target = 99;
        assert!(try_boxed_engine(program, StorageBackend::Hash).is_err());
        assert!(try_boxed_engine(sum_program(), StorageBackend::Ordered).is_ok());
    }
}

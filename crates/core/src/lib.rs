//! # dbring — incremental query evaluation in a ring of databases
//!
//! A from-scratch Rust reproduction of Christoph Koch's *Incremental Query Evaluation in a
//! Ring of Databases* (PODS 2010): the ring of generalized multiset relations, the AGCA
//! aggregate query calculus, recursive delta processing, and a compiler that turns
//! aggregate queries into trigger programs which maintain the query result with a
//! **constant number of arithmetic operations per maintained value per single-tuple
//! update** — no joins, no aggregation operators, no access to the base relations.
//!
//! ## Quick start: a [`Ring`] of standing views
//!
//! The engine object is a [`Ring`]: one catalog, any number of standing views, one
//! ingest path. Updates are validated and normalized **once** and routed only to the
//! views that read the touched relations.
//!
//! ```
//! use dbring::{Catalog, RingBuilder, Value, ViewDef};
//!
//! // Declare the schema and build the engine.
//! let mut catalog = Catalog::new();
//! catalog.declare("Sales", &["cust", "price", "qty"]).unwrap();
//! let mut ring = RingBuilder::new(catalog).build();
//!
//! // Any number of standing views over the same stream (SQL subset or AGCA syntax).
//! let revenue = ring.create_view(
//!     "revenue",
//!     ViewDef::Sql("SELECT cust, SUM(price * qty) AS revenue FROM Sales GROUP BY cust"),
//! ).unwrap();
//! let orders = ring.create_view(
//!     "orders",
//!     ViewDef::Sql("SELECT cust, SUM(1) AS orders FROM Sales GROUP BY cust"),
//! ).unwrap();
//!
//! // One stream of single-tuple updates; every view stays fresh after each change.
//! ring.insert("Sales", vec![Value::int(1), Value::float(9.5), Value::int(3)]).unwrap();
//! ring.insert("Sales", vec![Value::int(1), Value::float(0.5), Value::int(1)]).unwrap();
//! ring.delete("Sales", vec![Value::int(1), Value::float(0.5), Value::int(1)]).unwrap();
//!
//! assert_eq!(ring.view(revenue).unwrap().value(&[Value::int(1)]).as_f64(), 28.5);
//! assert_eq!(ring.view(orders).unwrap().value(&[Value::int(1)]).as_f64(), 1.0);
//!
//! // Views can be created mid-stream (backfilled from the ring's base snapshot)…
//! let qty = ring.create_view(
//!     "qty",
//!     ViewDef::Sql("SELECT cust, SUM(qty) AS qty FROM Sales GROUP BY cust"),
//! ).unwrap();
//! assert_eq!(ring.view(qty).unwrap().value(&[Value::int(1)]).as_f64(), 3.0);
//! // …and dropped when no longer needed.
//! ring.drop_view(orders).unwrap();
//! ```
//!
//! Batched ingest goes through [`Ring::apply_batch`]: the batch is consolidated into a
//! [`DeltaBatch`] once for the whole ring — with `k` views that is one normalization
//! where `k` independent views would each redo it (see `EXPERIMENTS.md`, E11).
//!
//! ## Single-view use: [`IncrementalView`]
//!
//! When one query is all you need, [`IncrementalView`] wraps a one-view ring behind
//! the original single-view API (and is the cheapest configuration: it disables
//! base-snapshot tracking, so nothing but the view's own maps is stored):
//!
//! ```
//! use dbring::{Catalog, IncrementalView, Value};
//!
//! let mut catalog = Catalog::new();
//! catalog.declare("Sales", &["cust", "price", "qty"]).unwrap();
//! let mut revenue = IncrementalView::from_sql(
//!     &catalog,
//!     "SELECT cust, SUM(price * qty) AS revenue FROM Sales GROUP BY cust",
//! )
//! .unwrap();
//! revenue.insert("Sales", vec![Value::int(1), Value::float(9.5), Value::int(3)]).unwrap();
//! assert_eq!(revenue.value(&[Value::int(1)]).as_f64(), 28.5);
//! ```
//!
//! ## Crate map
//!
//! | layer | crate | paper section |
//! |---|---|---|
//! | abstract algebra (monoid/avalanche rings, polynomials, recursive memoization) | `dbring-algebra` | §1.1, §2 |
//! | generalized multiset relations, databases, updates | `dbring-relations` | §3 |
//! | the AGCA calculus: AST, parsers, evaluator, normalization, factorization | `dbring-agca` | §4–5 |
//! | the delta transform and delta hierarchies | `dbring-delta` | §6 |
//! | the NC0C trigger IR and the recursive IVM compiler | `dbring-compiler` | §7 |
//! | the trigger executor, engine hosting, op counting, baselines | `dbring-runtime` | §1.1, §7 |
//!
//! This facade re-exports the pieces most users need and adds the [`Ring`] engine and
//! the single-view [`IncrementalView`] wrapper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;
use std::marker::PhantomData;

pub use dbring_agca::ast::{CmpOp, Expr, Query};
pub use dbring_agca::eval::{eval, eval_all_groups, EvalError};
pub use dbring_agca::parser::{parse_expr, parse_query, ParseError};
pub use dbring_agca::safety::SafetyError;
pub use dbring_agca::sql::parse_sql;
pub use dbring_algebra::{Number, Polynomial, RecursiveMemo, Ring as AlgebraicRing, Semiring};
pub use dbring_compiler::{
    analyze, analyze_plan, analyze_program, audit_program, compile, generate_nc0c, has_errors,
    lower, CompileError, DiagCode, Diagnostic, ExecPlan, LowerError, PlanOp, PlanStatement,
    PlanTrigger, Severity, Slot, SlotExpr, TriggerProgram, UnboundKey,
};
pub use dbring_delta::{delta, Sign, UpdateEvent};
pub use dbring_relations::{
    BatchNormalizer, Database, DeltaBatch, DeltaGroup, Gmr, IVal, Interner, KeyPool, Tuple, Update,
    Value,
};
pub use dbring_runtime::fault;
pub use dbring_runtime::{
    boxed_engine, try_boxed_engine, ClassicalIvm, EngineRegistry, ExecStats, Executor, FaultOp,
    FaultPlan, FaultStorage, HashViewStorage, MaintenanceStrategy, NaiveReeval, OrderedViewStorage,
    OutputDelta, ParallelConfig, RuntimeError, SnapshotStore, StagedBatch, StorageBackend,
    StorageFootprint, ViewEngine, ViewSnapshot, ViewStorage,
};

mod ring;

pub use ring::{Ring, RingBuilder, RingHandle, ViewDef, ViewId, ViewMut, ViewRef};

/// A schema catalog: relation names and their column lists. (Alias of [`Database`]; a
/// catalog is simply a database whose contents are ignored — [`RingBuilder::new`] and
/// the [`IncrementalView`] constructors read only its declarations. To start an engine
/// from loaded *data*, say so explicitly with [`RingBuilder::from_database`].)
pub type Catalog = Database;

/// Any error that can occur while building or driving a [`Ring`] or
/// [`IncrementalView`].
///
/// The wrapping variants ([`Error::Parse`], [`Error::Compile`], [`Error::Eval`],
/// [`Error::Runtime`]) expose the wrapped failure through
/// [`std::error::Error::source`], so error reporters can walk the full chain.
#[derive(Clone, Debug)]
pub enum Error {
    /// The query text failed to parse.
    Parse(ParseError),
    /// The query could not be compiled to a trigger program.
    Compile(CompileError),
    /// Evaluating a query with the reference evaluator failed (initialization).
    Eval(EvalError),
    /// Applying an update to a compiled program failed.
    Runtime(RuntimeError),
    /// A view id or name addressed no live view of the ring (it may have been
    /// dropped; ids are never reused).
    UnknownView {
        /// The id (`view#3`) or name that failed to resolve.
        view: String,
    },
    /// A view with this name already lives on the ring (dropping a view frees its
    /// name).
    DuplicateView {
        /// The contested name.
        name: String,
    },
    /// A relation was not declared in the ring's catalog — raised eagerly by
    /// [`Ring::create_view`] for queries over undeclared relations (instead of a late
    /// compile error) and by the ring's ingest path for updates to undeclared
    /// relations.
    UnknownRelation {
        /// The undeclared relation.
        relation: String,
        /// The view whose definition referenced it (`None` when raised by ingest).
        view: Option<String>,
    },
    /// A view was created after updates were ingested on a ring built
    /// [`without_base_tracking`](RingBuilder::without_base_tracking): there is no
    /// current snapshot to backfill it from.
    BackfillUnavailable {
        /// The view that could not be created.
        view: String,
    },
    /// The view's engine panicked during ingest and was quarantined: its tables can
    /// no longer be trusted, so reads refuse to serve them and ingest skips the view.
    /// [`Ring::repair_view`] rebuilds it from the base snapshot.
    ViewPoisoned {
        /// The quarantined view's name.
        view: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse(e) => write!(f, "{e}"),
            Error::Compile(e) => write!(f, "{e}"),
            Error::Eval(e) => write!(f, "{e}"),
            Error::Runtime(e) => write!(f, "{e}"),
            Error::UnknownView { view } => write!(f, "no live view {view} on this ring"),
            Error::DuplicateView { name } => {
                write!(f, "a view named {name} already exists on this ring")
            }
            Error::UnknownRelation {
                relation,
                view: Some(view),
            } => write!(
                f,
                "view {view} reads relation {relation}, which the ring's catalog never declared"
            ),
            Error::UnknownRelation {
                relation,
                view: None,
            } => write!(
                f,
                "update targets relation {relation}, which the ring's catalog never declared"
            ),
            Error::BackfillUnavailable { view } => write!(
                f,
                "cannot create view {view}: base-snapshot tracking is disabled and updates \
                 were already ingested, so there is nothing to backfill it from"
            ),
            Error::ViewPoisoned { view } => write!(
                f,
                "view {view} is quarantined: its engine panicked during ingest, so its \
                 tables cannot be trusted until Ring::repair_view rebuilds it"
            ),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Parse(e) => Some(e),
            Error::Compile(e) => Some(e),
            Error::Eval(e) => Some(e),
            Error::Runtime(e) => Some(e),
            Error::UnknownView { .. }
            | Error::DuplicateView { .. }
            | Error::UnknownRelation { .. }
            | Error::BackfillUnavailable { .. }
            | Error::ViewPoisoned { .. } => None,
        }
    }
}

impl From<ParseError> for Error {
    fn from(e: ParseError) -> Self {
        Error::Parse(e)
    }
}
impl From<CompileError> for Error {
    fn from(e: CompileError) -> Self {
        Error::Compile(e)
    }
}
impl From<EvalError> for Error {
    fn from(e: EvalError) -> Self {
        Error::Eval(e)
    }
}
impl From<RuntimeError> for Error {
    fn from(e: RuntimeError) -> Self {
        Error::Runtime(e)
    }
}

/// A standing aggregate query maintained incrementally by a compiled trigger program —
/// the single-view facade, implemented as a thin wrapper over a one-view [`Ring`].
///
/// Construction parses (if needed), range-checks, compiles and validates the query; after
/// that, every [`IncrementalView::apply`] performs only the constant-work trigger
/// statements of the compiled program. The wrapper's ring runs
/// [`without_base_tracking`](RingBuilder::without_base_tracking), so — unlike a default
/// `Ring` — the base relations are **not** stored: the view's materialized maps are the
/// only state, exactly as before.
///
/// The view is generic over the [`ViewStorage`] backend its materialized maps live in,
/// defaulting to [`HashViewStorage`]; pick another backend by naming it —
/// `IncrementalView::<OrderedViewStorage>::with_backend(&catalog, query)` — or choose
/// one at runtime by value through [`Ring`]/[`RingBuilder::backend`] or
/// [`boxed_engine`].
///
/// Ingest semantics kept from the pre-`Ring` facade: updates to relations the query
/// does not read are ignored (a multi-view [`Ring`] instead validates every update
/// against its catalog).
#[derive(Clone, Debug)]
pub struct IncrementalView<S: ViewStorage = HashViewStorage> {
    ring: Ring,
    id: ViewId,
    _backend: PhantomData<S>,
}

impl IncrementalView<HashViewStorage> {
    /// Builds a view from an already-parsed AGCA [`Query`] on the default hash backend.
    pub fn new(catalog: &Catalog, query: Query) -> Result<Self, Error> {
        Self::with_backend(catalog, query)
    }

    /// Builds a view from a SQL aggregate query (the Section 5 SQL subset).
    pub fn from_sql(catalog: &Catalog, sql: &str) -> Result<Self, Error> {
        Self::from_sql_with_backend(catalog, sql)
    }

    /// Builds a view from the AGCA text syntax, e.g.
    /// `"q[c] := Sum(C(c, n) * C(c2, n))"`.
    pub fn from_agca(catalog: &Catalog, text: &str) -> Result<Self, Error> {
        Self::from_agca_with_backend(catalog, text)
    }
}

impl<S: ViewStorage + Send + 'static> IncrementalView<S> {
    /// Builds a view from an already-parsed AGCA [`Query`] on the storage backend named
    /// by the type parameter, e.g. `IncrementalView::<OrderedViewStorage>::with_backend`.
    /// Any `Send + 'static` [`ViewStorage`] implementation works here (the bounds the
    /// hosting ring's boxed-engine interface requires) — the facade hosts a genuinely
    /// typed `Executor<S>` behind its one-view ring, so `S` is not limited to the
    /// backends the [`StorageBackend`] enum can name.
    pub fn with_backend(catalog: &Catalog, query: Query) -> Result<Self, Error> {
        // Only the declarations travel (contents are ignored by contract), so clone
        // the schema, never the data a loaded database-as-catalog might carry.
        let mut ring = RingBuilder::new(catalog.schema_only())
            .without_base_tracking()
            .build();
        let name = query.name.clone();
        let id = ring.create_view_hosted(name, ViewDef::Query(query), |program| {
            Box::new(Executor::<S>::with_backend(program))
        })?;
        Ok(IncrementalView {
            ring,
            id,
            _backend: PhantomData,
        })
    }

    /// Builds a view from a SQL aggregate query on an explicitly named storage backend.
    pub fn from_sql_with_backend(catalog: &Catalog, sql: &str) -> Result<Self, Error> {
        let query = parse_sql(sql, catalog)?;
        Self::with_backend(catalog, query)
    }

    /// Builds a view from the AGCA text syntax on an explicitly named storage backend.
    pub fn from_agca_with_backend(catalog: &Catalog, text: &str) -> Result<Self, Error> {
        let query = parse_query(text)?;
        Self::with_backend(catalog, query)
    }

    /// Initializes all materialized views from an existing (non-empty) database. Call this
    /// once, before streaming updates, when the view does not start from scratch.
    pub fn with_initial_database(mut self, db: &Database) -> Result<Self, Error> {
        self.ring.reinitialize_view_from(self.id, db)?;
        Ok(self)
    }

    /// The query this view maintains.
    pub fn query(&self) -> &Query {
        self.ring.query_unchecked(self.id)
    }

    /// The compiled trigger program (inspect with [`TriggerProgram::describe`]).
    pub fn program(&self) -> &TriggerProgram {
        self.ring.engine_unchecked(self.id).program()
    }

    /// The program rendered in the paper's low-level NC0C language (a C-like listing of
    /// map declarations and trigger functions), for inspection or embedding elsewhere.
    pub fn nc0c_source(&self) -> String {
        generate_nc0c(self.program())
    }

    /// Applies one single-tuple update. Updates to relations the query does not read
    /// are ignored.
    ///
    /// Ingest delegates straight to the typed executor (the wrapper ring does no
    /// catalog validation, no routing and no snapshot maintenance), so both the hot
    /// path and the error contract are exactly the pre-`Ring` facade's.
    pub fn apply(&mut self, update: &Update) -> Result<(), Error> {
        self.executor_mut().apply(update).map_err(Error::Runtime)
    }

    /// Applies a sequence of updates, one trigger firing per single-tuple update.
    ///
    /// **Not atomic:** a failure leaves every update *before* the failing one applied;
    /// the wrapped [`RuntimeError::AtUpdate`] carries the failing update's index so
    /// callers know how many landed.
    pub fn apply_all<'a>(
        &mut self,
        updates: impl IntoIterator<Item = &'a Update>,
    ) -> Result<(), Error> {
        self.executor_mut()
            .apply_all(updates)
            .map_err(Error::Runtime)
    }

    /// Applies a batch of updates as one consolidated [`DeltaBatch`]: multiplicities of
    /// identical tuples are netted out (cancelling pairs never fire), and each
    /// `(relation, sign)` group drives its trigger with one dispatch and — where the
    /// delta is degree ≤ 1 in the updated relation — one weighted firing per distinct
    /// tuple, with the writes applied to each affected map in one sorted pass.
    ///
    /// The result is identical to [`IncrementalView::apply_all`] over the same updates
    /// (in any order); for batches of more than a handful of updates it is faster —
    /// see the `batch_crossover` bench and `EXPERIMENTS.md` for the crossover point.
    /// Unlike `apply_all`, a batch is **atomic**: on error the view's tables and
    /// counters are bit-identical to before the call (the executor stages the batch
    /// and commits only on success).
    pub fn apply_batch(&mut self, updates: &[Update]) -> Result<(), Error> {
        // Normalize on the wrapper ring's interned fixed-width scratch (reused across
        // batches), then feed the typed executor directly as before.
        let batch = self.ring.normalize_updates(updates);
        self.apply_delta_batch(&batch)
    }

    /// Applies an already-normalized delta batch (the allocation of
    /// [`DeltaBatch::from_updates`] can then be reused or amortized by the caller).
    pub fn apply_delta_batch(&mut self, batch: &DeltaBatch) -> Result<(), Error> {
        self.executor_mut()
            .apply_batch(batch)
            .map_err(Error::Runtime)
    }

    /// Convenience: applies the insertion `+R(values)`.
    pub fn insert(&mut self, relation: &str, values: Vec<Value>) -> Result<(), Error> {
        self.apply(&Update::insert(relation, values))
    }

    /// Convenience: applies the deletion `−R(values)`.
    pub fn delete(&mut self, relation: &str, values: Vec<Value>) -> Result<(), Error> {
        self.apply(&Update::delete(relation, values))
    }

    /// The aggregate value for one group key (the empty slice for queries without
    /// `GROUP BY`). Missing groups read as zero.
    pub fn value(&self, group_key: &[Value]) -> Number {
        self.ring.engine_unchecked(self.id).output_value(group_key)
    }

    /// The full result table, sorted by group key.
    pub fn table(&self) -> BTreeMap<Vec<Value>, Number> {
        self.ring.engine_unchecked(self.id).output_table()
    }

    /// Work counters (updates applied, ring additions/multiplications performed).
    pub fn stats(&self) -> ExecStats {
        self.ring.engine_unchecked(self.id).stats()
    }

    /// Total number of entries across the whole view hierarchy (memory footprint).
    pub fn total_entries(&self) -> usize {
        self.ring.engine_unchecked(self.id).total_entries()
    }

    /// The storage-level memory proxy of the whole view hierarchy: entry and
    /// secondary-index-entry counts (comparable across storage backends).
    pub fn storage_footprint(&self) -> StorageFootprint {
        self.ring.engine_unchecked(self.id).storage_footprint()
    }

    /// The static plan auditor's diagnostics for this view's compiled program, empty
    /// when the plan lints clean (see [`Ring::audit_view`]). Auditing re-lowers the
    /// program, so treat it as a cold introspection call.
    pub fn audit(&self) -> Vec<Diagnostic> {
        self.ring.engine_unchecked(self.id).audit()
    }

    /// Borrows the underlying executor (for experiments needing map-level access).
    pub fn executor(&self) -> &Executor<S> {
        self.ring
            .engine_unchecked(self.id)
            .as_any()
            .downcast_ref()
            .expect("the facade always hosts a lowered executor on its own backend")
    }

    /// Mutably borrows the underlying executor.
    pub fn executor_mut(&mut self) -> &mut Executor<S> {
        self.ring
            .engine_unchecked_mut(self.id)
            .as_any_mut()
            .downcast_mut()
            .expect("the facade always hosts a lowered executor on its own backend")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn customer_catalog() -> Catalog {
        let mut c = Catalog::new();
        c.declare("C", &["cid", "nation"]).unwrap();
        c
    }

    #[test]
    fn sql_and_agca_constructors_agree() {
        let catalog = customer_catalog();
        let mut via_sql = IncrementalView::from_sql(
            &catalog,
            "SELECT C1.cid, SUM(1) FROM C C1, C C2 WHERE C1.nation = C2.nation GROUP BY C1.cid",
        )
        .unwrap();
        let mut via_agca =
            IncrementalView::from_agca(&catalog, "q[c] := Sum(C(c, n) * C(c2, n))").unwrap();
        for i in 0..20 {
            let u = Update::insert(
                "C",
                vec![Value::int(i), Value::str(["FR", "DE"][(i % 2) as usize])],
            );
            via_sql.apply(&u).unwrap();
            via_agca.apply(&u).unwrap();
        }
        assert_eq!(via_sql.table(), via_agca.table());
        assert_eq!(via_sql.value(&[Value::int(0)]), Number::Int(10));
    }

    #[test]
    fn initialization_from_existing_database() {
        let catalog = customer_catalog();
        let mut db = catalog.clone();
        db.insert("C", vec![Value::int(1), Value::str("FR")])
            .unwrap();
        db.insert("C", vec![Value::int(2), Value::str("FR")])
            .unwrap();
        let view = IncrementalView::from_agca(&catalog, "q[c] := Sum(C(c, n) * C(c2, n))")
            .unwrap()
            .with_initial_database(&db)
            .unwrap();
        assert_eq!(view.value(&[Value::int(1)]), Number::Int(2));
        assert_eq!(view.table().len(), 2);
        assert!(view.total_entries() >= 2);
    }

    #[test]
    fn catalog_contents_are_ignored_by_the_single_view_facade() {
        // A loaded database used as a catalog contributes only its schema; the view
        // starts empty unless `with_initial_database` says otherwise.
        let mut db = customer_catalog();
        db.insert("C", vec![Value::int(1), Value::str("FR")])
            .unwrap();
        let view = IncrementalView::from_agca(&db, "q[c] := Sum(C(c, n))").unwrap();
        assert!(view.table().is_empty());
    }

    #[test]
    fn errors_are_propagated_and_displayed() {
        let catalog = customer_catalog();
        assert!(matches!(
            IncrementalView::from_sql(&catalog, "SELECT nope FROM C"),
            Err(Error::Parse(_))
        ));
        // An undeclared relation is now a dedicated error (the Catalog = Database
        // alias footgun), not a late compile error.
        assert!(matches!(
            IncrementalView::from_agca(&catalog, "q := Sum(Z(x))"),
            Err(Error::UnknownRelation { .. })
        ));
        let err = IncrementalView::from_agca(&catalog, "q := Sum(Z(x))").unwrap_err();
        assert!(err.to_string().contains("Z"));
        // Genuine compile failures still surface as compile errors.
        assert!(matches!(
            IncrementalView::from_agca(&catalog, "q[x] := Sum((x = 1))"),
            Err(Error::Compile(_))
        ));
        let mut view = IncrementalView::from_agca(&catalog, "q[c] := Sum(C(c, n))").unwrap();
        assert!(matches!(
            view.insert("C", vec![Value::int(1)]),
            Err(Error::Runtime(_))
        ));
    }

    #[test]
    fn error_sources_expose_the_wrapped_failure_chain() {
        use std::error::Error as StdError;
        let catalog = customer_catalog();
        let parse = IncrementalView::from_sql(&catalog, "SELECT nope FROM C").unwrap_err();
        let source = parse.source().expect("parse errors carry a source");
        assert_eq!(source.to_string(), format!("{parse}"));
        let compile = IncrementalView::from_agca(&catalog, "q[x] := Sum((x = 1))").unwrap_err();
        assert!(compile.source().is_some());
        let mut view = IncrementalView::from_agca(&catalog, "q[c] := Sum(C(c, n))").unwrap();
        let runtime = view.insert("C", vec![Value::int(1)]).unwrap_err();
        let source = runtime.source().expect("runtime errors carry a source");
        assert!(source.to_string().contains("trigger expects"));
        // Structural ring errors have no inner cause.
        let mut ring = RingBuilder::new(customer_catalog()).build();
        let dup = ring
            .create_view("v", ViewDef::Agca("q := Sum(C(c, n))"))
            .unwrap();
        let err = ring
            .create_view("v", ViewDef::Agca("q := Sum(C(c, n))"))
            .unwrap_err();
        assert!(err.source().is_none());
        ring.drop_view(dup).unwrap();
    }

    #[test]
    fn irrelevant_updates_are_ignored_by_the_single_view_facade() {
        // Legacy single-view semantics: relations the query does not read — declared
        // or not — are skipped, unlike the strict multi-view `Ring` ingest path.
        let mut catalog = customer_catalog();
        catalog.declare("Unread", &["x"]).unwrap();
        let mut view = IncrementalView::from_agca(&catalog, "q[c] := Sum(C(c, n))").unwrap();
        view.insert("Other", vec![Value::int(1)]).unwrap();
        view.insert("Unread", vec![Value::int(1)]).unwrap();
        assert!(view.table().is_empty());
        assert_eq!(view.stats().updates, 0);
    }

    #[test]
    fn ordered_backend_views_agree_with_the_default() {
        let catalog = customer_catalog();
        let text = "q[c] := Sum(C(c, n) * C(c2, n))";
        let mut hash = IncrementalView::from_agca(&catalog, text).unwrap();
        let mut ordered =
            IncrementalView::<OrderedViewStorage>::from_agca_with_backend(&catalog, text).unwrap();
        for i in 0..24 {
            let u = Update::insert(
                "C",
                vec![
                    Value::int(i),
                    Value::str(["FR", "DE", "IT"][(i % 3) as usize]),
                ],
            );
            hash.apply(&u).unwrap();
            ordered.apply(&u).unwrap();
        }
        assert_eq!(hash.table(), ordered.table());
        assert_eq!(hash.stats(), ordered.stats());
        assert_eq!(
            hash.storage_footprint().entries,
            ordered.storage_footprint().entries
        );
        // The ordered backend serves prefix patterns from its primary sort order, so it
        // never carries more index entries than the hash backend.
        assert!(
            ordered.storage_footprint().index_entries <= hash.storage_footprint().index_entries
        );
        // Runtime-selected spelling of the same pair.
        let program = compile(&catalog, &parse_query(text).unwrap()).unwrap();
        let engine = boxed_engine(program, StorageBackend::Ordered);
        assert_eq!(engine.engine_name(), "recursive-ivm@ordered");
    }

    #[test]
    fn apply_batch_matches_apply_all_and_apply_all_reports_the_failing_index() {
        let catalog = customer_catalog();
        let text = "q[c] := Sum(C(c, n) * C(c2, n))";
        let updates: Vec<Update> = (0..18)
            .map(|i| {
                Update::insert(
                    "C",
                    vec![
                        Value::int(i % 6),
                        Value::str(["FR", "DE", "IT"][(i % 3) as usize]),
                    ],
                )
            })
            .collect();
        let mut per_tuple = IncrementalView::from_agca(&catalog, text).unwrap();
        per_tuple.apply_all(&updates).unwrap();
        let mut batched = IncrementalView::from_agca(&catalog, text).unwrap();
        batched.apply_batch(&updates).unwrap();
        assert_eq!(per_tuple.table(), batched.table());
        // The pre-normalized entry point behaves identically.
        let mut prebuilt = IncrementalView::from_agca(&catalog, text).unwrap();
        prebuilt
            .apply_delta_batch(&DeltaBatch::from_updates(&updates))
            .unwrap();
        assert_eq!(per_tuple.table(), prebuilt.table());
        // apply_all is not atomic; the error pinpoints the failing update.
        let mut view = IncrementalView::from_agca(&catalog, text).unwrap();
        let bad = vec![
            Update::insert("C", vec![Value::int(1), Value::str("FR")]),
            Update::insert("C", vec![Value::int(2)]),
        ];
        let err = view.apply_all(&bad).unwrap_err();
        assert!(matches!(
            err,
            Error::Runtime(RuntimeError::AtUpdate { index: 1, .. })
        ));
        assert_eq!(view.stats().updates, 1);
    }

    #[test]
    fn accessors_expose_query_program_and_stats() {
        let catalog = customer_catalog();
        let mut view =
            IncrementalView::from_agca(&catalog, "q[c] := Sum(C(c, n) * C(c2, n))").unwrap();
        assert_eq!(view.query().group_by, vec!["c"]);
        assert!(view.program().describe().contains("on +C"));
        assert!(view.nc0c_source().contains("void on_insert_C"));
        view.insert("C", vec![Value::int(1), Value::str("FR")])
            .unwrap();
        assert_eq!(view.stats().updates, 1);
        assert!(view.executor().total_entries() > 0);
        view.executor_mut().reset_stats();
        assert_eq!(view.stats().updates, 0);
    }

    /// Regression (review finding): the facade must host a genuinely typed
    /// `Executor<S>` for *any* `ViewStorage` implementation — including ones the
    /// `StorageBackend` enum cannot name — not silently substitute a built-in
    /// backend and panic on `executor()`.
    #[test]
    fn the_facade_honors_custom_storage_backends() {
        use dbring_algebra::Number as N;

        /// A delegating wrapper around the hash backend: a distinct *type* the enum
        /// has no value for, standing in for an out-of-tree backend.
        #[derive(Clone, Debug)]
        struct CustomStorage(HashViewStorage);

        impl ViewStorage for CustomStorage {
            const BACKEND: StorageBackend = StorageBackend::Hash; // closest name
            fn new(key_arity: usize) -> Self {
                CustomStorage(HashViewStorage::new(key_arity))
            }
            fn key_arity(&self) -> usize {
                self.0.key_arity()
            }
            fn len(&self) -> usize {
                self.0.len()
            }
            fn get(&self, key: &[Value]) -> N {
                self.0.get(key)
            }
            fn add(&mut self, key: Vec<Value>, delta: N) {
                self.0.add(key, delta)
            }
            fn add_ref(&mut self, key: &[Value], delta: N) {
                self.0.add_ref(key, delta)
            }
            fn register_index(&mut self, positions: Vec<usize>) {
                self.0.register_index(positions)
            }
            fn for_each(&self, visit: impl FnMut(&[Value], N)) {
                self.0.for_each(visit)
            }
            fn for_each_slice(
                &self,
                positions: &[usize],
                values: &[Value],
                visit: impl FnMut(&[Value], N),
            ) {
                self.0.for_each_slice(positions, values, visit)
            }
            fn footprint(&self) -> StorageFootprint {
                self.0.footprint()
            }
        }

        let catalog = customer_catalog();
        let mut view = IncrementalView::<CustomStorage>::from_agca_with_backend(
            &catalog,
            "q[c] := Sum(C(c, n))",
        )
        .unwrap();
        view.insert("C", vec![Value::int(1), Value::str("FR")])
            .unwrap();
        assert_eq!(view.value(&[Value::int(1)]), Number::Int(1));
        // The hosted executor really runs on the custom type: the typed accessor
        // succeeds rather than panicking on a mismatched downcast.
        let typed: &Executor<CustomStorage> = view.executor();
        assert_eq!(typed.output_value(&[Value::int(1)]), Number::Int(1));
    }

    #[test]
    fn the_facade_downcasts_to_its_typed_executor_on_both_backends() {
        let catalog = customer_catalog();
        let text = "q[c] := Sum(C(c, n))";
        let mut hash = IncrementalView::from_agca(&catalog, text).unwrap();
        hash.insert("C", vec![Value::int(1), Value::str("FR")])
            .unwrap();
        let _typed: &Executor<HashViewStorage> = hash.executor();
        let mut ordered =
            IncrementalView::<OrderedViewStorage>::from_agca_with_backend(&catalog, text).unwrap();
        ordered
            .insert("C", vec![Value::int(1), Value::str("FR")])
            .unwrap();
        let typed: &Executor<OrderedViewStorage> = ordered.executor();
        assert_eq!(typed.output_value(&[Value::int(1)]), Number::Int(1));
        // Clones stay independent (the boxed engine clones behind the ring).
        let fork = ordered.clone();
        ordered
            .insert("C", vec![Value::int(2), Value::str("DE")])
            .unwrap();
        assert_eq!(fork.table().len(), 1);
        assert_eq!(ordered.table().len(), 2);
    }
}

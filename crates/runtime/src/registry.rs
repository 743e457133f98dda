//! The executor-hosting registry: many boxed [`ViewEngine`]s behind one ingest path,
//! with per-relation routing.
//!
//! One update stream maintaining a whole set of standing views is the paper's actual
//! operating regime (and DBToaster's: one generated program hosting every maintained
//! map). The registry is that regime's runtime core, kept deliberately below the
//! parsing/compiling facade: it knows nothing about queries or catalogs, only about
//! compiled engines and the relations their trigger programs read.
//!
//! * **Registration** derives each engine's *read set* from its program's triggers and
//!   indexes it in a routing table: relation name → the slots of the engines with a
//!   trigger on that relation.
//! * **Per-update dispatch** ([`EngineRegistry::apply`]) routes a single-tuple update
//!   to exactly the engines that read its relation — an update a view does not read
//!   costs that view nothing, not even a dispatch lookup.
//! * **Shared-batch dispatch** ([`EngineRegistry::apply_batch`]) is the amortization
//!   seam: the caller normalizes a [`DeltaBatch`] **once** and the registry fans the
//!   borrowed batch out to the union of the touched relations' readers. With `k` views
//!   over one stream this does one consolidation (bucket + sort + net) where `k`
//!   independent views would each redo it.
//! * **Failure atomicity** (stage → commit): dispatch stages the batch on every
//!   touched engine in slot order — each engine applies it while logging pre-images —
//!   and commits only if *all* stages succeed. The first failure stops the loop and
//!   aborts every stage, so a failed dispatch leaves every engine's tables and stats
//!   bit-identical to before the call, and the error reported is the lowest failing
//!   slot's. Engine panics are caught ([`RuntimeError::EnginePanicked`]) and the
//!   panicking slot is **quarantined**: its state can no longer be trusted, so ingest
//!   skips it and the host is expected to rebuild it ([`EngineRegistry::replace`])
//!   from a base snapshot.
//!
//! Dispatch is sequential, on the caller's thread; this is the only ingest path.
//! A compiled trigger does a constant handful of operations per update (about eight
//! on the dashboard views), far less than a thread hand-off costs, so fanning a batch
//! out to worker threads measured slower than this loop at every recorded batch size
//! (EXPERIMENTS.md, E12).
//!
//! Slots are tombstoned on removal and never reused, so a stale slot id can only miss
//! (yield `None`), never silently address a different engine.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use dbring_relations::{DeltaBatch, Update};

use crate::engine::ViewEngine;
use crate::executor::{RuntimeError, StagedBatch};

/// Kept for the benchmark, which names it; it has no effect. Ingest is sequential
/// (see the [module docs](self)), so there is no thread budget left to configure.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ParallelConfig(());

/// A slot-addressed host for boxed view engines with per-relation update routing.
///
/// See the [module docs](self) for the dispatch semantics. The registry is `Clone`
/// (engines clone behind the object interface), so a loaded multi-view state can be
/// forked for experiments.
#[derive(Clone, Debug, Default)]
pub struct EngineRegistry {
    /// Engine slots; `None` marks a removed engine (slots are never reused).
    slots: Vec<Option<RegisteredEngine>>,
    /// Relation name → slots of the engines whose programs read it (ascending).
    routing: HashMap<String, Vec<u32>>,
    /// Number of live (non-tombstoned) slots.
    live: usize,
}

#[derive(Clone, Debug)]
struct RegisteredEngine {
    engine: Box<dyn ViewEngine>,
    /// The relations the engine's program has triggers on (sorted, deduplicated) —
    /// kept so removal can clean the routing table without re-deriving it.
    relations: Vec<String>,
    /// Quarantined: the engine panicked mid-dispatch, so its tables can no longer be
    /// trusted. Ingest skips poisoned slots; [`EngineRegistry::replace`] clears the
    /// flag with a rebuilt engine.
    poisoned: bool,
}

impl EngineRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        EngineRegistry::default()
    }

    /// Kept for the benchmark, which calls it; it has no effect and equals
    /// [`EngineRegistry::new`].
    pub fn with_parallelism(_config: ParallelConfig) -> Self {
        EngineRegistry::new()
    }

    /// Number of live engines.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no engines are registered.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Registers an engine and returns its slot id. The engine's read set is derived
    /// from its program's triggers and indexed for routing.
    pub fn register(&mut self, engine: Box<dyn ViewEngine>) -> u32 {
        let mut relations: Vec<String> = engine
            .program()
            .triggers
            .iter()
            .map(|t| t.relation.clone())
            .collect();
        relations.sort_unstable();
        relations.dedup();
        let slot = u32::try_from(self.slots.len()).expect("fewer than 2^32 views");
        for relation in &relations {
            self.routing.entry(relation.clone()).or_default().push(slot);
        }
        self.slots.push(Some(RegisteredEngine {
            engine,
            relations,
            poisoned: false,
        }));
        self.live += 1;
        slot
    }

    /// Whether the engine in `slot` is quarantined (it panicked during dispatch and
    /// its state can no longer be trusted). Unknown or removed slots report `false`.
    pub fn is_poisoned(&self, slot: u32) -> bool {
        self.slots
            .get(slot as usize)
            .and_then(|e| e.as_ref())
            .is_some_and(|r| r.poisoned)
    }

    /// The quarantined slots, in ascending order.
    pub fn poisoned_slots(&self) -> Vec<u32> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(slot, e)| match e {
                Some(r) if r.poisoned => Some(slot as u32),
                _ => None,
            })
            .collect()
    }

    /// Replaces the engine in a live slot with a rebuilt one and clears its
    /// quarantine flag, returning the old engine (`None` if the slot is unknown or
    /// removed). The replacement inherits the slot's routing, so it must read the
    /// same relations — the repair path rebuilds from the same compiled query, which
    /// guarantees that.
    pub fn replace(
        &mut self,
        slot: u32,
        engine: Box<dyn ViewEngine>,
    ) -> Option<Box<dyn ViewEngine>> {
        let registered = self.slots.get_mut(slot as usize)?.as_mut()?;
        let old = std::mem::replace(&mut registered.engine, engine);
        registered.poisoned = false;
        Some(old)
    }

    /// Removes an engine, returning it (its final state remains readable), or `None`
    /// if the slot is unknown or already removed. The slot is tombstoned, not reused.
    pub fn remove(&mut self, slot: u32) -> Option<Box<dyn ViewEngine>> {
        let registered = self.slots.get_mut(slot as usize)?.take()?;
        for relation in &registered.relations {
            if let Some(readers) = self.routing.get_mut(relation) {
                readers.retain(|&s| s != slot);
                if readers.is_empty() {
                    self.routing.remove(relation);
                }
            }
        }
        self.live -= 1;
        Some(registered.engine)
    }

    /// The engine in a slot (`None` if unknown or removed).
    pub fn engine(&self, slot: u32) -> Option<&dyn ViewEngine> {
        self.slots
            .get(slot as usize)?
            .as_ref()
            .map(|r| r.engine.as_ref())
    }

    /// Mutable access to the engine in a slot.
    pub fn engine_mut(&mut self, slot: u32) -> Option<&mut Box<dyn ViewEngine>> {
        self.slots
            .get_mut(slot as usize)?
            .as_mut()
            .map(|r| &mut r.engine)
    }

    /// Iterates the live engines as `(slot, engine)` pairs, in slot order.
    pub fn engines(&self) -> impl Iterator<Item = (u32, &dyn ViewEngine)> {
        self.slots.iter().enumerate().filter_map(|(slot, r)| {
            r.as_ref()
                .map(|r| (slot as u32, r.engine.as_ref() as &dyn ViewEngine))
        })
    }

    /// The slots of the engines whose programs read `relation` (empty if none do).
    pub fn readers_of(&self, relation: &str) -> &[u32] {
        self.routing
            .get(relation)
            .map(Vec::as_slice)
            .unwrap_or_default()
    }

    /// Applies one single-tuple update to exactly the engines that read its relation,
    /// returning how many engines fired. Updates to relations no engine reads return
    /// `Ok(0)` without touching anything; quarantined engines are skipped.
    ///
    /// **Atomic across engines:** the update is staged on every reader in slot order
    /// and committed only if all stages succeed. On failure every stage is aborted,
    /// so a rejected update lands nowhere, and the first (lowest-slot) error is
    /// returned. A panic in an engine quarantines that slot and surfaces as
    /// [`RuntimeError::EnginePanicked`].
    pub fn apply(&mut self, update: &Update) -> Result<u32, RuntimeError> {
        if update.multiplicity == 0 {
            return Ok(0);
        }
        let readers: Vec<u32> = match self.routing.get(update.relation.as_str()) {
            Some(readers) => readers
                .iter()
                .copied()
                .filter(|&slot| {
                    !self.slots[slot as usize]
                        .as_ref()
                        .expect("routing only lists live slots")
                        .poisoned
                })
                .collect(),
            None => return Ok(0),
        };
        self.stage_and_commit(&readers, |engine| engine.stage_update(update))
    }

    /// Aborts staged tokens in reverse stage order, restoring each engine to its
    /// pre-dispatch state. An abort that itself panics quarantines the slot (the
    /// rollback did not complete, so the tables are in an unknown state).
    fn abort_staged_tokens(&mut self, staged: Vec<(u32, StagedBatch)>) {
        for (slot, token) in staged.into_iter().rev() {
            let registered = self.slots[slot as usize]
                .as_mut()
                .expect("routing only lists live slots");
            if catch_unwind(AssertUnwindSafe(|| registered.engine.abort_staged(token))).is_err() {
                registered.poisoned = true;
            }
        }
    }

    /// Fans one already-normalized [`DeltaBatch`] out to the union of the engines
    /// reading any relation the batch touches, returning how many engines fired. The
    /// batch is normalized **once** by the caller and borrowed by every engine — this
    /// is the shared-batch dispatch entry point that amortizes consolidation across
    /// views. Quarantined engines are skipped.
    ///
    /// **Atomic across engines:** every touched engine stages the batch in slot
    /// order — applying it while logging pre-images — and only if *all* stages
    /// succeed are they committed. The first failure stops the loop and aborts every
    /// earlier stage in reverse, leaving every engine's tables and stats
    /// bit-identical to before the call; the error is therefore the **lowest**
    /// failing slot's. A panic in an engine is caught, reported as
    /// [`RuntimeError::EnginePanicked`], and quarantines that slot (its mid-flight
    /// state cannot be rolled back); sibling slots are still aborted cleanly, so the
    /// batch lands nowhere.
    pub fn apply_batch(&mut self, batch: &DeltaBatch<'_>) -> Result<u32, RuntimeError> {
        // Union of readers over the touched relations. Batches have at most two groups
        // per relation, so a sort/dedup over the concatenated reader lists stays tiny.
        let mut touched: Vec<u32> = Vec::new();
        for group in batch.groups() {
            touched.extend_from_slice(self.readers_of(group.relation()));
        }
        touched.sort_unstable();
        touched.dedup();
        touched.retain(|&slot| {
            !self.slots[slot as usize]
                .as_ref()
                .expect("routing only lists live slots")
                .poisoned
        });
        self.stage_and_commit(&touched, |engine| engine.stage_batch(batch))
    }

    /// The stage → commit protocol over `slots` (ascending, live, unpoisoned):
    /// stages each engine in slot order, stopping at the first failure (which is
    /// therefore the lowest-slot failure); commits every stage on success, aborts
    /// them in reverse on failure. Returns how many engines fired.
    fn stage_and_commit(
        &mut self,
        slots: &[u32],
        mut stage: impl FnMut(&mut dyn ViewEngine) -> Result<StagedBatch, RuntimeError>,
    ) -> Result<u32, RuntimeError> {
        let mut staged: Vec<(u32, StagedBatch)> = Vec::with_capacity(slots.len());
        let mut failure: Option<RuntimeError> = None;
        for &slot in slots {
            let registered = self.slots[slot as usize]
                .as_mut()
                .expect("routing only lists live slots");
            match catch_unwind(AssertUnwindSafe(|| stage(registered.engine.as_mut()))) {
                Ok(Ok(token)) => staged.push((slot, token)),
                Ok(Err(err)) => {
                    failure = Some(err);
                    break;
                }
                Err(_) => {
                    registered.poisoned = true;
                    failure = Some(RuntimeError::EnginePanicked { slot });
                    break;
                }
            }
        }
        if let Some(err) = failure {
            self.abort_staged_tokens(staged);
            return Err(err);
        }
        for (slot, token) in staged {
            self.slots[slot as usize]
                .as_mut()
                .expect("routing only lists live slots")
                .engine
                .commit_staged(token);
        }
        Ok(slots.len() as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::boxed_engine;
    use crate::storage::StorageBackend;
    use dbring_agca::parser::parse_query;
    use dbring_algebra::Number;
    use dbring_compiler::compile;
    use dbring_relations::{Database, Value};

    fn catalog() -> Database {
        let mut db = Database::new();
        db.declare("R", &["A"]).unwrap();
        db.declare("S", &["B"]).unwrap();
        db
    }

    fn engine_for(text: &str) -> Box<dyn ViewEngine> {
        let program = compile(&catalog(), &parse_query(text).unwrap()).unwrap();
        boxed_engine(program, StorageBackend::Hash)
    }

    #[test]
    fn updates_route_only_to_reading_engines() {
        let mut registry = EngineRegistry::new();
        let r_sum = registry.register(engine_for("r_sum := Sum(R(x))"));
        let s_sum = registry.register(engine_for("s_sum := Sum(S(y))"));
        let both = registry.register(engine_for("both := Sum(R(x) * S(x))"));
        assert_eq!(registry.len(), 3);
        assert_eq!(registry.readers_of("R"), &[r_sum, both]);
        assert_eq!(registry.readers_of("S"), &[s_sum, both]);
        assert_eq!(registry.readers_of("T"), &[] as &[u32]);

        let fired = registry
            .apply(&Update::insert("R", vec![Value::int(1)]))
            .unwrap();
        assert_eq!(fired, 2);
        assert_eq!(registry.engine(r_sum).unwrap().stats().updates, 1);
        assert_eq!(registry.engine(s_sum).unwrap().stats().updates, 0);
        assert_eq!(registry.engine(both).unwrap().stats().updates, 1);
        // A relation nobody reads is a no-op, not an error.
        assert_eq!(
            registry
                .apply(&Update::insert("T", vec![Value::int(1)]))
                .unwrap(),
            0
        );
    }

    #[test]
    fn shared_batch_dispatch_fans_out_to_the_union_of_readers() {
        let mut registry = EngineRegistry::new();
        let r_sum = registry.register(engine_for("r_sum := Sum(R(x))"));
        let s_sum = registry.register(engine_for("s_sum := Sum(S(y))"));
        let updates = [
            Update::insert("R", vec![Value::int(1)]),
            Update::insert("R", vec![Value::int(1)]),
            Update::insert("S", vec![Value::int(9)]),
            Update::delete("S", vec![Value::int(9)]),
        ];
        let batch = DeltaBatch::from_updates(&updates);
        // S's updates cancel inside the batch: only R's reader fires.
        let fired = registry.apply_batch(&batch).unwrap();
        assert_eq!(fired, 1);
        assert_eq!(
            registry.engine(r_sum).unwrap().output_value(&[]),
            Number::Int(2)
        );
        assert_eq!(registry.engine(s_sum).unwrap().stats().updates, 0);
        assert_eq!(registry.apply_batch(&DeltaBatch::default()).unwrap(), 0);
    }

    #[test]
    fn removal_tombstones_the_slot_and_cleans_routing() {
        let mut registry = EngineRegistry::new();
        let a = registry.register(engine_for("a := Sum(R(x))"));
        let b = registry.register(engine_for("b := Sum(R(x) * x)"));
        let removed = registry.remove(a).expect("live slot removes");
        assert_eq!(removed.output_value(&[]), Number::Int(0));
        assert_eq!(registry.len(), 1);
        assert_eq!(registry.readers_of("R"), &[b]);
        assert!(registry.engine(a).is_none());
        assert!(registry.remove(a).is_none(), "double remove misses");
        assert!(registry.remove(99).is_none(), "unknown slot misses");
        // Slots are never reused: a new engine gets a fresh id.
        let c = registry.register(engine_for("c := Sum(R(x))"));
        assert_ne!(c, a);
        assert_eq!(registry.readers_of("R"), &[b, c]);
        registry
            .apply(&Update::insert("R", vec![Value::int(2)]))
            .unwrap();
        assert_eq!(
            registry.engine(c).unwrap().output_value(&[]),
            Number::Int(1)
        );
        assert_eq!(
            registry.engines().map(|(slot, _)| slot).collect::<Vec<_>>(),
            vec![b, c]
        );
    }

    #[test]
    fn dispatch_failure_reports_the_lowest_slot() {
        let mut db = Database::new();
        db.declare("R", &["A"]).unwrap();
        db.declare("S", &["B"]).unwrap();
        db.declare("T", &["C"]).unwrap();
        let engine = |text: &str| {
            let program = compile(&db, &parse_query(text).unwrap()).unwrap();
            boxed_engine(program, StorageBackend::Hash)
        };
        let mut registry = EngineRegistry::new();
        let ok = registry.register(engine("ok := Sum(R(x))"));
        registry.register(engine("fails_s := Sum(S(y))"));
        registry.register(engine("fails_t := Sum(T(z))"));
        // One healthy R delta plus bad-arity S and T deltas: slots 1 and 2 both fail
        // on the same batch, with distinguishable errors.
        let updates = [
            Update::insert("R", vec![Value::int(1)]),
            Update::insert("S", vec![Value::int(1), Value::int(2)]),
            Update::insert("T", vec![Value::int(1), Value::int(2)]),
        ];
        let batch = DeltaBatch::from_updates(&updates);
        let err = registry.apply_batch(&batch).unwrap_err();
        assert_eq!(
            err,
            RuntimeError::ArityMismatch {
                relation: "S".into(),
                expected: 1,
                got: 2
            },
            "the lowest failing slot's error wins"
        );
        // The healthy R reader staged its delta but rolled it back, so the batch
        // landed nowhere.
        assert_eq!(
            registry.engine(ok).unwrap().output_value(&[]),
            Number::Int(0),
            "a failed dispatch lands nowhere, even at healthy slots"
        );
        assert_eq!(
            registry.engine(ok).unwrap().stats().updates,
            0,
            "aborted stages restore work counters too"
        );
    }

    #[test]
    fn a_panicking_engine_is_quarantined_and_siblings_roll_back() {
        use crate::executor::Executor;
        use crate::fault::{with_fault, FaultOp, FaultPlan, FaultStorage};
        use crate::storage::HashViewStorage;

        let catalog = catalog();
        let program = |text: &str| compile(&catalog, &parse_query(text).unwrap()).unwrap();
        let mut registry = EngineRegistry::new();
        let healthy = registry.register(engine_for("healthy := Sum(R(x))"));
        let victim = registry.register(Box::new(
            Executor::<FaultStorage<HashViewStorage>>::with_backend(program(
                "victim := Sum(R(x) * x)",
            )),
        ));
        let updates = [
            Update::insert("R", vec![Value::int(2)]),
            Update::insert("R", vec![Value::int(3)]),
        ];
        let batch = DeltaBatch::from_updates(&updates);
        // Warm both engines with a clean batch first.
        assert_eq!(registry.apply_batch(&batch).unwrap(), 2);
        let healthy_table = registry.engine(healthy).unwrap().output_table();

        // The batched path lands its writes through consolidated flushes, so
        // target the first `apply_sorted` of the dispatch.
        let err = with_fault(FaultPlan::new(FaultOp::ApplySorted, 0), || {
            registry.apply_batch(&batch).unwrap_err()
        });
        assert_eq!(err, RuntimeError::EnginePanicked { slot: victim });
        assert!(registry.is_poisoned(victim));
        assert_eq!(registry.poisoned_slots(), vec![victim]);
        assert!(!registry.is_poisoned(healthy));
        // The healthy sibling rolled back: the failed batch landed nowhere.
        assert_eq!(
            registry.engine(healthy).unwrap().output_table(),
            healthy_table
        );

        // Ingest now skips the quarantined slot but keeps serving the healthy one.
        assert_eq!(registry.apply_batch(&batch).unwrap(), 1);
        assert_eq!(
            registry.engine(healthy).unwrap().output_value(&[]),
            Number::Int(4)
        );

        // Repair: replace the slot with a rebuilt engine; quarantine clears.
        let rebuilt = Box::new(Executor::<FaultStorage<HashViewStorage>>::with_backend(
            program("victim := Sum(R(x) * x)"),
        ));
        registry.replace(victim, rebuilt).expect("slot is live");
        assert!(!registry.is_poisoned(victim));
        assert_eq!(registry.apply_batch(&batch).unwrap(), 2);
        assert_eq!(
            registry.engine(victim).unwrap().output_value(&[]),
            Number::Int(5)
        );
    }

    #[test]
    fn engine_mut_reaches_the_hosted_engine() {
        let mut registry = EngineRegistry::new();
        let slot = registry.register(engine_for("a := Sum(R(x))"));
        registry
            .apply(&Update::insert("R", vec![Value::int(1)]))
            .unwrap();
        registry.engine_mut(slot).unwrap().reset_stats();
        assert_eq!(registry.engine(slot).unwrap().stats().updates, 0);
        assert!(registry.engine_mut(42).is_none());
    }
}

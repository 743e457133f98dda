//! A common interface over the maintenance strategies, so experiments, tests and
//! benchmarks can drive them interchangeably — including the same strategy over
//! different storage backends (`"recursive-ivm"` vs `"recursive-ivm@ordered"`).

use std::collections::BTreeMap;

use dbring_algebra::Number;
use dbring_relations::{Update, Value};

use crate::executor::Executor;
use crate::storage::ViewStorage;

/// A view-maintenance strategy: consumes single-tuple updates and can report the current
/// query result (a table from group keys to aggregate values).
pub trait MaintenanceStrategy {
    /// A short name used in experiment output: the strategy family
    /// ("recursive-ivm", "classical-ivm", "naive"), suffixed with `@<backend>` when it
    /// runs on a non-default storage backend ("recursive-ivm@ordered").
    fn strategy_name(&self) -> &'static str;

    /// Applies one single-tuple update.
    fn apply_update(&mut self, update: &Update) -> Result<(), String>;

    /// Applies a batch of updates. The default loops [`apply_update`]; strategies with
    /// a real batch path (the trigger-program executor) override it to consolidate the
    /// batch into a [`DeltaBatch`](dbring_relations::DeltaBatch) and fire each affected
    /// map once. Either way the result equals applying the updates one by one.
    ///
    /// [`apply_update`]: MaintenanceStrategy::apply_update
    fn apply_update_batch(&mut self, updates: &[Update]) -> Result<(), String> {
        for update in updates {
            self.apply_update(update)?;
        }
        Ok(())
    }

    /// The current query result as a sorted table. Groups whose aggregate is zero may be
    /// omitted.
    fn current_result(&self) -> BTreeMap<Vec<Value>, Number>;

    /// The aggregate value for one group key (zero if the group is absent).
    ///
    /// **Cost of the default impl:** it calls [`current_result`], materializing the
    /// *entire* result table (one allocation per group) to answer a single-key lookup.
    /// That is fine for the baselines' occasional oracle checks, but any strategy that
    /// can probe its result directly must override this — all three in-tree strategy
    /// families do — and callers probing in a loop should prefer a strategy-specific
    /// accessor over a `dyn MaintenanceStrategy` default.
    ///
    /// [`current_result`]: MaintenanceStrategy::current_result
    fn result_value(&self, key: &[Value]) -> Number {
        self.current_result()
            .get(key)
            .copied()
            .unwrap_or(Number::Int(0))
    }
}

impl<S: ViewStorage> MaintenanceStrategy for Executor<S> {
    fn strategy_name(&self) -> &'static str {
        crate::engine::executor_name::<S>()
    }

    fn apply_update(&mut self, update: &Update) -> Result<(), String> {
        self.apply(update).map_err(|e| e.to_string())
    }

    // The real batch path: consolidate once, fire each affected map once.
    fn apply_update_batch(&mut self, updates: &[Update]) -> Result<(), String> {
        self.apply_batch(&dbring_relations::DeltaBatch::from_updates(updates))
            .map_err(|e| e.to_string())
    }

    fn current_result(&self) -> BTreeMap<Vec<Value>, Number> {
        self.output_table()
    }

    // Direct probe of the output map: no table materialization.
    fn result_value(&self, key: &[Value]) -> Number {
        self.output_value(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{HashViewStorage, OrderedViewStorage};
    use dbring_agca::parser::parse_query;
    use dbring_compiler::{compile, TriggerProgram};
    use dbring_relations::Database;

    fn sum_program() -> TriggerProgram {
        let mut catalog = Database::new();
        catalog.declare("R", &["A"]).unwrap();
        let q = parse_query("q := Sum(R(x))").unwrap();
        compile(&catalog, &q).unwrap()
    }

    /// The executor on both in-tree backends, behind the dynamic interface.
    fn executors() -> Vec<Box<dyn MaintenanceStrategy>> {
        vec![
            Box::new(Executor::<HashViewStorage>::new(sum_program())),
            Box::new(Executor::<OrderedViewStorage>::with_backend(sum_program())),
        ]
    }

    #[test]
    fn executor_implements_the_strategy_interface() {
        let mut strategy: Box<dyn MaintenanceStrategy> =
            Box::new(crate::executor::Executor::new(sum_program()));
        assert_eq!(strategy.strategy_name(), "recursive-ivm");
        strategy
            .apply_update(&Update::insert("R", vec![Value::int(1)]))
            .unwrap();
        strategy
            .apply_update(&Update::insert("R", vec![Value::int(2)]))
            .unwrap();
        assert_eq!(strategy.result_value(&[]), Number::Int(2));
        assert_eq!(strategy.current_result().len(), 1);
    }

    #[test]
    fn backend_factories_yield_equivalent_strategies_with_distinct_names() {
        let mut strategies = executors();
        let names: Vec<&str> = strategies.iter().map(|s| s.strategy_name()).collect();
        assert_eq!(names, vec!["recursive-ivm", "recursive-ivm@ordered"]);
        let expected: BTreeMap<Vec<Value>, Number> = [(vec![], Number::Int(1))].into();
        for s in &mut strategies {
            s.apply_update(&Update::insert("R", vec![Value::int(5)]))
                .unwrap();
            s.apply_update(&Update::insert("R", vec![Value::int(6)]))
                .unwrap();
            s.apply_update(&Update::delete("R", vec![Value::int(6)]))
                .unwrap();
            assert_eq!(s.result_value(&[]), Number::Int(1), "{}", s.strategy_name());
            assert_eq!(s.current_result(), expected, "{}", s.strategy_name());
        }
    }

    #[test]
    fn batch_application_agrees_with_per_update_application_for_every_strategy() {
        let updates: Vec<Update> = (0..12)
            .map(|i| Update::insert("R", vec![Value::int(i % 4)]))
            .chain((0..3).map(|i| Update::delete("R", vec![Value::int(i)])))
            .collect();
        for (mut per_update, mut batched) in executors().into_iter().zip(executors()) {
            for u in &updates {
                per_update.apply_update(u).unwrap();
            }
            batched.apply_update_batch(&updates).unwrap();
            assert_eq!(
                per_update.current_result(),
                batched.current_result(),
                "{}",
                per_update.strategy_name()
            );
        }
    }
}

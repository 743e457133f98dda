//! The reference interpreter, kept as a test oracle: trigger programs executed
//! directly over the string-named IR, with one `HashMap<String, Value>` environment per
//! candidate binding.
//!
//! This was the executor's original inner loop. It is slower than the slot-resolved
//! [`Executor`](dbring_runtime::Executor) by design (per-factor name hashing,
//! per-binding environment clones) but simple enough to audit at a glance. It counts
//! [`ExecStats`] exactly as the executor does, so `lowered_equivalence.rs` can check
//! the executor's work accounting — the quantity Theorem 7.1 bounds — operation for
//! operation, not just its final tables.
//!
//! Single-tuple firing only, on the hash backend: the batch, staging and backend
//! variants of the executor are checked against replay-from-scratch and
//! `eval_all_groups` instead.

use std::collections::{BTreeMap, HashMap};

use dbring_agca::eval::compare_values;
use dbring_algebra::{Number, Semiring};
use dbring_compiler::{RhsFactor, ScalarExpr, Statement, TriggerProgram};
use dbring_delta::Sign;
use dbring_relations::{Update, Value};
use dbring_runtime::{ExecStats, HashViewStorage, RuntimeError, ViewStorage};

/// The name-resolving reference executor for one compiled trigger program.
#[derive(Clone, Debug)]
pub struct InterpretedExecutor {
    program: TriggerProgram,
    maps: Vec<HashViewStorage>,
    stats: ExecStats,
}

impl InterpretedExecutor {
    /// An interpreter with empty views (correct when starting from the empty database).
    pub fn new(program: TriggerProgram) -> Self {
        let maps = program
            .maps
            .iter()
            .map(|m| HashViewStorage::new(m.key_vars.len()))
            .collect();
        InterpretedExecutor {
            program,
            maps,
            stats: ExecStats::default(),
        }
    }

    /// Work counters accumulated so far.
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    /// The output view as a sorted table.
    pub fn output_table(&self) -> BTreeMap<Vec<Value>, Number> {
        self.maps[self.program.output].to_table()
    }

    /// The output value for one group key (zero if absent).
    pub fn output_value(&self, key: &[Value]) -> Number {
        self.maps[self.program.output].get(key)
    }

    /// Total number of entries across all views.
    pub fn total_entries(&self) -> usize {
        self.maps.iter().map(HashViewStorage::len).sum()
    }

    /// Applies a single-tuple update by interpreting the first trigger on its
    /// `(relation, sign)`; |multiplicity| > 1 fires that many times, and multiplicity 0
    /// is a no-op that checks nothing. Not atomic: on error, earlier firings stay.
    pub fn apply(&mut self, update: &Update) -> Result<(), RuntimeError> {
        if update.multiplicity == 0 {
            return Ok(());
        }
        let sign = if update.multiplicity > 0 {
            Sign::Insert
        } else {
            Sign::Delete
        };
        let Some(trigger) = self
            .program
            .triggers
            .iter()
            .find(|t| t.relation == update.relation && t.sign == sign)
        else {
            return Ok(());
        };
        if trigger.params.len() != update.values.len() {
            return Err(RuntimeError::ArityMismatch {
                relation: update.relation.clone(),
                expected: trigger.params.len(),
                got: update.values.len(),
            });
        }
        let env: HashMap<String, Value> = trigger
            .params
            .iter()
            .cloned()
            .zip(update.values.iter().cloned())
            .collect();
        for _ in 0..update.multiplicity.unsigned_abs() {
            self.stats.updates += 1;
            for stmt in &trigger.statements {
                execute_statement(&mut self.maps, &mut self.stats, stmt, &env)?;
            }
        }
        Ok(())
    }

    /// Applies a sequence of updates in order. Not atomic: a failure leaves every
    /// earlier update applied and is wrapped in [`RuntimeError::AtUpdate`].
    pub fn apply_all<'a>(
        &mut self,
        updates: impl IntoIterator<Item = &'a Update>,
    ) -> Result<(), RuntimeError> {
        for (index, u) in updates.into_iter().enumerate() {
            self.apply(u).map_err(|e| RuntimeError::AtUpdate {
                index,
                source: Box::new(e),
            })?;
        }
        Ok(())
    }
}

/// Interprets one statement against `base_env` and applies its writes.
fn execute_statement(
    maps: &mut [HashViewStorage],
    stats: &mut ExecStats,
    stmt: &Statement,
    base_env: &HashMap<String, Value>,
) -> Result<(), RuntimeError> {
    // The set of candidate bindings, each with the product accumulated so far.
    let mut envs: Vec<(HashMap<String, Value>, Number)> = vec![(base_env.clone(), Number::Int(1))];
    for factor in &stmt.factors {
        if envs.is_empty() {
            break;
        }
        let mut next = Vec::new();
        match factor {
            RhsFactor::MapLookup { map, keys } => {
                let storage = &maps[*map];
                for (env, acc) in envs {
                    let mut bound_positions = Vec::new();
                    let mut bound_values = Vec::new();
                    let mut unbound_positions = Vec::new();
                    for (i, key_var) in keys.iter().enumerate() {
                        match env.get(key_var) {
                            Some(v) => {
                                bound_positions.push(i);
                                bound_values.push(v.clone());
                            }
                            None => unbound_positions.push(i),
                        }
                    }
                    if unbound_positions.is_empty() {
                        let value = storage.get(&bound_values);
                        if !value.is_zero() {
                            stats.multiplications += 1;
                            next.push((env, acc.mul(&value)));
                        }
                        continue;
                    }
                    storage.for_each_slice(&bound_positions, &bound_values, |full_key, value| {
                        let mut extended = env.clone();
                        for &i in &unbound_positions {
                            let val = full_key[i].clone();
                            match extended.get(&keys[i]) {
                                Some(existing) if *existing != val => return,
                                _ => {
                                    extended.insert(keys[i].clone(), val);
                                }
                            }
                        }
                        stats.multiplications += 1;
                        stats.bindings_enumerated += 1;
                        next.push((extended, acc.mul(&value)));
                    });
                }
            }
            RhsFactor::Scalar(term) => {
                for (env, acc) in envs {
                    let number = eval_scalar(term, &env)?
                        .as_number()
                        .ok_or_else(|| RuntimeError::NonNumericValue(term.to_string()))?;
                    if !number.is_zero() {
                        stats.multiplications += 1;
                        next.push((env, acc.mul(&number)));
                    }
                }
            }
            RhsFactor::Guard(op, lhs, rhs) => {
                for (env, acc) in envs {
                    let (l, r) = (eval_scalar(lhs, &env)?, eval_scalar(rhs, &env)?);
                    if op.test(compare_values(&l, &r)) {
                        next.push((env, acc));
                    }
                }
            }
        }
        envs = next;
    }
    // Collect all writes first, then apply (a statement never reads its own writes).
    let mut writes: Vec<(Vec<Value>, Number)> = Vec::with_capacity(envs.len());
    for (env, acc) in envs {
        if acc.is_zero() {
            continue;
        }
        let key = stmt
            .target_keys
            .iter()
            .map(|var| {
                env.get(var)
                    .cloned()
                    .ok_or_else(|| RuntimeError::UnboundVariable(var.clone()))
            })
            .collect::<Result<Vec<Value>, _>>()?;
        writes.push((key, stmt.coefficient.mul(&acc)));
    }
    for (key, delta) in writes {
        stats.additions += 1;
        maps[stmt.target].add(key, delta);
    }
    Ok(())
}

fn eval_scalar(term: &ScalarExpr, env: &HashMap<String, Value>) -> Result<Value, RuntimeError> {
    fn numeric(term: &ScalarExpr, env: &HashMap<String, Value>) -> Result<Number, RuntimeError> {
        eval_scalar(term, env)?
            .as_number()
            .ok_or_else(|| RuntimeError::NonNumericValue(term.to_string()))
    }
    match term {
        ScalarExpr::Const(v) => Ok(v.clone()),
        ScalarExpr::Var(x) => env
            .get(x)
            .cloned()
            .ok_or_else(|| RuntimeError::UnboundVariable(x.clone())),
        ScalarExpr::Add(a, b) => Ok(Value::from(numeric(a, env)?.add(&numeric(b, env)?))),
        ScalarExpr::Mul(a, b) => Ok(Value::from(numeric(a, env)?.mul(&numeric(b, env)?))),
        ScalarExpr::Neg(a) => Ok(Value::from(numeric(a, env)?.mul(&Number::Int(-1)))),
    }
}

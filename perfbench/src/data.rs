//! Seeded inputs and the replay-from-scratch oracle.
//!
//! Every workload uses the `sales_dashboard` shape: `Sales` and `Returns` over
//! `(cust, cents, qty)`, six integer views, one update in eight a return, and one
//! update in five the deletion of a live tuple. The generator lives here, not in
//! `dbring-workloads`, so the benchmark's inputs stay fixed while the repository
//! changes around it.

use std::collections::{BTreeMap, HashMap};

use dbring::{eval_all_groups, parse_sql, Catalog, Number, Update, Value};

/// Updates per `Ring::apply_batch` call.
pub const BATCH: usize = 256;
/// The six standing views, as `(name, SQL)`.
pub const VIEWS: [(&str, &str); 6] = [
    (
        "revenue_by_cust",
        "SELECT cust, SUM(cents * qty) AS revenue FROM Sales GROUP BY cust",
    ),
    (
        "orders_by_cust",
        "SELECT cust, SUM(1) AS orders FROM Sales GROUP BY cust",
    ),
    (
        "units_by_cust",
        "SELECT cust, SUM(qty) AS units FROM Sales GROUP BY cust",
    ),
    (
        "total_revenue",
        "SELECT SUM(cents * qty) AS total FROM Sales",
    ),
    (
        "refunds_by_cust",
        "SELECT cust, SUM(cents * qty) AS refunded FROM Returns GROUP BY cust",
    ),
    ("return_count", "SELECT SUM(1) AS returns FROM Returns"),
];
/// The view readers look up.
pub const READ_VIEW: &str = "revenue_by_cust";
/// Columns of both relations.
pub const COLUMNS: [&str; 3] = ["cust", "cents", "qty"];

/// A view's result table.
pub type Table = BTreeMap<Vec<Value>, Number>;

/// The dashboard schema.
pub fn catalog() -> Catalog {
    let mut catalog = Catalog::new();
    for relation in ["Sales", "Returns"] {
        catalog
            .declare(relation, &COLUMNS)
            .expect("fresh catalog accepts both relations");
    }
    catalog
}

/// SplitMix64: small, seedable, and the same on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream is fixed by `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// One single-tuple update in compact form.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Op {
    /// `Returns` rather than `Sales`.
    pub returns: bool,
    /// Customer id.
    pub cust: i64,
    /// Price in cents.
    pub cents: i64,
    /// Quantity.
    pub qty: i64,
    /// `true` for a deletion.
    pub delete: bool,
}

impl Op {
    /// The relation this update touches.
    pub fn relation(&self) -> &'static str {
        if self.returns {
            "Returns"
        } else {
            "Sales"
        }
    }

    /// The facade's update value.
    pub fn update(&self) -> Update {
        let values = vec![
            Value::int(self.cust),
            Value::int(self.cents),
            Value::int(self.qty),
        ];
        if self.delete {
            Update::delete(self.relation(), values)
        } else {
            Update::insert(self.relation(), values)
        }
    }

    /// The line-protocol request for this update.
    pub fn request(&self, tenant: &str) -> String {
        let verb = if self.delete { "DELETE" } else { "INSERT" };
        format!(
            "{verb} {tenant} {} {} {} {}",
            self.relation(),
            self.cust,
            self.cents,
            self.qty
        )
    }
}

/// `count` updates over `customers` customers: each step inserts a fresh tuple or,
/// one time in five, deletes a tuple inserted earlier and still live.
pub fn generate(seed: u64, count: usize, customers: i64) -> Vec<Op> {
    let mut rng = Rng::new(seed);
    let mut live: Vec<Op> = Vec::new();
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let insert = Op {
            returns: i % 8 == 7,
            cust: rng.below(customers as u64) as i64,
            cents: 100 * (1 + rng.below(24) as i64),
            qty: 1 + rng.below(4) as i64,
            delete: false,
        };
        if !live.is_empty() && rng.below(5) == 0 {
            let victim = live.swap_remove(rng.below(live.len() as u64) as usize);
            out.push(Op {
                delete: true,
                ..victim
            });
        } else {
            live.push(insert);
            out.push(insert);
        }
    }
    out
}

/// A workload's inputs: the initial load and the stream measured after it.
#[derive(Clone, Debug)]
pub struct Inputs {
    /// Updates applied during set-up.
    pub initial: Vec<Op>,
    /// Updates applied while measuring, cycled as often as the run needs.
    pub stream: Vec<Op>,
}

impl Inputs {
    /// Initial load and stream drawn from `seed` (the stream from a derived seed).
    pub fn new(seed: u64, customers: i64, initial: usize, stream: usize) -> Inputs {
        Inputs {
            initial: generate(seed, initial, customers),
            stream: generate(seed ^ 0x5EED_5EED_5EED_5EED, stream, customers),
        }
    }

    /// The update applied `i` places into the cycled stream.
    pub fn stream_op(&self, i: usize) -> Op {
        self.stream[i % self.stream.len()]
    }

    /// The oracle for the initial load followed by the first `applied` updates
    /// of the cycled stream.
    pub fn oracle(&self, applied: usize) -> Oracle {
        let mut oracle = Oracle::default();
        oracle.add(&self.initial, 1);
        let cycles = applied / self.stream.len();
        oracle.add(&self.stream, cycles as i64);
        oracle.add(&self.stream[..applied % self.stream.len()], 1);
        oracle
    }
}

/// Net multiplicities of every tuple applied so far; evaluates the views from
/// scratch with `eval_all_groups`. Multiplicities live in ℤ, so a stream applied
/// `k` times simply scales its net contribution by `k`.
#[derive(Clone, Debug, Default)]
pub struct Oracle {
    net: HashMap<Op, i64>,
}

impl Oracle {
    /// Adds `times` copies of `ops`.
    pub fn add(&mut self, ops: &[Op], times: i64) {
        if times == 0 {
            return;
        }
        for op in ops {
            let key = Op {
                delete: false,
                ..*op
            };
            *self.net.entry(key).or_insert(0) += if op.delete { -times } else { times };
        }
    }

    /// Every view's expected table, by view name.
    pub fn tables(&self) -> Result<BTreeMap<String, Table>, String> {
        let mut db = catalog();
        for (op, &m) in &self.net {
            if m != 0 {
                let mut update = op.update();
                update.multiplicity = m;
                db.apply(&update).map_err(|e| e.to_string())?;
            }
        }
        let catalog = catalog();
        let mut out = BTreeMap::new();
        for (name, sql) in VIEWS {
            let query = parse_sql(sql, &catalog).map_err(|e| e.to_string())?;
            let table = eval_all_groups(&query, &db).map_err(|e| e.to_string())?;
            out.insert(name.to_string(), table);
        }
        Ok(out)
    }
}

/// A read key: a uniformly drawn customer.
pub fn read_key(rng: &mut Rng, customers: i64) -> [Value; 1] {
    [Value::int(rng.below(customers as u64) as i64)]
}

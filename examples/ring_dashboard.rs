//! A `Ring` engine in action: one sales stream maintaining a whole dashboard of
//! standing aggregates — with a view added mid-stream (backfilled from the ring's
//! base snapshot) and another dropped once it is no longer needed.
//!
//! Run with: `cargo run --example ring_dashboard`

use dbring::{Catalog, RingBuilder, Update, Value, ViewDef};

fn sale(cust: i64, cents: i64, qty: i64) -> Update {
    Update::insert(
        "Sales",
        vec![Value::int(cust), Value::int(cents), Value::int(qty)],
    )
}

fn refund(cust: i64, cents: i64, qty: i64) -> Update {
    Update::insert(
        "Returns",
        vec![Value::int(cust), Value::int(cents), Value::int(qty)],
    )
}

fn main() {
    // 1. One catalog for the whole engine.
    let mut catalog = Catalog::new();
    catalog
        .declare("Sales", &["cust", "cents", "qty"])
        .expect("fresh catalog");
    catalog
        .declare("Returns", &["cust", "cents", "qty"])
        .expect("fresh catalog");
    let mut ring = RingBuilder::new(catalog).build();

    // 2. Standing views — created up front…
    let revenue = ring
        .create_view(
            "revenue_by_cust",
            ViewDef::Sql("SELECT cust, SUM(cents * qty) AS revenue FROM Sales GROUP BY cust"),
        )
        .expect("view compiles");
    let orders = ring
        .create_view(
            "orders_by_cust",
            ViewDef::Sql("SELECT cust, SUM(1) AS orders FROM Sales GROUP BY cust"),
        )
        .expect("view compiles");
    let refunds = ring
        .create_view(
            "refunds_by_cust",
            ViewDef::Sql("SELECT cust, SUM(cents * qty) AS refunded FROM Returns GROUP BY cust"),
        )
        .expect("view compiles");

    // 3. …and one ingest path. Batches are normalized once for the whole ring, and
    //    each update is routed only to the views that read its relation.
    let morning: Vec<Update> = vec![
        sale(1, 250, 2),
        sale(2, 100, 1),
        sale(1, 999, 1),
        refund(2, 100, 1),
        sale(3, 500, 4),
        sale(2, 100, 3),
    ];
    ring.apply_batch(&morning).expect("stream ingests");

    println!("after the morning batch:");
    for view in ring.views() {
        println!("  {} ({}):", view.name(), view.engine_name());
        for (key, value) in view.table() {
            println!("    cust {} -> {}", key[0], value);
        }
    }

    // 4. A view created mid-stream is backfilled from the ring's base snapshot — its
    //    table is identical to having watched the stream from the start.
    let units = ring
        .create_view(
            "units_by_cust",
            ViewDef::Sql("SELECT cust, SUM(qty) AS units FROM Sales GROUP BY cust"),
        )
        .expect("late view compiles");
    assert_eq!(
        ring.view(units).unwrap().value(&[Value::int(1)]).as_f64(),
        3.0,
        "backfill saw the morning's sales"
    );
    println!("\nlate-registered units_by_cust (backfilled):");
    for (key, value) in ring.view(units).unwrap().table() {
        println!("    cust {} -> {}", key[0], value);
    }

    // 5. Keep streaming: every live view stays fresh, new and old alike.
    ring.apply_batch(&[sale(1, 100, 5), refund(3, 500, 1)])
        .expect("stream ingests");
    assert_eq!(
        ring.view(units).unwrap().value(&[Value::int(1)]).as_f64(),
        8.0
    );
    assert_eq!(
        ring.view(refunds).unwrap().value(&[Value::int(3)]).as_f64(),
        500.0
    );

    // 6. Drop what is no longer needed; later updates stop paying for it.
    ring.drop_view(orders).expect("live view drops");
    ring.apply(&sale(4, 50, 1)).expect("stream ingests");
    println!(
        "\nafter dropping orders_by_cust the ring hosts {} views; revenue(4) = {}",
        ring.len(),
        ring.view(revenue).unwrap().value(&[Value::int(4)])
    );

    // 7. Per-view accounting: routed dispatch means the refunds view only ever paid
    //    for Returns updates.
    let refund_updates = ring.view(refunds).unwrap().stats().updates;
    println!("refunds_by_cust processed {refund_updates} updates (only the Returns stream)");
    assert_eq!(refund_updates, 2);
}

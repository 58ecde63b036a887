//! The row index's keys spread over its hash table. A hashbrown table
//! starts probing a key at bucket `hash & mask` and scans one 16-slot
//! group there, so a probe start that holds more than 16 of the index's
//! keys makes every lookup of them scan past a full group.

use std::hash::BuildHasher;

use trail_db::TableId;
use trail_sim::FastState;
use trail_tpcc::schema::{key, table};
use trail_tpcc::Scale;

/// Orders each district takes on beyond the initial ones, as a long run
/// would: each adds an ORDERS, a NEW-ORDER and ten ORDER-LINE keys.
const MORE_ORDERS: u64 = 1_000;

/// Every `(table, key)` that [`trail_tpcc::populate`] loads at `scale`,
/// plus [`MORE_ORDERS`] orders per district.
fn index_keys(scale: &Scale) -> Vec<(TableId, u64)> {
    let mut keys: Vec<(TableId, u64)> = (1..=scale.items)
        .map(|i| (table::ITEM, key::item(i)))
        .collect();
    let initial = u64::from(scale.initial_orders_per_district);
    for w in 1..=scale.warehouses {
        keys.push((table::WAREHOUSE, key::warehouse(w)));
        keys.extend((1..=scale.items).map(|i| (table::STOCK, key::stock(w, i))));
        for d in 1..=scale.districts {
            keys.push((table::DISTRICT, key::district(w, d)));
            keys.extend(
                (1..=scale.customers_per_district)
                    .map(|c| (table::CUSTOMER, key::customer(scale, w, d, c))),
            );
            for o in 0..initial + MORE_ORDERS {
                keys.push((table::ORDERS, key::order(w, d, o)));
                keys.extend((0..10).map(|l| (table::ORDER_LINE, key::order_line(w, d, o, l))));
                if o >= initial / 2 {
                    keys.push((table::NEW_ORDER, key::new_order(w, d, o)));
                }
            }
        }
    }
    keys
}

#[test]
fn no_probe_start_of_the_w1_index_holds_more_than_a_group() {
    const BUCKETS: usize = 1 << 20;
    const GROUP: usize = 16;
    let keys = index_keys(&Scale::standard_w1());
    assert_eq!(keys.len(), 384_511);
    let mut at = vec![0u16; BUCKETS];
    for k in &keys {
        at[FastState::default().hash_one(k) as usize & (BUCKETS - 1)] += 1;
    }
    let fullest = usize::from(*at.iter().max().expect("buckets"));
    assert!(
        fullest <= GROUP,
        "a probe start holds {fullest} keys, more than one {GROUP}-slot group"
    );
}

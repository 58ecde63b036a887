//! Transaction-profile generation and database population.
//!
//! Each profile emits the op list a real TPC-C implementation would issue
//! against the storage engine: the reads it performs, the rows it updates
//! or inserts, and the CPU it burns. Row sizes follow the spec, so the log
//! volume per transaction (~4.4 KB average with before-images) matches
//! what the paper's Berkeley DB setup produced (Table 3's group-commit
//! counts corroborate this).

use rand::rngs::SmallRng;
use rand::Rng;
use trail_db::{Op, TxnSpec};
use trail_sim::{FastMap, SimDuration};

use crate::gen::{nurand, TxnType};
use crate::schema::{key, row, row_size, table, RowImage, Scale};

/// Per-transaction-type CPU cost (a 300-MHz-Pentium-II-era pathlength;
/// the paper notes CPU time per transaction is much smaller than the
/// logging I/O delay).
#[derive(Clone, Copy, Debug)]
pub struct CpuModel {
    /// New-Order CPU.
    pub new_order: SimDuration,
    /// Payment CPU.
    pub payment: SimDuration,
    /// Order-Status CPU.
    pub order_status: SimDuration,
    /// Delivery CPU.
    pub delivery: SimDuration,
    /// Stock-Level CPU.
    pub stock_level: SimDuration,
}

impl Default for CpuModel {
    fn default() -> Self {
        CpuModel {
            new_order: SimDuration::from_micros(4_000),
            payment: SimDuration::from_micros(2_000),
            order_status: SimDuration::from_micros(2_000),
            delivery: SimDuration::from_micros(5_000),
            stock_level: SimDuration::from_micros(3_000),
        }
    }
}

/// Mutable workload state: order counters, delivery queue positions, the
/// RNG, and the CPU model.
pub struct Workload {
    scale: Scale,
    rng: SmallRng,
    cpu: CpuModel,
    next_o_id: FastMap<(u32, u32), u64>,
    next_delivery: FastMap<(u32, u32), u64>,
    history_seq: u64,
}

impl std::fmt::Debug for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workload")
            .field("scale", &self.scale)
            .finish()
    }
}

impl Workload {
    /// Creates a workload generator; `initial_orders` per district must
    /// match what [`populate`] loaded.
    pub fn new(scale: Scale, seed: u64, cpu: CpuModel) -> Self {
        let mut next_o_id = FastMap::default();
        let mut next_delivery = FastMap::default();
        for w in 1..=scale.warehouses {
            for d in 1..=scale.districts {
                next_o_id.insert((w, d), u64::from(scale.initial_orders_per_district));
                next_delivery.insert((w, d), u64::from(scale.initial_orders_per_district) / 2);
            }
        }
        Workload {
            scale,
            rng: trail_sim::rng(seed),
            cpu,
            next_o_id,
            next_delivery,
            history_seq: 0,
        }
    }

    /// The configured scale.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    fn pick_wd(&mut self) -> (u32, u32) {
        let w = self.rng.gen_range(1..=self.scale.warehouses);
        let d = self.rng.gen_range(1..=self.scale.districts);
        (w, d)
    }

    fn pick_customer(&mut self, w: u32, d: u32) -> u64 {
        let c = nurand(
            &mut self.rng,
            1023,
            259,
            1,
            u64::from(self.scale.customers_per_district),
        ) as u32;
        key::customer(&self.scale, w, d, c)
    }

    fn pick_item(&mut self) -> u32 {
        nurand(&mut self.rng, 8191, 7911, 1, u64::from(self.scale.items)) as u32
    }

    /// Draws the next transaction from the standard mix.
    pub fn next_txn(&mut self) -> (TxnType, TxnSpec) {
        let ty = TxnType::draw(&mut self.rng);
        let spec = match ty {
            TxnType::NewOrder => self.new_order(),
            TxnType::Payment => self.payment(),
            TxnType::OrderStatus => self.order_status(),
            TxnType::Delivery => self.delivery(),
            TxnType::StockLevel => self.stock_level(),
        };
        (ty, spec)
    }

    /// The New-Order profile (spec §2.4).
    pub fn new_order(&mut self) -> TxnSpec {
        let (w, d) = self.pick_wd();
        let cust = self.pick_customer(w, d);
        let ol_cnt = self.rng.gen_range(5..=15u32);
        let o = {
            let e = self.next_o_id.get_mut(&(w, d)).expect("district exists");
            let o = *e;
            *e += 1;
            o
        };
        let mut ops = vec![
            Op::Read(table::WAREHOUSE, key::warehouse(w)),
            Op::Read(table::DISTRICT, key::district(w, d)),
            Op::Read(table::CUSTOMER, cust),
        ];
        let mut line_writes = Vec::new();
        for line in 0..ol_cnt {
            let i = self.pick_item();
            ops.push(Op::Read(table::ITEM, key::item(i)));
            ops.push(Op::Read(table::STOCK, key::stock(w, i)));
            line_writes.push(Op::Write(
                table::STOCK,
                key::stock(w, i),
                row(key::stock(w, i), row_size::STOCK),
            ));
            line_writes.push(Op::Write(
                table::ORDER_LINE,
                key::order_line(w, d, o, line),
                row(key::order_line(w, d, o, line), row_size::ORDER_LINE),
            ));
        }
        ops.push(Op::Write(
            table::DISTRICT,
            key::district(w, d),
            row(key::district(w, d), row_size::DISTRICT),
        ));
        ops.push(Op::Write(
            table::ORDERS,
            key::order(w, d, o),
            row(key::order(w, d, o), row_size::ORDERS),
        ));
        ops.push(Op::Write(
            table::NEW_ORDER,
            key::new_order(w, d, o),
            row(key::new_order(w, d, o), row_size::NEW_ORDER),
        ));
        ops.extend(line_writes);
        TxnSpec {
            cpu: self.cpu.new_order,
            ops,
        }
    }

    /// The Payment profile (spec §2.5).
    pub fn payment(&mut self) -> TxnSpec {
        let (w, d) = self.pick_wd();
        let cust = self.pick_customer(w, d);
        let h = self.history_seq;
        self.history_seq += 1;
        TxnSpec {
            cpu: self.cpu.payment,
            ops: vec![
                Op::Read(table::WAREHOUSE, key::warehouse(w)),
                Op::Read(table::DISTRICT, key::district(w, d)),
                Op::Read(table::CUSTOMER, cust),
                Op::Write(
                    table::WAREHOUSE,
                    key::warehouse(w),
                    row(key::warehouse(w), row_size::WAREHOUSE),
                ),
                Op::Write(
                    table::DISTRICT,
                    key::district(w, d),
                    row(key::district(w, d), row_size::DISTRICT),
                ),
                Op::Write(table::CUSTOMER, cust, row(cust, row_size::CUSTOMER)),
                Op::Write(table::HISTORY, h, row(h, row_size::HISTORY)),
            ],
        }
    }

    /// The Order-Status profile (spec §2.6, read-only).
    pub fn order_status(&mut self) -> TxnSpec {
        let (w, d) = self.pick_wd();
        let cust = self.pick_customer(w, d);
        let newest = self.next_o_id[&(w, d)];
        let back = self.rng.gen_range(1..=10u64).min(newest.max(1));
        let o = newest.saturating_sub(back);
        let mut ops = vec![
            Op::Read(table::CUSTOMER, cust),
            Op::Read(table::ORDERS, key::order(w, d, o)),
        ];
        for line in 0..10 {
            ops.push(Op::Read(table::ORDER_LINE, key::order_line(w, d, o, line)));
        }
        TxnSpec {
            cpu: self.cpu.order_status,
            ops,
        }
    }

    /// The Delivery profile (spec §2.7): the oldest undelivered order of
    /// every district.
    pub fn delivery(&mut self) -> TxnSpec {
        let w = self.rng.gen_range(1..=self.scale.warehouses);
        let mut ops = Vec::new();
        for d in 1..=self.scale.districts {
            let oldest = {
                let e = self.next_delivery.get_mut(&(w, d)).expect("district");
                if *e >= self.next_o_id[&(w, d)] {
                    continue; // nothing undelivered in this district
                }
                let o = *e;
                *e += 1;
                o
            };
            let cust = self.pick_customer(w, d);
            ops.push(Op::Read(table::NEW_ORDER, key::new_order(w, d, oldest)));
            ops.push(Op::Delete(table::NEW_ORDER, key::new_order(w, d, oldest)));
            ops.push(Op::Write(
                table::ORDERS,
                key::order(w, d, oldest),
                row(key::order(w, d, oldest), row_size::ORDERS),
            ));
            for line in 0..10 {
                ops.push(Op::Write(
                    table::ORDER_LINE,
                    key::order_line(w, d, oldest, line),
                    row(key::order_line(w, d, oldest, line), row_size::ORDER_LINE),
                ));
            }
            ops.push(Op::Write(
                table::CUSTOMER,
                cust,
                row(cust, row_size::CUSTOMER),
            ));
        }
        TxnSpec {
            cpu: self.cpu.delivery,
            ops,
        }
    }

    /// The Stock-Level profile (spec §2.8, read-only): lines of the last
    /// orders joined with their stock rows (thinned from the spec's 200
    /// lines to bound read volume; see `DESIGN.md`).
    pub fn stock_level(&mut self) -> TxnSpec {
        let (w, d) = self.pick_wd();
        let newest = self.next_o_id[&(w, d)];
        let mut ops = vec![Op::Read(table::DISTRICT, key::district(w, d))];
        for back in 1..=20u64 {
            let o = newest.saturating_sub(back);
            for line in 0..2 {
                ops.push(Op::Read(table::ORDER_LINE, key::order_line(w, d, o, line)));
            }
            let i = self.pick_item();
            ops.push(Op::Read(table::STOCK, key::stock(w, i)));
        }
        TxnSpec {
            cpu: self.cpu.stock_level,
            ops,
        }
    }
}

/// Populates the database with the initial TPC-C image (untimed "restore
/// from backup"). Returns the page images the caller must place on the
/// devices and warm into the cache.
pub fn populate(db: &trail_db::Database, scale: &Scale) -> Vec<(trail_db::PageId, Vec<u8>)> {
    // A keyed row, on the stack.
    let r = |key: u64, size: usize| (key, RowImage::new(key, size));
    let mut images = Vec::new();
    images.extend(db.load(
        table::ITEM,
        (1..=scale.items).map(|i| r(key::item(i), row_size::ITEM)),
    ));
    for w in 1..=scale.warehouses {
        images.extend(db.load(
            table::WAREHOUSE,
            [r(key::warehouse(w), row_size::WAREHOUSE)],
        ));
        images.extend(db.load(
            table::STOCK,
            (1..=scale.items).map(|i| r(key::stock(w, i), row_size::STOCK)),
        ));
        for d in 1..=scale.districts {
            images.extend(db.load(
                table::DISTRICT,
                [r(key::district(w, d), row_size::DISTRICT)],
            ));
            images.extend(
                db.load(
                    table::CUSTOMER,
                    (1..=scale.customers_per_district)
                        .map(|c| r(key::customer(scale, w, d, c), row_size::CUSTOMER)),
                ),
            );
            let orders = u64::from(scale.initial_orders_per_district);
            images.extend(db.load(
                table::ORDERS,
                (0..orders).map(|o| r(key::order(w, d, o), row_size::ORDERS)),
            ));
            images.extend(db.load(
                table::ORDER_LINE,
                (0..orders).flat_map(|o| {
                    (0..10u32).map(move |l| r(key::order_line(w, d, o, l), row_size::ORDER_LINE))
                }),
            ));
            images.extend(db.load(
                table::NEW_ORDER,
                (orders / 2..orders).map(|o| r(key::new_order(w, d, o), row_size::NEW_ORDER)),
            ));
        }
    }
    images
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload() -> Workload {
        Workload::new(Scale::tiny(), 11, CpuModel::default())
    }

    #[test]
    fn new_order_shape() {
        let mut w = workload();
        let spec = w.new_order();
        let reads = spec
            .ops
            .iter()
            .filter(|o| matches!(o, Op::Read(..)))
            .count();
        let writes = spec
            .ops
            .iter()
            .filter(|o| matches!(o, Op::Write(..)))
            .count();
        // 3 + 2·ol_cnt reads; 3 + 2·ol_cnt writes, ol_cnt in 5..=15.
        assert!((13..=33).contains(&reads), "reads {reads}");
        assert!((13..=33).contains(&writes), "writes {writes}");
        assert!(!spec.cpu.is_zero());
    }

    #[test]
    fn order_ids_advance_per_district() {
        let mut w = workload();
        let before: u64 = w.next_o_id.values().sum();
        for _ in 0..10 {
            w.new_order();
        }
        let after: u64 = w.next_o_id.values().sum();
        assert_eq!(after - before, 10);
    }

    #[test]
    fn payment_writes_history_with_fresh_keys() {
        let mut w = workload();
        let a = w.payment();
        let b = w.payment();
        let hkey = |s: &TxnSpec| {
            s.ops
                .iter()
                .find_map(|o| match o {
                    Op::Write(t, k, _) if *t == table::HISTORY => Some(*k),
                    _ => None,
                })
                .expect("payment writes history")
        };
        assert_ne!(hkey(&a), hkey(&b));
    }

    #[test]
    fn delivery_consumes_new_orders() {
        let mut w = workload();
        let spec = w.delivery();
        let deletes = spec
            .ops
            .iter()
            .filter(|o| matches!(o, Op::Delete(t, _) if *t == table::NEW_ORDER))
            .count();
        assert_eq!(deletes, w.scale.districts as usize);
        // Eventually the backlog drains and deliveries shrink.
        for _ in 0..100 {
            w.delivery();
        }
        let late = w.delivery();
        assert!(late.ops.len() <= spec.ops.len());
    }

    #[test]
    fn read_only_profiles_write_nothing() {
        let mut w = workload();
        for spec in [w.order_status(), w.stock_level()] {
            assert!(
                spec.ops.iter().all(|o| matches!(o, Op::Read(..))),
                "read-only profile wrote"
            );
        }
    }

    #[test]
    fn workload_is_deterministic_per_seed() {
        let mut a = Workload::new(Scale::tiny(), 5, CpuModel::default());
        let mut b = Workload::new(Scale::tiny(), 5, CpuModel::default());
        for _ in 0..20 {
            let (ta, sa) = a.next_txn();
            let (tb, sb) = b.next_txn();
            assert_eq!(ta, tb);
            assert_eq!(sa.ops.len(), sb.ops.len());
        }
    }
}

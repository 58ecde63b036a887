//! The TPC-C schema: table ids, row sizes, and composite-key encodings.
//!
//! Row payloads are synthetic (the experiments measure I/O, not SQL), but
//! their *sizes* follow the TPC-C specification's average row widths, so
//! log volume and page counts match a real kit's.

use trail_db::TableId;

/// TPC-C tables.
pub mod table {
    use super::TableId;
    /// WAREHOUSE.
    pub const WAREHOUSE: TableId = 0;
    /// DISTRICT.
    pub const DISTRICT: TableId = 1;
    /// CUSTOMER.
    pub const CUSTOMER: TableId = 2;
    /// ITEM.
    pub const ITEM: TableId = 3;
    /// STOCK.
    pub const STOCK: TableId = 4;
    /// ORDERS.
    pub const ORDERS: TableId = 5;
    /// ORDER-LINE.
    pub const ORDER_LINE: TableId = 6;
    /// NEW-ORDER.
    pub const NEW_ORDER: TableId = 7;
    /// HISTORY.
    pub const HISTORY: TableId = 8;
}

/// Average row widths in bytes (per the TPC-C specification's row
/// layouts).
pub mod row_size {
    /// WAREHOUSE row.
    pub const WAREHOUSE: usize = 89;
    /// DISTRICT row.
    pub const DISTRICT: usize = 95;
    /// CUSTOMER row.
    pub const CUSTOMER: usize = 655;
    /// ITEM row.
    pub const ITEM: usize = 82;
    /// STOCK row.
    pub const STOCK: usize = 306;
    /// ORDERS row.
    pub const ORDERS: usize = 24;
    /// ORDER-LINE row.
    pub const ORDER_LINE: usize = 54;
    /// NEW-ORDER row.
    pub const NEW_ORDER: usize = 8;
    /// HISTORY row.
    pub const HISTORY: usize = 46;
}

/// Scale parameters. `standard_w1()` matches the paper's w = 1 run;
/// `tiny()` is for fast tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scale {
    /// Warehouses (the paper uses 1).
    pub warehouses: u32,
    /// Districts per warehouse (spec: 10).
    pub districts: u32,
    /// Customers per district (spec: 3000).
    pub customers_per_district: u32,
    /// Items in the catalog (spec: 100 000).
    pub items: u32,
    /// Initial orders per district (spec: 3000; fewer keeps population
    /// memory modest while preserving access patterns).
    pub initial_orders_per_district: u32,
}

impl Scale {
    /// The paper's configuration: one warehouse at full spec scale except
    /// the initial order backlog, which is thinned (it only seeds
    /// Order-Status/Stock-Level reads).
    pub fn standard_w1() -> Self {
        Scale {
            warehouses: 1,
            districts: 10,
            customers_per_district: 3000,
            items: 100_000,
            initial_orders_per_district: 300,
        }
    }

    /// A miniature configuration for unit tests.
    pub fn tiny() -> Self {
        Scale {
            warehouses: 1,
            districts: 2,
            customers_per_district: 30,
            items: 200,
            initial_orders_per_district: 10,
        }
    }

    /// Total customers.
    pub fn total_customers(&self) -> u64 {
        u64::from(self.warehouses)
            * u64::from(self.districts)
            * u64::from(self.customers_per_district)
    }
}

/// Key encodings: composite TPC-C keys packed into `u64`.
pub mod key {
    use super::Scale;

    /// WAREHOUSE(w).
    pub fn warehouse(w: u32) -> u64 {
        u64::from(w)
    }

    /// DISTRICT(w, d).
    pub fn district(w: u32, d: u32) -> u64 {
        u64::from(w) * 100 + u64::from(d)
    }

    /// CUSTOMER(w, d, c).
    pub fn customer(scale: &Scale, w: u32, d: u32, c: u32) -> u64 {
        district(w, d) * u64::from(scale.customers_per_district.max(1)) * 2 + u64::from(c)
    }

    /// ITEM(i).
    pub fn item(i: u32) -> u64 {
        u64::from(i)
    }

    /// STOCK(w, i).
    pub fn stock(w: u32, i: u32) -> u64 {
        u64::from(w) * 1_000_000 + u64::from(i)
    }

    /// ORDERS(w, d, o).
    pub fn order(w: u32, d: u32, o: u64) -> u64 {
        (district(w, d) << 40) | o
    }

    /// ORDER-LINE(w, d, o, line).
    pub fn order_line(w: u32, d: u32, o: u64, line: u32) -> u64 {
        (order(w, d, o) << 4) | u64::from(line & 0xF)
    }

    /// NEW-ORDER(w, d, o).
    pub fn new_order(w: u32, d: u32, o: u64) -> u64 {
        order(w, d, o)
    }
}

/// A synthetic row image: `size` bytes stamped with the key so data flows
/// are distinguishable in tests.
pub fn row(key: u64, size: usize) -> Vec<u8> {
    RowImage::new(key, size).as_ref().to_vec()
}

/// [`row`]'s bytes held on the stack, up to the widest row (CUSTOMER's):
/// what a bulk load passes, a few hundred thousand rows without an
/// allocation each.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RowImage {
    bytes: [u8; row_size::CUSTOMER],
    len: usize,
}

impl RowImage {
    /// The row of `key`, `size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `size` exceeds the widest TPC-C row.
    pub(crate) fn new(key: u64, size: usize) -> Self {
        let mut bytes = [(key % 251) as u8; row_size::CUSTOMER];
        let stamp = key.to_le_bytes();
        let n = stamp.len().min(size);
        bytes[..n].copy_from_slice(&stamp[..n]);
        RowImage { bytes, len: size }
    }
}

impl AsRef<[u8]> for RowImage {
    fn as_ref(&self) -> &[u8] {
        &self.bytes[..self.len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_unique_within_and_across_tables_scope() {
        let s = Scale::tiny();
        let mut seen = std::collections::HashSet::new();
        for w in 1..=s.warehouses {
            for d in 1..=s.districts {
                assert!(seen.insert(key::district(w, d)));
                for c in 1..=s.customers_per_district {
                    assert!(seen.insert(key::customer(&s, w, d, c)), "cust {w}/{d}/{c}");
                }
                for o in 0..20u64 {
                    assert!(seen.insert(key::order(w, d, o)));
                    for l in 0..15 {
                        assert!(seen.insert(key::order_line(w, d, o, l)), "ol {o}/{l}");
                    }
                }
            }
        }
    }

    #[test]
    fn stock_keys_do_not_collide_across_warehouses() {
        assert_ne!(key::stock(1, 5), key::stock(2, 5));
        assert_ne!(key::stock(1, 5), key::stock(1, 6));
    }

    #[test]
    fn row_is_stamped_and_sized() {
        let r = row(0xABCD, 100);
        assert_eq!(r.len(), 100);
        assert_eq!(u16::from_le_bytes([r[0], r[1]]), 0xABCD);
    }

    #[test]
    fn standard_scale_matches_spec() {
        let s = Scale::standard_w1();
        assert_eq!(s.total_customers(), 30_000);
        assert_eq!(s.items, 100_000);
    }
}

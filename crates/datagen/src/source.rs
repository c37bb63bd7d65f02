//! The TPC-H-flavoured purchase-order source schema and its data generator.
//!
//! The source schema has 8 relations and 46 attributes, like the relational rendering of TPC-H
//! the paper feeds to COMA++.  Attribute names are chosen so that (i) every attribute name is
//! globally unique (which makes the "minimal covering set of source relations" of the
//! reformulation rules unambiguous) and (ii) several source attributes are plausible matches
//! for each target attribute the workload uses (phones, addresses, prices, order numbers…),
//! which is what makes the generated mapping sets genuinely ambiguous — the phenomenon the
//! paper's algorithms exploit.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use urm_matching::SchemaDef;
use urm_storage::{Attribute, Catalog, DataType, Relation, Schema, Tuple, Value};

/// Constants planted into the generated data so that the workload's selection predicates
/// (Table III) have matching rows.
pub mod planted {
    /// The telephone number used by Q1, Q5, Q6 and Q9.
    pub const TELEPHONE: &str = "335-1736";
    /// The person used by Q1, Q6, Q8 and Q10.
    pub const PERSON: &str = "Mary";
    /// The company / address literal used by Q5, Q8, Q9 and Q10.
    pub const COMPANY: &str = "ABC";
    /// The street used by Q5, Q6 and Q7.
    pub const STREET: &str = "Central";
    /// The item / order number used by Q2, Q3, Q4, Q7 and Q9.
    pub const NUMBER: &str = "00001";
    /// The priority used by Q1.
    pub const PRIORITY: i64 = 2;
}

/// The matcher-facing description of the source schema (8 relations, 46 attributes).
#[must_use]
pub fn source_schema_def() -> SchemaDef {
    SchemaDef::new("TPCH")
        .with_relation(
            "Orders",
            [
                "orderNum",
                "orderDate",
                "orderStatus",
                "totalPrice",
                "orderPriority",
                "clerk",
            ],
        )
        .with_relation(
            "Customer",
            [
                "custName",
                "telephone",
                "homePhone",
                "company",
                "custAddress",
                "homeAddress",
                "custNation",
            ],
        )
        .with_relation(
            "LineItem",
            [
                "itemNum",
                "itemOrderNum",
                "quantity",
                "unitPrice",
                "extendedPrice",
                "discount",
                "tax",
                "lineStatus",
            ],
        )
        .with_relation(
            "Part",
            ["partNum", "partName", "brand", "partType", "retailPrice"],
        )
        .with_relation(
            "Supplier",
            ["suppName", "suppPhone", "suppAddress", "suppNation"],
        )
        .with_relation("Nation", ["nationName", "regionName"])
        .with_relation(
            "Invoice",
            [
                "invoiceNum",
                "invoiceTo",
                "billTo",
                "billToAddress",
                "invoiceDate",
                "invoiceAmount",
            ],
        )
        .with_relation(
            "Shipment",
            [
                "shipOrderNum",
                "deliverTo",
                "deliverToStreet",
                "deliverToCity",
                "shipMode",
                "shipDate",
                "shipToPhone",
                "shipToAddress",
            ],
        )
}

fn order_number(i: usize) -> String {
    format!("{:05}", (i % 400) + 1)
}

/// Deterministic Zipf(s=1) rank in `1..=n` for row `i` — the source of the *skewed* join keys
/// (`LineItem.quantity`) the `skew:N` workload family joins on.  Rank `r` receives probability
/// mass proportional to `1/r`, so rank 1 alone carries ~22% of the rows at `n = 50`: exactly
/// the head-heavy key distribution a static uniform cardinality estimate mis-sizes.
///
/// The row index is mixed with a fixed 64-bit finalizer instead of drawing from the generator's
/// `StdRng` so the change is invisible to every *other* column: the RNG consumption sequence —
/// and therefore all previously generated data — stays byte-identical per seed.
fn zipf_rank(n: usize, i: usize) -> usize {
    let mut x = (i as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    let u = (x >> 11) as f64 / (1u64 << 53) as f64;
    let total: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
    let mut acc = 0.0;
    for r in 1..=n {
        acc += 1.0 / (r as f64 * total);
        if u < acc {
            return r;
        }
    }
    n
}

fn person_name(rng: &mut StdRng, planted_every: usize, i: usize) -> Value {
    if i.is_multiple_of(planted_every) {
        Value::from(planted::PERSON)
    } else {
        Value::from(format!("person{}", rng.gen_range(0..10_000)))
    }
}

fn phone(rng: &mut StdRng, planted_every: usize, i: usize) -> Value {
    if i.is_multiple_of(planted_every) {
        Value::from(planted::TELEPHONE)
    } else {
        Value::from(format!(
            "{:03}-{:04}",
            rng.gen_range(200..999),
            rng.gen_range(0..9999)
        ))
    }
}

fn street(rng: &mut StdRng, planted_every: usize, i: usize) -> Value {
    if i.is_multiple_of(planted_every) {
        Value::from(planted::STREET)
    } else {
        Value::from(format!("{} Road", rng.gen_range(1..500)))
    }
}

fn company(rng: &mut StdRng, planted_every: usize, i: usize) -> Value {
    if i.is_multiple_of(planted_every) {
        Value::from(planted::COMPANY)
    } else {
        Value::from(format!("company{}", rng.gen_range(0..5_000)))
    }
}

/// Generates the source instance `D` at the given scale.
///
/// `scale` controls row counts: `Orders` and `Invoice`/`Shipment` get `2 × scale` rows,
/// `Customer` and `Part` get `scale`, `LineItem` gets `4 × scale`.  The same seed always
/// produces the same catalog.
#[must_use]
pub fn generate_source(scale: usize, seed: u64) -> Catalog {
    let scale = scale.max(1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut catalog = Catalog::new();

    // Orders
    let schema = Schema::new(
        "Orders",
        vec![
            Attribute::new("orderNum", DataType::Text),
            Attribute::new("orderDate", DataType::Text),
            Attribute::new("orderStatus", DataType::Text),
            Attribute::new("totalPrice", DataType::Float),
            Attribute::new("orderPriority", DataType::Int),
            Attribute::new("clerk", DataType::Text),
        ],
    );
    let mut rel = Relation::empty(schema);
    for i in 0..(2 * scale) {
        rel.push_unchecked(Tuple::new(vec![
            Value::from(order_number(i)),
            Value::from(format!("2011-{:02}-{:02}", (i % 12) + 1, (i % 28) + 1)),
            Value::from(if i % 3 == 0 { "OPEN" } else { "DONE" }),
            Value::from(rng.gen_range(10.0..10_000.0)),
            Value::from((i % 5) as i64 + 1),
            Value::from(format!("clerk{}", i % 50)),
        ]));
    }
    catalog.insert(rel);

    // Customer
    let schema = Schema::new(
        "Customer",
        vec![
            Attribute::new("custName", DataType::Text),
            Attribute::new("telephone", DataType::Text),
            Attribute::new("homePhone", DataType::Text),
            Attribute::new("company", DataType::Text),
            Attribute::new("custAddress", DataType::Text),
            Attribute::new("homeAddress", DataType::Text),
            Attribute::new("custNation", DataType::Text),
        ],
    );
    let mut rel = Relation::empty(schema);
    for i in 0..scale {
        rel.push_unchecked(Tuple::new(vec![
            person_name(&mut rng, 9, i),
            phone(&mut rng, 7, i),
            phone(&mut rng, 11, i + 3),
            company(&mut rng, 6, i),
            street(&mut rng, 8, i),
            street(&mut rng, 13, i + 5),
            Value::from(format!("nation{}", i % 25)),
        ]));
    }
    catalog.insert(rel);

    // LineItem
    let schema = Schema::new(
        "LineItem",
        vec![
            Attribute::new("itemNum", DataType::Text),
            Attribute::new("itemOrderNum", DataType::Text),
            Attribute::new("quantity", DataType::Int),
            Attribute::new("unitPrice", DataType::Float),
            Attribute::new("extendedPrice", DataType::Float),
            Attribute::new("discount", DataType::Float),
            Attribute::new("tax", DataType::Float),
            Attribute::new("lineStatus", DataType::Text),
        ],
    );
    let mut rel = Relation::empty(schema);
    for i in 0..(4 * scale) {
        let qty = zipf_rank(50, i) as i64;
        let unit = rng.gen_range(1.0..500.0f64);
        rel.push_unchecked(Tuple::new(vec![
            Value::from(format!("{:05}", (i % 60) + 1)),
            Value::from(order_number(i / 2)),
            Value::from(qty),
            Value::from((unit * 100.0).round() / 100.0),
            Value::from((unit * qty as f64 * 100.0).round() / 100.0),
            Value::from(rng.gen_range(0.0..0.1)),
            Value::from(0.08),
            Value::from(if i % 2 == 0 { "F" } else { "O" }),
        ]));
    }
    catalog.insert(rel);

    // Part
    let schema = Schema::new(
        "Part",
        vec![
            Attribute::new("partNum", DataType::Text),
            Attribute::new("partName", DataType::Text),
            Attribute::new("brand", DataType::Text),
            Attribute::new("partType", DataType::Text),
            Attribute::new("retailPrice", DataType::Float),
        ],
    );
    let mut rel = Relation::empty(schema);
    for i in 0..scale {
        rel.push_unchecked(Tuple::new(vec![
            Value::from(format!("{:05}", (i % 60) + 1)),
            Value::from(format!("part{}", i)),
            Value::from(format!("Brand#{}", i % 5)),
            Value::from(if i % 2 == 0 { "STANDARD" } else { "PROMO" }),
            Value::from(rng.gen_range(1.0..900.0)),
        ]));
    }
    catalog.insert(rel);

    // Supplier
    let schema = Schema::new(
        "Supplier",
        vec![
            Attribute::new("suppName", DataType::Text),
            Attribute::new("suppPhone", DataType::Text),
            Attribute::new("suppAddress", DataType::Text),
            Attribute::new("suppNation", DataType::Text),
        ],
    );
    let mut rel = Relation::empty(schema);
    for i in 0..(scale / 2 + 1) {
        rel.push_unchecked(Tuple::new(vec![
            Value::from(format!("supplier{}", i)),
            phone(&mut rng, 17, i),
            street(&mut rng, 19, i + 2),
            Value::from(format!("nation{}", i % 25)),
        ]));
    }
    catalog.insert(rel);

    // Nation
    let schema = Schema::new(
        "Nation",
        vec![
            Attribute::new("nationName", DataType::Text),
            Attribute::new("regionName", DataType::Text),
        ],
    );
    let mut rel = Relation::empty(schema);
    for i in 0..25 {
        rel.push_unchecked(Tuple::new(vec![
            Value::from(format!("nation{}", i)),
            Value::from(format!("region{}", i % 5)),
        ]));
    }
    catalog.insert(rel);

    // Invoice
    let schema = Schema::new(
        "Invoice",
        vec![
            Attribute::new("invoiceNum", DataType::Text),
            Attribute::new("invoiceTo", DataType::Text),
            Attribute::new("billTo", DataType::Text),
            Attribute::new("billToAddress", DataType::Text),
            Attribute::new("invoiceDate", DataType::Text),
            Attribute::new("invoiceAmount", DataType::Float),
        ],
    );
    let mut rel = Relation::empty(schema);
    for i in 0..(2 * scale) {
        rel.push_unchecked(Tuple::new(vec![
            Value::from(order_number(i)),
            person_name(&mut rng, 5, i),
            person_name(&mut rng, 8, i + 1),
            company(&mut rng, 7, i),
            Value::from(format!("2011-{:02}-{:02}", (i % 12) + 1, (i % 28) + 1)),
            Value::from(rng.gen_range(10.0..9_999.0)),
        ]));
    }
    catalog.insert(rel);

    // Shipment
    let schema = Schema::new(
        "Shipment",
        vec![
            Attribute::new("shipOrderNum", DataType::Text),
            Attribute::new("deliverTo", DataType::Text),
            Attribute::new("deliverToStreet", DataType::Text),
            Attribute::new("deliverToCity", DataType::Text),
            Attribute::new("shipMode", DataType::Text),
            Attribute::new("shipDate", DataType::Text),
            Attribute::new("shipToPhone", DataType::Text),
            Attribute::new("shipToAddress", DataType::Text),
        ],
    );
    let mut rel = Relation::empty(schema);
    for i in 0..(2 * scale) {
        rel.push_unchecked(Tuple::new(vec![
            Value::from(order_number(i)),
            person_name(&mut rng, 6, i),
            street(&mut rng, 5, i),
            Value::from(format!("city{}", i % 40)),
            Value::from(if i % 2 == 0 { "AIR" } else { "TRUCK" }),
            Value::from(format!("2011-{:02}-{:02}", (i % 12) + 1, (i % 28) + 1)),
            phone(&mut rng, 9, i),
            company(&mut rng, 8, i + 2),
        ]));
    }
    catalog.insert(rel);

    catalog
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_def_has_8_relations_and_46_attributes() {
        let def = source_schema_def();
        assert_eq!(def.relations().len(), 8);
        assert_eq!(def.attribute_count(), 46);
    }

    #[test]
    fn schema_def_attribute_names_are_globally_unique() {
        let def = source_schema_def();
        let attrs = def.all_attributes();
        let mut names: Vec<&str> = attrs.iter().map(|a| a.attr.as_str()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }

    #[test]
    fn generated_catalog_matches_schema_def() {
        let def = source_schema_def();
        let catalog = generate_source(20, 1);
        assert_eq!(catalog.len(), 8);
        for (relation, attrs) in def.relations() {
            let rel = catalog.get(relation).expect("relation generated");
            assert_eq!(rel.schema().arity(), attrs.len(), "{relation}");
            for a in attrs {
                assert!(rel.schema().contains(a), "{relation}.{a}");
            }
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed_and_scales_with_scale() {
        let a = generate_source(10, 42);
        let b = generate_source(10, 42);
        assert_eq!(a.total_tuples(), b.total_tuples());
        assert_eq!(
            a.get("Customer").unwrap().rows(),
            b.get("Customer").unwrap().rows()
        );
        let big = generate_source(40, 42);
        assert!(big.total_tuples() > a.total_tuples() * 3);
        assert!(big.estimated_bytes() > a.estimated_bytes());
    }

    #[test]
    fn quantity_is_zipf_skewed() {
        // Rank 1 must dominate: at Zipf(s=1) over 50 ranks its share is ~22%, an order of
        // magnitude above the uniform 2% — the skew the `skew:N` join family relies on.
        let catalog = generate_source(200, 3);
        let rel = catalog.get("LineItem").unwrap();
        let qty = rel.column("quantity").unwrap();
        let ones = qty.iter().filter(|v| **v == Value::from(1i64)).count();
        let total = qty.len();
        assert!(
            ones * 100 >= total * 15,
            "rank-1 share {ones}/{total} is not head-heavy"
        );
        assert!(qty.iter().all(|v| {
            let q = v.as_i64().unwrap();
            (1..=50).contains(&q)
        }));
    }

    #[test]
    fn planted_constants_appear_in_the_data() {
        let catalog = generate_source(50, 7);
        let has = |rel: &str, attr: &str, value: Value| {
            let r = catalog.get(rel).unwrap();
            let col = r.column(attr).unwrap();
            col.contains(&value)
        };
        assert!(has(
            "Customer",
            "telephone",
            Value::from(planted::TELEPHONE)
        ));
        assert!(has("Invoice", "invoiceTo", Value::from(planted::PERSON)));
        assert!(has(
            "Invoice",
            "billToAddress",
            Value::from(planted::COMPANY)
        ));
        assert!(has(
            "Shipment",
            "deliverToStreet",
            Value::from(planted::STREET)
        ));
        assert!(has("Orders", "orderNum", Value::from(planted::NUMBER)));
        assert!(has("LineItem", "itemNum", Value::from(planted::NUMBER)));
        assert!(has(
            "Orders",
            "orderPriority",
            Value::from(planted::PRIORITY)
        ));
    }
}

//! Property tests: the direct answer renderer against the tree-building one it replaced.
//!
//! [`write_answer`] writes an answer's document straight into a buffer — rows of value ids in
//! rank order, one escaped fragment per distinct value, a memo for the label-independent part.
//! The reference here is the renderer the server used before, and shares none of that: take
//! the answer's `(tuple, probability)` pairs, sort them *here* by probability and then by the
//! tuples' own order, build a [`Json`] tree (one `String` per tuple, through `Display`) and
//! print it character by character.  The two must agree byte for byte — the e2e benchmark and
//! `http_bench` compare bytes — over text that needs every kind of escape, over probabilities
//! in every `f64` shape, and over labels that need escaping themselves; and what is rendered
//! must parse back to itself.
//!
//! A third of the answers are built the way the server's are: `aggregate` over clusters, each
//! the product of up to three factors — late-materialized views or row results, each over its
//! own base columns (its own dictionaries, its own codes) — drawn from one pool, so clusters
//! share factors, and read through the cluster's own extraction.  The others are grown one
//! addition at a time, mixed: `add_distinct` over a whole late-materialized or row result, and
//! plain `add`.  Across them: `Int`/`Float` twins, `-0.0` and NaN, NULL cells and uncovered
//! positions, rows of different arities in one answer; half of them with every hash forced
//! equal.

use proptest::prelude::*;
use proptest::TestRng;
use std::sync::Arc;
use urm_core::answer::{aggregate, aggregate_with_colliding_hashes, Cluster};
use urm_core::reformulate::{extract_answers, Extraction};
use urm_core::ProbabilisticAnswer;
use urm_server::wire::{answer_json, write_answer};
use urm_server::Json;
use urm_storage::{
    Attribute, ColumnView, ColumnarRelation, DataType, Relation, Schema, Tuple, Value,
};

/// Text with quotes, backslashes, every control-character class, multi-byte UTF-8 (two, three
/// and four bytes), DEL (not escaped), and nothing at all.
const TEXTS: [&str; 12] = [
    "",
    "plain",
    "say \"hi\"",
    "back\\slash\\",
    "\n\r\t",
    "\u{0}\u{1}\u{8}\u{c}\u{1f}",
    "é ✓ 𝄞",
    "\"",
    "a\u{7f}b",
    "mixed \"é\\\u{1}✓\n",
    "\\u0041",
    "trailing\\",
];

/// Probabilities: ties, integral values (`1.0`, `3.0` keep their `.0`), a subnormal, the
/// smallest normal, a huge one, one with seventeen digits, and one with no JSON form.
const PROBABILITIES: [f64; 10] = [
    0.5,
    0.5,
    0.25,
    1.0,
    3.0,
    5e-324,
    f64::MIN_POSITIVE,
    1e300,
    0.1 + 0.2,
    f64::INFINITY,
];

fn value(rng: &mut TestRng) -> Value {
    match rng.index(6) {
        0 => Value::Null,
        1 => Value::from(rng.index(5) as i64 - 2),
        // `1.0` and `-2.0` are the `Int`s of the arm above, spelled otherwise.
        2 => Value::Float([-0.0, 0.5, f64::NAN, 1e21, 1.0, -2.0][rng.index(6)]),
        3 => Value::from(rng.index(2) == 0),
        _ => Value::from(TEXTS[rng.index(TEXTS.len())]),
    }
}

/// One source-query result of up to six rows over one to three columns named `{prefix}0`,
/// `{prefix}1`, …, late-materialized or rows.  Every call converts its own relation, so a
/// string two calls share has two dictionaries and two codes.
fn result(rng: &mut TestRng, prefix: &str) -> Relation {
    let width = 1 + rng.index(3);
    let attributes = (0..width).map(|c| Attribute::new(format!("{prefix}{c}"), DataType::Null));
    let schema = Schema::new("R", attributes.collect());
    let rows = (0..rng.index(7)).map(|_| (0..width).map(|_| value(rng)).collect());
    let result = Relation::from_validated(schema.clone(), rows.collect());
    if rng.index(2) == 0 {
        let columns = ColumnarRelation::from_relation(&result);
        return Relation::from_view(schema, ColumnView::from_base(Arc::new(columns)));
    }
    result
}

/// An extraction over `results`: up to three columns of theirs in any order, repeated or left
/// uncovered, or the whole row.
fn extraction(rng: &mut TestRng, results: &[&Relation]) -> Extraction {
    if rng.index(4) == 0 {
        return Extraction::Raw;
    }
    let columns = (0..rng.index(4)).map(|_| {
        let schema = results[rng.index(results.len())].schema();
        let name = &schema.attributes()[rng.index(schema.arity())].name;
        (rng.index(4) > 0).then(|| name.clone())
    });
    Extraction::Columns(columns.collect())
}

/// One whole result added to `answer` through an extraction of its own.
fn add_result(rng: &mut TestRng, answer: &mut ProbabilisticAnswer) {
    let result = result(rng, "c");
    let extraction = extraction(rng, &[&result]);
    let probability = PROBABILITIES[rng.index(PROBABILITIES.len())];
    answer.add_distinct(extract_answers(&result, &extraction), probability);
}

/// [`aggregate`] over up to five clusters, each the product of one to three distinct factors
/// of a pool of four, in any order, read through an extraction of its own.
fn aggregated(rng: &mut TestRng) -> ProbabilisticAnswer {
    let pool: Vec<Relation> = (0..4).map(|f| result(rng, &format!("f{f}c"))).collect();
    let mut products = Vec::new();
    for _ in 0..rng.index(6) {
        let mut factors: Vec<&Relation> = pool.iter().collect();
        while factors.len() > 3 || (factors.len() > 1 && rng.index(2) == 0) {
            factors.swap_remove(rng.index(factors.len()));
        }
        let extraction = extraction(rng, &factors);
        let probability = PROBABILITIES[rng.index(PROBABILITIES.len())];
        products.push((probability, factors, extraction));
    }
    let clusters: Vec<Cluster<'_>> = (products.iter())
        .map(|(probability, factors, extraction)| Cluster {
            probability: *probability,
            extraction,
            factors: factors.clone(),
        })
        .collect();
    match rng.index(2) {
        0 => aggregate(&clusters, 0.0).0,
        _ => aggregate_with_colliding_hashes(&clusters, 0.0).0,
    }
}

/// An aggregated answer, or up to a dozen additions — a tuple of up to three values, or a
/// whole result — so that tuples collide and probabilities add up; sometimes none at all; with
/// or without empty mass, including a `-0.0` one.
fn answer(rng: &mut TestRng) -> ProbabilisticAnswer {
    let (mut answer, additions) = match rng.index(3) {
        0 => (ProbabilisticAnswer::new(), rng.index(13)),
        1 => (ProbabilisticAnswer::with_colliding_hashes(), rng.index(13)),
        _ => (aggregated(rng), 0),
    };
    for _ in 0..additions {
        if rng.index(2) == 0 {
            add_result(rng, &mut answer);
        } else {
            let tuple: Tuple = (0..rng.index(4)).map(|_| value(rng)).collect();
            answer.add(tuple, PROBABILITIES[rng.index(PROBABILITIES.len())]);
        }
    }
    match rng.index(3) {
        0 => {}
        1 => answer.add_empty(-0.0),
        _ => answer.add_empty(PROBABILITIES[rng.index(9)]),
    }
    answer
}

/// The answers in wire order, decided on the tuples themselves.
fn sorted(answer: &ProbabilisticAnswer) -> Vec<(&Tuple, f64)> {
    let mut pairs: Vec<(&Tuple, f64)> = answer.iter().collect();
    pairs.sort_by(|a, b| (b.1.total_cmp(&a.1)).then(a.0.cmp(b.0)));
    pairs
}

/// The tree the server used to build per response.
fn reference_tree(label: &str, answer: &ProbabilisticAnswer) -> Json {
    Json::obj([
        ("label", Json::Str(label.to_string())),
        (
            "tuples",
            Json::Arr(
                sorted(answer)
                    .into_iter()
                    .map(|(tuple, p)| Json::Arr(vec![Json::Str(tuple.to_string()), Json::Num(p)]))
                    .collect(),
            ),
        ),
        ("empty_probability", Json::Num(answer.empty_probability())),
    ])
}

/// `Display for Json` as it was: one `push` per character.
fn reference_print(json: &Json, out: &mut String) {
    let string = |s: &str, out: &mut String| {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
    };
    match json {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(&b.to_string()),
        Json::Num(n) if n.is_finite() => out.push_str(&format!("{n:?}")),
        Json::Num(_) => out.push_str("null"),
        Json::Str(s) => string(s, out),
        Json::Raw(rendered) => out.push_str(rendered),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                reference_print(item, out);
            }
            out.push(']');
        }
        Json::Obj(pairs) => {
            out.push('{');
            for (i, (key, value)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                string(key, out);
                out.push(':');
                reference_print(value, out);
            }
            out.push('}');
        }
    }
}

fn reference(label: &str, answer: &ProbabilisticAnswer) -> String {
    let mut out = String::new();
    reference_print(&reference_tree(label, answer), &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn direct_renderer_is_the_tree_renderer_byte_for_byte(seed in any::<u64>()) {
        let mut rng = TestRng::seed_from_u64(seed);
        let answer = answer(&mut rng);
        let label = TEXTS[rng.index(TEXTS.len())];
        let expected = reference(label, &answer);

        let direct = answer_json(label, &answer).to_string();
        prop_assert_eq!(&direct, &expected);
        // The tree still prints the same through the run-wise `Display for Json`.
        prop_assert_eq!(&reference_tree(label, &answer).to_string(), &expected);
        // Appending to a buffer in use — what the server does — adds exactly those bytes, now
        // from the memo.
        let mut buffer = String::from("HTTP/1.1 …\r\n\r\n,");
        write_answer(&mut buffer, label, &answer);
        prop_assert_eq!(buffer.strip_prefix("HTTP/1.1 …\r\n\r\n,"), Some(expected.as_str()));

        // What is rendered parses, and prints back to itself.
        let parsed = Json::parse(&direct).map_err(|e| format!("{e} in {direct}")).unwrap();
        prop_assert_eq!(parsed.get("label").and_then(Json::as_str), Some(label));
        let tuples = parsed.get("tuples").and_then(Json::as_arr).unwrap();
        prop_assert_eq!(tuples.len(), answer.len());
        for (rendered, (tuple, _)) in tuples.iter().zip(sorted(&answer)) {
            let text = rendered.as_arr().unwrap()[0].as_str().unwrap();
            prop_assert_eq!(text, tuple.to_string());
        }
        prop_assert_eq!(parsed.to_string(), direct);
    }

    #[test]
    fn mutating_a_rendered_answer_renders_it_again(seed in any::<u64>()) {
        let mut rng = TestRng::seed_from_u64(seed);
        let mut answer = answer(&mut rng);
        let stale = answer_json("q", &answer).to_string();
        let extra: Tuple = [Value::from("not generated")].into_iter().collect();
        match rng.index(4) {
            0 => answer.add(extra, 0.125),
            1 => {
                answer.add_distinct([extra.clone(), extra][..].into(), 0.125);
            }
            2 => answer.add_empty(1e300), // large enough to show beside any generated mass
            _ => {
                let mut other = ProbabilisticAnswer::new();
                other.add(extra, 0.125);
                answer.merge(&other);
            }
        }
        let fresh = answer_json("q", &answer).to_string();
        prop_assert_eq!(&fresh, &reference("q", &answer));
        prop_assert!(fresh != stale);
    }
}

#[test]
fn two_labels_over_one_answer_differ_only_in_the_label() {
    let mut answer = ProbabilisticAnswer::new();
    answer.add([Value::from("x\"y")].into_iter().collect(), 0.5);
    answer.add_empty(0.5);
    let shared = std::sync::Arc::new(answer);
    let plain = answer_json("Q1", &shared).to_string();
    let escaped = answer_json("Q\"1\"\n", &std::sync::Arc::clone(&shared)).to_string();
    let rest = ",\"tuples\":[[\"(x\\\"y)\",0.5]],\"empty_probability\":0.5}";
    assert_eq!(plain, format!("{{\"label\":\"Q1\"{rest}"));
    assert_eq!(escaped, format!("{{\"label\":\"Q\\\"1\\\"\\n\"{rest}"));
}

#[test]
fn empty_answers_and_negative_zero_render_like_the_tree() {
    let mut answer = ProbabilisticAnswer::new();
    assert_eq!(
        answer_json("", &answer).to_string(),
        "{\"label\":\"\",\"tuples\":[],\"empty_probability\":0.0}"
    );
    answer.add_empty(-0.0);
    assert_eq!(answer_json("", &answer).to_string(), reference("", &answer));
    // `-0.0` keeps its sign wherever a number is written.
    assert_eq!(Json::Num(-0.0).to_string(), "-0.0");
    assert_eq!(Json::Num(f64::NAN).to_string(), "null");
}

//! The wire format: workload specs in, canonically rendered answers out.
//!
//! Queries arrive as the same spec strings the replayable workload files use (`Q1`–`Q10`,
//! `sel:N`, `prod:N`, `join:N`, `scale:N`, `skew:N` — see [`urm_datagen::replay`]), so a
//! workload file replayed over HTTP and one replayed in-process by `urm-cli` are the *same*
//! request stream.  The server reads a spec with [`resolve_spec`] alone — its label and its
//! [`SpecRef`], nothing built — and answers the ref from the queries it built once, when it
//! started; [`parse_query_spec`] builds the query too, for callers without such a table.
//! Answers render through one deterministic function ([`write_answer`]): tuples in
//! [`ProbabilisticAnswer::sorted_rows`] order, probabilities in shortest-round-trip form — two
//! equal answers always produce byte-identical documents, which is what the `http_bench`
//! HTTP-vs-in-process identity assertion compares.  The renderer never sees a `Tuple`: an
//! answer is rows of ids over its own pool of distinct values, so each *value* is formatted
//! and escaped once, into a fragment, and a tuple is its fragments copied between `(`, `, `
//! and `)`.
//!
//! An epoch is immutable, so an answer's rendering is a pure function of the shared
//! `Arc<ProbabilisticAnswer>` the answer cache, in-batch dedup and every response alias.  The
//! label-independent part — everything but `"label":…` — is therefore rendered **once per
//! answer** and kept in the answer's own memo slot ([`ProbabilisticAnswer::rendered_with`]):
//! it lives exactly as long as the answer does, and a cache hit splices the label in front of
//! bytes that already exist — [`splice_answer`] lends them to the response's write, so between
//! the memo and the socket nothing copies them; [`write_answer`] and [`answer_json`] are the
//! same pieces put into one `String`.

use crate::http::Part;
use crate::json::{write_number, write_string, Escaped, Json};
use std::borrow::Cow;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use urm_core::ProbabilisticAnswer;
use urm_datagen::replay::{parse_spec, parse_spec_ref, SpecRef, WorkloadEntry};

/// Parses one workload spec (the `"spec"`/`"specs"` strings of `/query` and `/batch` bodies)
/// and builds its query.
pub fn parse_query_spec(spec: &str) -> Result<WorkloadEntry, String> {
    parse_spec(spec).map_err(|e| e.to_string())
}

/// The syntax half of [`parse_query_spec`]: the spec's label and what it names, refused in the
/// same words, with no query built.  The label is borrowed from [`SpecRef::label`] when the
/// spec is spelled canonically (`Q4`, `sel:3`), so only a spec spelled otherwise (` sel:03 `
/// keeps its label `sel:03`) copies it.
pub fn resolve_spec(spec: &str) -> Result<(Cow<'static, str>, SpecRef), String> {
    let (label, spec) = parse_spec_ref(spec).map_err(|e| e.to_string())?;
    let label = if label == spec.label() {
        Cow::Borrowed(spec.label())
    } else {
        Cow::Owned(label.to_string())
    };
    Ok((label, spec))
}

/// Appends one answer to `out` as a deterministic JSON object:
///
/// ```json
/// {"label":"Q1","tuples":[["(123)",0.5],["(456)",0.3]],"empty_probability":0.2}
/// ```
///
/// Tuples are rendered in their `Display` form (probability-descending, ties broken by tuple
/// order — [`ProbabilisticAnswer::sorted_rows`]), so equal answers render byte-identically no
/// matter which path produced them.  Every answer byte the server, [`answer_json`] and the
/// benches emit is put together by [`splice_answer`]; this is its output in one `String`.
pub fn write_answer(out: &mut String, label: &str, answer: &ProbabilisticAnswer) {
    splice_answer(&mut Part::copying(out), label, answer);
}

/// [`write_answer`] into a part of a response body: the label and the braces are written, the
/// memoised rendering is *lent* — it goes to the socket from the answer's own memo slot.  The
/// one place the document's pieces are put together, so the two cannot diverge.
pub fn splice_answer<'a>(out: &mut Part<'_, 'a>, label: &str, answer: &'a ProbabilisticAnswer) {
    out.push_str("{\"label\":");
    write_string(out, label).expect("writing to a String cannot fail");
    out.push(',');
    out.lend(answer.rendered_with(render_unlabelled));
    out.push('}');
}

/// [`write_answer`] as a [`Json`] value (a pre-rendered [`Json::Raw`] fragment), for callers
/// that embed the answer in a larger tree or just want `.to_string()`.
#[must_use]
pub fn answer_json(label: &str, answer: &ProbabilisticAnswer) -> Json {
    let mut out = String::new();
    write_answer(&mut out, label, answer);
    Json::Raw(out)
}

/// How many times this process has rendered an answer in full — that is, missed the
/// per-answer memo.  Repeats of an answer (cache hits, duplicate specs) must not move it.
#[must_use]
pub fn full_renders() -> u64 {
    FULL_RENDERS.load(Ordering::Relaxed)
}

static FULL_RENDERS: AtomicU64 = AtomicU64::new(0);

/// The memoized part of the document: `"tuples":[…],"empty_probability":…`, written from the
/// answer's rows of value ids into one exactly-sized buffer — no `Tuple`, no per-tuple
/// `String`, no tree.  Each of the answer's distinct values is formatted and escaped **once**,
/// into a fragment; the rows arrive sorted by probability and a probability is a sum over a
/// handful of source queries, so it takes few distinct values in long runs, and each run's
/// number is formatted once too.  The document's length is then a sum of fragment and number
/// lengths, so a full render makes one allocation however large it is, and writes each byte
/// once.
fn render_unlabelled(answer: &ProbabilisticAnswer) -> String {
    FULL_RENDERS.fetch_add(1, Ordering::Relaxed);
    let infallible = "writing to a String cannot fail";
    // Value `id`'s fragment is `fragments[id]`, a slice of `text`.
    let (mut text, mut bounds) = (String::new(), vec![0]);
    for value in answer.values() {
        write!(Escaped(&mut text), "{value}").expect(infallible);
        bounds.push(text.len());
    }
    let fragments: Vec<&str> = bounds.windows(2).map(|at| &text[at[0]..at[1]]).collect();
    let rows = answer.sorted_rows();

    // Each run's number, and the document's length.
    let (tuples, empty) = ("\"tuples\":[", "],\"empty_probability\":");
    let mut len = tuples.len() + empty.len();
    let (mut numbers, mut run_bits) = (Vec::<String>::new(), None);
    for (i, (row, probability)) in rows.iter().enumerate() {
        if run_bits != Some(probability.to_bits()) {
            run_bits = Some(probability.to_bits());
            let mut number = String::new();
            write_number(&mut number, *probability).expect(infallible);
            numbers.push(number);
        }
        let cells: usize = row.iter().map(|&id| fragments[id as usize].len()).sum();
        let separators = 2 * row.len().saturating_sub(1);
        let number = numbers.last().map_or(0, String::len);
        // `,` between rows, then `["(` cells `)",` number `]`.
        len += usize::from(i > 0) + 3 + cells + separators + 3 + number + 1;
    }
    let mut empty_probability = String::new();
    write_number(&mut empty_probability, answer.empty_probability()).expect(infallible);
    len += empty_probability.len();

    let mut out = String::with_capacity(len);
    out.push_str(tuples);
    let (mut runs, mut number, mut run_bits) = (numbers.iter(), "", None);
    for (i, (row, probability)) in rows.iter().enumerate() {
        out.push_str(if i > 0 { ",[\"(" } else { "[\"(" });
        for (cell, &id) in row.iter().enumerate() {
            if cell > 0 {
                out.push_str(", ");
            }
            out.push_str(fragments[id as usize]);
        }
        out.push_str(")\",");
        if run_bits != Some(probability.to_bits()) {
            run_bits = Some(probability.to_bits());
            number = runs.next().expect("one number per run");
        }
        out.push_str(number);
        out.push(']');
    }
    out.push_str(empty);
    out.push_str(&empty_probability);
    debug_assert_eq!(out.len(), len, "the one allocation was sized exactly");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use urm_core::prelude::{Tuple, Value};

    #[test]
    fn specs_parse_like_workload_files() {
        assert_eq!(parse_query_spec(" Q4 ").unwrap().label, "Q4");
        assert_eq!(parse_query_spec("sel:2").unwrap().label, "sel:2");
        assert!(parse_query_spec("Q99").is_err());
    }

    #[test]
    fn a_large_answer_is_rendered_into_one_exactly_sized_allocation() {
        // The benchmark's largest answers: a 40 × 60 product of short strings, two
        // probabilities — plus values that need escaping, a NULL and a shorter row.
        let mut answer = ProbabilisticAnswer::new();
        for left in 0..40 {
            for right in 0..60 {
                let tuple = [format!("left \"{left:02}\\"), format!("right {right:03}\n")];
                let probability = if (left + right) % 3 == 0 { 0.75 } else { 0.25 };
                answer.add(tuple.into_iter().map(Value::from).collect(), probability);
            }
        }
        answer.add(Tuple::new(vec![Value::Null]), 0.1 + 0.2);
        answer.add(Tuple::empty(), 1e-7);
        assert_eq!(answer.len(), 2402);
        let rendered = render_unlabelled(&answer);
        assert_eq!(
            rendered.capacity(),
            rendered.len(),
            "reserved once, never grown"
        );
        // The same bytes the tuples' own `Display` gives, escaped whole.
        let mut expected = String::from("\"tuples\":[");
        for (i, (tuple, probability)) in answer.sorted().into_iter().enumerate() {
            expected.push_str(if i > 0 { ",[" } else { "[" });
            write_string(&mut expected, &tuple.to_string()).unwrap();
            expected.push(',');
            write_number(&mut expected, probability).unwrap();
            expected.push(']');
        }
        expected.push_str("],\"empty_probability\":0.0");
        assert_eq!(rendered, expected);
    }

    #[test]
    fn answers_render_deterministically() {
        let mut answer = ProbabilisticAnswer::new();
        answer.add(Tuple::new(vec![Value::from("b")]), 0.25);
        answer.add(Tuple::new(vec![Value::from("a")]), 0.5);
        answer.add_empty(0.25);
        let mut again = ProbabilisticAnswer::new();
        again.add(Tuple::new(vec![Value::from("a")]), 0.5);
        again.add(Tuple::new(vec![Value::from("b")]), 0.25);
        again.add_empty(0.25);
        let rendered = answer_json("q", &answer).to_string();
        assert_eq!(rendered, answer_json("q", &again).to_string());
        assert_eq!(
            rendered,
            "{\"label\":\"q\",\"tuples\":[[\"(a)\",0.5],[\"(b)\",0.25]],\
             \"empty_probability\":0.25}"
        );
    }
}

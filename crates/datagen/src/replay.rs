//! Replayable query workloads for the serving layer.
//!
//! The `urm-cli` binary (and the service benchmark) replay a *workload*: an ordered list of
//! target queries drawn from the paper's Table III plus the parameterised sweep families.
//! Workloads are described by a tiny line-oriented text format so experiment scripts can be
//! checked in and replayed verbatim:
//!
//! ```text
//! # one request per line; '#' starts a comment
//! Q1          # Table III query 1
//! Q4 x10      # ten consecutive submissions of Q4
//! sel:3       # selection-sweep query with 3 selections (Figure 11(d))
//! prod:2      # product-sweep query with 2 products (Figure 11(e))
//! join:3      # join-heavy query fanning 3 Item joins out of one PO scan
//! scale:2     # oversized query: 2 unfiltered PO self-joins (spill/memory-budget workloads)
//! skew:2      # 2 Item self-joins on the Zipf-skewed quantity key (mis-estimated intermediates)
//! ```
//!
//! Reading a spec is two steps.  [`parse_spec_ref`] is the syntax: spec text in, its label and
//! a [`SpecRef`] out — a Table III query or a sweep family at a clamped count — with nothing
//! built or allocated.  [`SpecRef::query`] is the construction.  [`parse_spec`] is the two in
//! a row.  The language names 28 queries ([`SpecRef::all`]), so a server that answers the same
//! specs again and again builds each of them once, keyed by its ref, and reads a request's spec
//! with the syntax step alone.

use crate::scenario::TargetSchemaKind;
use crate::workload::{self, QueryId};
use urm_core::query::TargetQuery;
use urm_core::{CoreError, CoreResult};

/// One request of a workload: a labelled target query plus the schema it addresses.
#[derive(Debug, Clone)]
pub struct WorkloadEntry {
    /// The spec that produced the query (`Q4`, `sel:3`, …).
    pub label: String,
    /// The target schema the query is defined on.
    pub target: TargetSchemaKind,
    /// The query itself.
    pub query: TargetQuery,
}

/// A sweep family of the spec language: a prefix, a count and a builder that clamps the count
/// to the family's range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sweep {
    /// `sel:N` — [`workload::selection_sweep`], 1–5 selections.
    Selection,
    /// `prod:N` — [`workload::product_sweep`], 1–3 products.
    Product,
    /// `join:N` — [`workload::join_sweep`], 1–4 joins.
    Join,
    /// `scale:N` — [`workload::oversized_sweep`], 1–3 unfiltered self-joins.
    Oversized,
    /// `skew:N` — [`workload::skewed_sweep`], 1–3 self-joins on the skewed key.
    Skewed,
}

impl Sweep {
    /// The five families, in the order [`SpecRef::all`] lists them.
    pub const ALL: [Sweep; 5] = [
        Sweep::Selection,
        Sweep::Product,
        Sweep::Join,
        Sweep::Oversized,
        Sweep::Skewed,
    ];

    /// The spec prefix, and the family's name in error messages.
    fn syntax(self) -> (&'static str, &'static str) {
        match self {
            Sweep::Selection => ("sel:", "selection"),
            Sweep::Product => ("prod:", "product"),
            Sweep::Join => ("join:", "join"),
            Sweep::Oversized => ("scale:", "oversized"),
            Sweep::Skewed => ("skew:", "skewed"),
        }
    }

    /// The largest count the family's builder keeps; larger ones, and 0, are clamped into
    /// `1..=max_count`.
    #[must_use]
    pub fn max_count(self) -> usize {
        match self {
            Sweep::Selection => 5,
            Sweep::Join => 4,
            Sweep::Product | Sweep::Oversized | Sweep::Skewed => 3,
        }
    }

    fn build(self, count: usize) -> CoreResult<TargetQuery> {
        match self {
            Sweep::Selection => workload::selection_sweep(count),
            Sweep::Product => workload::product_sweep(count),
            Sweep::Join => workload::join_sweep(count),
            Sweep::Oversized => workload::oversized_sweep(count),
            Sweep::Skewed => workload::skewed_sweep(count),
        }
    }
}

/// What a spec names, read from its text without building anything: a Table III query, or a
/// sweep family at a count already clamped to the family's range.  Two specs name the same
/// query exactly when their refs are equal (`sel:3`, ` sel:03 ` and `sel:+3` are one ref), so
/// the spec language has [`SpecRef::all`]'s 28 queries and no more.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpecRef {
    /// `Q1`–`Q10`.
    Table(QueryId),
    /// A sweep family and its clamped count.
    Sweep(Sweep, usize),
}

/// The canonical label of each ref, in [`SpecRef::all`] order.
const LABELS: [&str; 28] = [
    "Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "Q8", "Q9", "Q10", "sel:1", "sel:2", "sel:3",
    "sel:4", "sel:5", "prod:1", "prod:2", "prod:3", "join:1", "join:2", "join:3", "join:4",
    "scale:1", "scale:2", "scale:3", "skew:1", "skew:2", "skew:3",
];

impl SpecRef {
    /// Every query of the spec language: `Q1`–`Q10`, then each sweep family at each count.
    pub fn all() -> impl Iterator<Item = SpecRef> {
        let table = QueryId::all().into_iter().map(SpecRef::Table);
        let sweeps = Sweep::ALL
            .into_iter()
            .flat_map(|sweep| (1..=sweep.max_count()).map(move |n| SpecRef::Sweep(sweep, n)));
        table.chain(sweeps)
    }

    /// The ref's position in [`SpecRef::all`]: a dense index for tables of all 28.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            SpecRef::Table(id) => id.number() - 1,
            SpecRef::Sweep(sweep, n) => {
                let before: usize = Sweep::ALL
                    .iter()
                    .take_while(|&&s| s != sweep)
                    .map(|s| s.max_count())
                    .sum();
                QueryId::all().len() + before + n - 1
            }
        }
    }

    /// The canonical spelling: `Q4`, `sel:3`.
    #[must_use]
    pub fn label(self) -> &'static str {
        LABELS[self.index()]
    }

    /// The target schema the query is defined on (every sweep is on Excel).
    #[must_use]
    pub fn target(self) -> TargetSchemaKind {
        match self {
            SpecRef::Table(id) => id.target(),
            SpecRef::Sweep(..) => TargetSchemaKind::Excel,
        }
    }

    /// Builds the query.
    pub fn query(self) -> CoreResult<TargetQuery> {
        match self {
            SpecRef::Table(id) => Ok(workload::query(id)),
            SpecRef::Sweep(sweep, n) => sweep.build(n),
        }
    }
}

/// Reads one workload spec (`Q1`–`Q10`, `sel:N`, `prod:N`, `join:N`, `scale:N` or `skew:N`,
/// surrounding whitespace ignored) into its label and what it names, allocating nothing unless
/// it fails.  A Table III query's label is its canonical name (`q4` is `Q4`); a sweep's is the
/// trimmed spec as written (` sel:03 ` is `sel:03`).
pub fn parse_spec_ref(spec: &str) -> CoreResult<(&str, SpecRef)> {
    let spec = spec.trim();
    for sweep in Sweep::ALL {
        let (prefix, family) = sweep.syntax();
        if let Some(n) = spec.strip_prefix(prefix) {
            let n: usize = n
                .parse()
                .map_err(|_| CoreError::InvalidQuery(format!("bad {family} count in '{spec}'")))?;
            return Ok((spec, SpecRef::Sweep(sweep, n.clamp(1, sweep.max_count()))));
        }
    }
    QueryId::all()
        .into_iter()
        .map(SpecRef::Table)
        .find(|table| table.label().eq_ignore_ascii_case(spec))
        .map(|table| (table.label(), table))
        .ok_or_else(|| {
            CoreError::InvalidQuery(format!(
                "unknown workload spec '{spec}' (expected Q1–Q10, sel:N, prod:N, join:N, \
                 scale:N or skew:N)"
            ))
        })
}

/// Parses one workload spec into an entry: [`parse_spec_ref`], then the query built.
pub fn parse_spec(spec: &str) -> CoreResult<WorkloadEntry> {
    let (label, spec) = parse_spec_ref(spec)?;
    Ok(WorkloadEntry {
        label: label.to_string(),
        target: spec.target(),
        query: spec.query()?,
    })
}

/// Parses a workload file: one spec per line, optional ` xN` repeat suffix, `#` comments.
pub fn parse_workload(text: &str) -> CoreResult<Vec<WorkloadEntry>> {
    let mut entries = Vec::new();
    for raw in text.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let (spec, repeat) = match line.rsplit_once(char::is_whitespace) {
            Some((head, last)) if last.starts_with(['x', 'X']) => {
                let count: usize = last[1..].parse().map_err(|_| {
                    CoreError::InvalidQuery(format!("bad repeat count in '{line}'"))
                })?;
                (head.trim(), count)
            }
            _ => (line, 1),
        };
        let entry = parse_spec(spec)?;
        entries.extend(std::iter::repeat_n(entry, repeat));
    }
    Ok(entries)
}

/// A deterministic synthetic workload of `n` requests cycling the Table III queries, restricted
/// to `target` when given (a single service epoch serves one mapping set, hence one target
/// schema).  Repeats are intentional: real query traffic repeats, which is what the service's
/// answer cache exploits.
pub fn synthetic_workload(n: usize, target: Option<TargetSchemaKind>) -> Vec<WorkloadEntry> {
    let pool: Vec<QueryId> = QueryId::all()
        .into_iter()
        .filter(|id| target.is_none_or(|t| id.target() == t))
        .collect();
    (0..n)
        .map(|i| {
            let id = pool[i % pool.len()];
            WorkloadEntry {
                label: SpecRef::Table(id).label().to_string(),
                target: id.target(),
                query: workload::query(id),
            }
        })
        .collect()
}

/// A deterministic join-heavy workload of `n` requests (all on the Excel schema): the
/// multi-join Table III queries (Q3, Q4) interleaved with the `join:N` fan-out family.  This is
/// the batch shape that exercises DAG fan-out — every request shares the `PO`/`Item` scans
/// while contributing independent join nodes for the parallel scheduler.
#[must_use]
pub fn join_heavy_workload(n: usize) -> Vec<WorkloadEntry> {
    let specs = ["Q3", "Q4", "join:2", "join:3", "Q4", "join:4"];
    (0..n)
        .map(|i| parse_spec(specs[i % specs.len()]).expect("join-heavy specs are well-formed"))
        .collect()
}

/// A deterministic *oversized* workload of `n` requests (all on the Excel schema): the
/// unfiltered `scale:N` self-join family interleaved with the join-heavy Table III queries.
/// Replayed under `urm-cli --memory-budget`, the total bytes these requests materialise dwarf
/// any reasonable budget — the workload the spill path (grace hash joins, spill-backed pins)
/// exists for.
#[must_use]
pub fn oversized_workload(n: usize) -> Vec<WorkloadEntry> {
    let specs = ["scale:2", "Q4", "scale:3", "scale:2", "Q3", "scale:3"];
    (0..n)
        .map(|i| parse_spec(specs[i % specs.len()]).expect("oversized specs are well-formed"))
        .collect()
}

/// A deterministic *skewed* workload of `n` requests (all on the Excel schema): the `skew:N`
/// family — `Item` self-joins on the Zipf-distributed `quantity` key — interleaved with the
/// multi-join Table III queries.  The head rank of the skewed key carries ~22% of the rows, so
/// static uniform cardinality estimates mis-size every chained intermediate; replayed twice
/// against one epoch, the second pass is answered from the epoch's pinned results.
#[must_use]
pub fn skewed_workload(n: usize) -> Vec<WorkloadEntry> {
    let specs = ["skew:2", "Q4", "skew:3", "skew:1", "Q3", "skew:2"];
    (0..n)
        .map(|i| parse_spec(specs[i % specs.len()]).expect("skewed specs are well-formed"))
        .collect()
}

/// A deterministic top-k candidate workload of `n` requests: the tuple-returning Excel queries
/// whose answers have many distinct candidates, the shape the probabilistic top-k algorithm
/// (Section VII) prunes.  Entries are plain target queries — callers choose `k` when invoking
/// [`top_k`](urm_core::top_k) — so the same batch replays under exact and top-k evaluation.
#[must_use]
pub fn top_k_workload(n: usize) -> Vec<WorkloadEntry> {
    let specs = ["Q1", "join:2", "Q2", "sel:2", "Q3"];
    (0..n)
        .map(|i| parse_spec(specs[i % specs.len()]).expect("top-k specs are well-formed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_table_iii_and_sweep_specs() {
        assert_eq!(parse_spec("Q4").unwrap().label, "Q4");
        assert_eq!(parse_spec("q10").unwrap().target, TargetSchemaKind::Paragon);
        assert_eq!(parse_spec("sel:3").unwrap().query.predicate_count(), 3);
        assert_eq!(parse_spec("prod:2").unwrap().query.product_count(), 2);
        assert_eq!(parse_spec("join:3").unwrap().query.relations().len(), 4);
        assert_eq!(parse_spec("scale:2").unwrap().query.relations().len(), 3);
        assert_eq!(parse_spec("skew:2").unwrap().query.relations().len(), 3);
        assert!(parse_spec("Q11").is_err());
        assert!(parse_spec("sel:x").is_err());
        assert!(parse_spec("join:x").is_err());
        assert!(parse_spec("scale:x").is_err());
        assert!(parse_spec("skew:x").is_err());
    }

    /// Every spelling the syntax step accepts, with the label `parse_spec` gives it.
    fn spellings() -> Vec<(String, &'static str)> {
        let mut specs: Vec<(String, &'static str)> =
            LABELS.iter().map(|&l| (l.to_string(), l)).collect();
        for (prefix, _) in Sweep::ALL.map(Sweep::syntax) {
            for n in ["0", "7", "03", "+3", "18446744073709551615"] {
                specs.push((format!("{prefix}{n}"), ""));
            }
        }
        specs.extend([
            (" sel:03 ".into(), ""),
            ("q4".into(), "Q4"),
            ("\tQ10\n".into(), "Q10"),
        ]);
        specs
    }

    #[test]
    fn the_syntax_step_gives_parse_specs_label_and_a_ref_that_builds_its_query() {
        for (spec, canonical) in spellings() {
            let (label, spec_ref) = parse_spec_ref(&spec).unwrap();
            let entry = parse_spec(&spec).unwrap();
            assert_eq!(label, entry.label, "{spec:?}");
            assert!(canonical.is_empty() || label == canonical, "{spec:?}");
            assert_eq!(spec_ref.target(), entry.target, "{spec:?}");
            assert_eq!(
                format!("{:?}", spec_ref.query().unwrap()),
                format!("{:?}", entry.query),
                "{spec:?}"
            );
        }
        assert_eq!(parse_spec_ref(" sel:03 ").unwrap().0, "sel:03");
        assert_eq!(
            parse_spec_ref("sel:+3").unwrap(),
            ("sel:+3", SpecRef::Sweep(Sweep::Selection, 3))
        );
        assert_eq!(
            parse_spec_ref("join:9").unwrap().1,
            SpecRef::Sweep(Sweep::Join, 4),
            "clamped"
        );
        assert_eq!(
            parse_spec_ref("prod:0").unwrap().1,
            SpecRef::Sweep(Sweep::Product, 1),
            "clamped"
        );
    }

    #[test]
    fn the_syntax_step_refuses_what_parse_spec_refuses_in_the_same_words() {
        for spec in [
            "Q11", "Q04", "q", "", "sel:", "sel:x", "sel: 3", "sel:-1", "SEL:3", "join:x",
        ] {
            let refused = parse_spec_ref(spec).unwrap_err().to_string();
            assert_eq!(
                refused,
                parse_spec(spec).unwrap_err().to_string(),
                "{spec:?}"
            );
        }
        assert_eq!(
            parse_spec_ref("scale:x").unwrap_err().to_string(),
            "invalid target query: bad oversized count in 'scale:x'"
        );
    }

    #[test]
    fn the_language_has_28_refs_each_at_its_index_under_its_own_label() {
        let all: Vec<SpecRef> = SpecRef::all().collect();
        assert_eq!(all.len(), LABELS.len());
        for (i, spec_ref) in all.into_iter().enumerate() {
            assert_eq!(spec_ref.index(), i);
            assert_eq!(
                parse_spec_ref(spec_ref.label()).unwrap(),
                (spec_ref.label(), spec_ref)
            );
        }
    }

    #[test]
    fn skewed_workload_is_excel_only_and_cycles() {
        let entries = skewed_workload(8);
        assert_eq!(entries.len(), 8);
        assert!(entries.iter().all(|e| e.target == TargetSchemaKind::Excel));
        assert_eq!(entries[0].label, "skew:2");
        assert_eq!(entries[0].label, entries[6].label);
    }

    #[test]
    fn oversized_workload_is_excel_only_and_cycles() {
        let entries = oversized_workload(8);
        assert_eq!(entries.len(), 8);
        assert!(entries.iter().all(|e| e.target == TargetSchemaKind::Excel));
        assert_eq!(entries[0].label, "scale:2");
        assert_eq!(entries[0].label, entries[6].label);
    }

    #[test]
    fn join_heavy_and_topk_workloads_are_excel_only_and_cycle() {
        let joins = join_heavy_workload(8);
        assert_eq!(joins.len(), 8);
        assert!(joins.iter().all(|e| e.target == TargetSchemaKind::Excel));
        assert_eq!(joins[0].label, joins[6].label);
        let topk = top_k_workload(7);
        assert_eq!(topk.len(), 7);
        assert!(topk.iter().all(|e| e.target == TargetSchemaKind::Excel));
        assert_eq!(topk[0].label, topk[5].label);
    }

    #[test]
    fn parses_files_with_comments_and_repeats() {
        let text = "# header\nQ1\nQ4 x3\n\nsel:2   # inline comment\n";
        let entries = parse_workload(text).unwrap();
        let labels: Vec<&str> = entries.iter().map(|e| e.label.as_str()).collect();
        assert_eq!(labels, ["Q1", "Q4", "Q4", "Q4", "sel:2"]);
    }

    #[test]
    fn rejects_bad_repeat_counts() {
        assert!(parse_workload("Q1 xq").is_err());
    }

    #[test]
    fn synthetic_workload_cycles_and_filters() {
        let all = synthetic_workload(12, None);
        assert_eq!(all.len(), 12);
        assert_eq!(all[0].label, "Q1");
        assert_eq!(all[10].label, "Q1");
        let excel = synthetic_workload(7, Some(TargetSchemaKind::Excel));
        assert!(excel.iter().all(|e| e.target == TargetSchemaKind::Excel));
        // 5 Excel queries, so entry 5 cycles back to Q1.
        assert_eq!(excel[5].label, excel[0].label);
    }
}

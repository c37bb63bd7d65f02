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

/// Parses one workload spec (`Q1`–`Q10`, `sel:N`, `prod:N`, `join:N`, `scale:N` or `skew:N`)
/// into an entry.
pub fn parse_spec(spec: &str) -> CoreResult<WorkloadEntry> {
    let spec = spec.trim();
    let sweep = |family: &'static str, n: &str, build: fn(usize) -> CoreResult<_>| {
        let n: usize = n
            .parse()
            .map_err(|_| CoreError::InvalidQuery(format!("bad {family} count in '{spec}'")))?;
        Ok(WorkloadEntry {
            label: spec.to_string(),
            target: TargetSchemaKind::Excel,
            query: build(n)?,
        })
    };
    if let Some(n) = spec.strip_prefix("sel:") {
        return sweep("selection", n, workload::selection_sweep);
    }
    if let Some(n) = spec.strip_prefix("prod:") {
        return sweep("product", n, workload::product_sweep);
    }
    if let Some(n) = spec.strip_prefix("join:") {
        return sweep("join", n, workload::join_sweep);
    }
    if let Some(n) = spec.strip_prefix("scale:") {
        return sweep("oversized", n, workload::oversized_sweep);
    }
    if let Some(n) = spec.strip_prefix("skew:") {
        return sweep("skewed", n, workload::skewed_sweep);
    }
    let id = QueryId::all()
        .into_iter()
        .find(|id| format!("Q{}", id.number()).eq_ignore_ascii_case(spec))
        .ok_or_else(|| {
            CoreError::InvalidQuery(format!(
                "unknown workload spec '{spec}' (expected Q1–Q10, sel:N, prod:N, join:N, \
                 scale:N or skew:N)"
            ))
        })?;
    Ok(WorkloadEntry {
        label: format!("Q{}", id.number()),
        target: id.target(),
        query: workload::query(id),
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
                label: format!("Q{}", id.number()),
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

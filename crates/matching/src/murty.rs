//! The `h` best one-to-one partial mappings: Murty's k-best enumeration over a sparse
//! successive-shortest-path assignment solver.
//!
//! The paper derives its possible mappings from the matcher's scores with a k-best bipartite
//! matching procedure ([9], [10]).  Rows are source attributes and columns target attributes;
//! only strictly positive scores are edges, and a row may stay unmatched, so a solution is a
//! *partial* one-to-one matching whose weight is the sum of its edges' scores.
//!
//! * **Exact weights.** Each score is quantised once to an integer number of units
//!   (`UNITS_PER_SCORE` per 1.0), so sums and comparisons are exact and "equal weight" means
//!   equal.  The reported [`RankedAssignment::total_weight`] is that integer weight converted
//!   back to score units, the same rule [`crate::Mapping::score`] follows: tied matchings report
//!   bit-identical totals, and totals never increase down the ranking.  (An f64 sum of the
//!   scores themselves does not have that property: two tied matchings that add the same scores
//!   in a different row order can differ in the last bit.)
//! * **One solver.** A subproblem drops the rows and columns of its forced pairs and its
//!   forbidden edges, then finds a maximum-weight partial matching by successive shortest paths:
//!   each remaining row is added by a Dijkstra search on reduced costs over the positive edges,
//!   where every row also has its own zero-cost "unmatched" end.
//! * **Murty's partition** (Murty 1968).  A solved node whose solution has free (not forced)
//!   pairs `p_1 … p_t` spawns child `i`, which forces `p_1 … p_{i-1}` and forbids `p_i`.  The
//!   children partition the node's other matchings (a strict superset of an optimum cannot
//!   exist, as it would weigh more), so best-first popping yields every matching exactly once,
//!   in non-increasing weight.
//! * **One tie order.** Matchings are ranked by weight descending, then by their sorted pair
//!   list ascending.  The enumeration runs past the `k`-th matching while the popped weight still
//!   equals it, then sorts and truncates.  The result is therefore a function of the matrix and
//!   `k` alone, and prefix-stable: the first `k` of `k_best_assignments(w, K)` are
//!   `k_best_assignments(w, k)`.  `MAX_BOUNDARY_TIES` bounds the overrun.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Integer units per 1.0 of score: a score `s` weighs `round(s · 2^40)` units.
pub(crate) const UNITS_PER_SCORE: f64 = (1u64 << 40) as f64;

/// Largest weight of one score, in units (a score of 1024).  Larger scores saturate, which keeps
/// every path length of the solver far from `i64` overflow.
const MAX_UNITS: f64 = (1u64 << 50) as f64;

/// A score in integer units: `round(score · 2^40)`, saturating at ±1024.
pub(crate) fn score_units(score: f64) -> i64 {
    (score * UNITS_PER_SCORE)
        .round()
        .clamp(-MAX_UNITS, MAX_UNITS) as i64
}

/// How many matchings beyond the `k`-th the enumeration pops while they tie with it.
///
/// A degenerate matrix (say, `n × n` equal scores) ties `n!` matchings at the top weight; the
/// bound keeps such a matrix from enumerating all of them.  Past it, the boundary tie group keeps
/// the members popped first (the heap pops equal weights by pair list ascending): the result is
/// still deterministic and still holds every matching heavier than the `k`-th, but which of the
/// tied ones it holds is no longer guaranteed canonical or prefix-stable.
const MAX_BOUNDARY_TIES: usize = 256;

/// A solution produced by the enumeration: the matched pairs and their total weight.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedAssignment {
    /// Matched `(row, col)` pairs, sorted by row.
    pub pairs: Vec<(usize, usize)>,
    /// Sum of the matched pairs' quantised scores, in score units (exact: see the module doc).
    pub total_weight: f64,
}

/// Marks "no row" / "no column" in the solver's matching arrays.
const NONE: usize = usize::MAX;

/// The positive edges of a weight matrix in compressed rows.
struct Graph {
    cols: usize,
    /// The edges of row `r` are `edges[row_start[r]..row_start[r + 1]]`, sorted by column.
    row_start: Vec<usize>,
    /// `(column, units)` per edge.
    edges: Vec<(usize, i64)>,
    /// Per edge: forbidden in the subproblem being solved.
    blocked: Vec<bool>,
}

impl Graph {
    fn new(weights: &[Vec<f64>]) -> Self {
        let mut row_start = vec![0];
        let mut edges = Vec::new();
        for row in weights {
            for (c, &s) in row.iter().enumerate() {
                if s > 0.0 {
                    edges.push((c, score_units(s)));
                }
            }
            row_start.push(edges.len());
        }
        Graph {
            cols: weights.iter().map(Vec::len).max().unwrap_or(0),
            row_start,
            blocked: vec![false; edges.len()],
            edges,
        }
    }

    /// Index of edge `(r, c)`, which must exist.
    fn edge(&self, (r, c): (usize, usize)) -> usize {
        let row = &self.edges[self.row_start[r]..self.row_start[r + 1]];
        self.row_start[r]
            + row
                .binary_search_by_key(&c, |&(col, _)| col)
                .expect("an edge")
    }

    /// A maximum-weight partial matching that contains every `forced` pair and no `forbidden`
    /// one: its weight in units and its pairs sorted by row.  Both lists hold edges, and the
    /// forced pairs share no row or column.
    fn solve(
        &mut self,
        forced: &[(usize, usize)],
        forbidden: &[(usize, usize)],
    ) -> (i64, Vec<(usize, usize)>) {
        for &pair in forbidden {
            let e = self.edge(pair);
            self.blocked[e] = true;
        }
        let (n, m) = (self.row_start.len() - 1, self.cols);
        let mut row_col = vec![NONE; n];
        let mut col_row = vec![NONE; m];
        let mut dropped = vec![false; m];
        for &(r, c) in forced {
            row_col[r] = c;
            dropped[c] = true;
        }
        // Node `j < m` is column `j`; node `m + x` is row `x`'s unmatched end.  Edge `(x, j)`
        // costs `-units`, an unmatched end 0, and the reduced cost `cost - u[x] - v[j]` of every
        // edge out of an added row stays non-negative.
        let mut u = vec![0i64; n];
        let mut v = vec![0i64; m + n];
        let mut dist = vec![i64::MAX; m + n];
        let mut prev = vec![NONE; m + n];
        let mut done = vec![false; m + n];
        let (mut touched, mut heap) = (Vec::new(), BinaryHeap::new());
        for start in 0..n {
            if row_col[start] != NONE || self.row_start[start] == self.row_start[start + 1] {
                continue;
            }
            // Dijkstra from `start` through the rows holding the columns it reaches, until it
            // settles a free column or some reached row's unmatched end.
            let (mut x, mut dx) = (start, 0);
            let (end, d_end) = loop {
                let mut relax = |j: usize, cost: i64| {
                    let d = dx + cost - u[x] - v[j];
                    if d < dist[j] {
                        if dist[j] == i64::MAX {
                            touched.push(j);
                        }
                        dist[j] = d;
                        prev[j] = x;
                        heap.push(Reverse((d, j)));
                    }
                };
                for e in self.row_start[x]..self.row_start[x + 1] {
                    let (j, units) = self.edges[e];
                    if !self.blocked[e] && !dropped[j] {
                        relax(j, -units);
                    }
                }
                relax(m + x, 0);
                let (d, j) = loop {
                    let Reverse(next) = heap.pop().expect("the start row's own end is reachable");
                    if !done[next.1] {
                        break next;
                    }
                };
                done[j] = true;
                if j >= m || col_row[j] == NONE {
                    break (j, d);
                }
                (x, dx) = (col_row[j], d);
            };
            // Shift the potentials of every settled node (and of the row each settled column
            // led to) by its distance short of `d_end`: path edges get reduced cost 0, and no
            // reduced cost turns negative.
            u[start] += d_end;
            for &j in &touched {
                if done[j] {
                    v[j] += dist[j] - d_end;
                    if j < m && col_row[j] != NONE {
                        u[col_row[j]] += d_end - dist[j];
                    }
                }
                dist[j] = i64::MAX;
                done[j] = false;
            }
            touched.clear();
            heap.clear();
            // Augment: every row on the path moves to the node it reached next.
            let mut j = end;
            loop {
                let x = prev[j];
                let held = row_col[x];
                if j < m {
                    col_row[j] = x;
                    row_col[x] = j;
                } else {
                    row_col[x] = NONE;
                }
                if x == start {
                    break;
                }
                j = held;
            }
        }
        for &pair in forbidden {
            let e = self.edge(pair);
            self.blocked[e] = false;
        }
        let pairs: Vec<(usize, usize)> = (0..n)
            .filter(|&r| row_col[r] != NONE)
            .map(|r| (r, row_col[r]))
            .collect();
        let units = pairs
            .iter()
            .map(|&pair| self.edges[self.edge(pair)].1)
            .sum();
        (units, pairs)
    }
}

/// A node of Murty's search tree: the best matching of the subproblem that forces `forced` and
/// forbids `forbidden`.  The derived order puts the canonically first node greatest (weight,
/// then pair list reversed), so the max-heap pops it first.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Node {
    units: i64,
    pairs: Reverse<Vec<(usize, usize)>>,
    forced: Vec<(usize, usize)>,
    forbidden: Vec<(usize, usize)>,
}

/// Enumerates the `k` best one-to-one partial assignments in the canonical order: total weight
/// descending, then sorted pair list ascending.
///
/// Fewer than `k` results are returned when the weight matrix does not admit `k` distinct
/// non-empty assignments.
#[must_use]
pub fn k_best_assignments(weights: &[Vec<f64>], k: usize) -> Vec<RankedAssignment> {
    let mut graph = Graph::new(weights);
    let mut heap = BinaryHeap::new();
    let (units, pairs) = graph.solve(&[], &[]);
    if k > 0 && !pairs.is_empty() {
        heap.push(Node {
            units,
            pairs: Reverse(pairs),
            forced: Vec::new(),
            forbidden: Vec::new(),
        });
    }
    let mut found: Vec<Node> = Vec::new();
    while let Some(node) = heap.pop() {
        if let Some(kth) = found.get(k - 1) {
            if node.units < kth.units || found.len() >= k + MAX_BOUNDARY_TIES {
                break;
            }
        }
        found.push(node);
        let node = &found[found.len() - 1];
        // A child lighter than the k-th matching found so far can never be returned.
        let floor = found.get(k - 1).map_or(i64::MIN, |kth| kth.units);
        let mut forced = node.forced.clone();
        for &pair in &node.pairs.0 {
            if node.forced.contains(&pair) {
                continue;
            }
            let mut forbidden = node.forbidden.clone();
            forbidden.push(pair);
            let (units, pairs) = graph.solve(&forced, &forbidden);
            if !pairs.is_empty() && units >= floor {
                heap.push(Node {
                    units,
                    pairs: Reverse(pairs),
                    forced: forced.clone(),
                    forbidden,
                });
            }
            forced.push(pair);
        }
    }
    found.sort_by(|a, b| b.cmp(a));
    debug_assert!(
        found.windows(2).all(|w| w[0].pairs != w[1].pairs),
        "Murty's partition produced a matching twice"
    );
    found.truncate(k);
    found
        .into_iter()
        .map(|node| RankedAssignment {
            // Monotone in `units`, and exact below 2^53 units (for scores ≤ 1: under 8 192 pairs).
            total_weight: node.units as f64 / UNITS_PER_SCORE,
            pairs: node.pairs.0,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn weights_small() -> Vec<Vec<f64>> {
        vec![vec![0.9, 0.4], vec![0.8, 0.7]]
    }

    /// The solver's optimum of the unconstrained problem: its pairs and their total score.
    fn best(w: &[Vec<f64>]) -> (Vec<(usize, usize)>, f64) {
        let (_, pairs) = Graph::new(w).solve(&[], &[]);
        let total = pairs.iter().map(|&(r, c)| w[r][c]).sum();
        (pairs, total)
    }

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} != {b}");
    }

    /// Every non-empty partial one-to-one matching over the positive entries of `w`, in the
    /// canonical order.
    fn exhaustive(w: &[Vec<f64>]) -> Vec<RankedAssignment> {
        fn extend(
            w: &[Vec<f64>],
            row: usize,
            used: &mut Vec<usize>,
            pairs: &mut Vec<(usize, usize)>,
            out: &mut Vec<RankedAssignment>,
        ) {
            if row == w.len() {
                if !pairs.is_empty() {
                    out.push(RankedAssignment {
                        pairs: pairs.clone(),
                        total_weight: pairs.iter().map(|&(r, c)| w[r][c]).sum(),
                    });
                }
                return;
            }
            extend(w, row + 1, used, pairs, out);
            for c in 0..w[row].len() {
                if w[row][c] > 0.0 && !used.contains(&c) {
                    used.push(c);
                    pairs.push((row, c));
                    extend(w, row + 1, used, pairs, out);
                    pairs.pop();
                    used.pop();
                }
            }
        }
        let mut out = Vec::new();
        extend(w, 0, &mut Vec::new(), &mut Vec::new(), &mut out);
        out.sort_by(|a, b| {
            b.total_weight
                .total_cmp(&a.total_weight)
                .then_with(|| a.pairs.cmp(&b.pairs))
        });
        out
    }

    #[test]
    fn k_best_equals_exhaustive_enumeration_in_the_canonical_order() {
        // Tie-heavy dyadic scores, so the f64 totals the brute force sorts by are exact.
        let values = [0.0, 0.25, 0.5, 0.75];
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        for _ in 0..3_000 {
            let (rows, cols) = (1 + next(5), 1 + next(5));
            let w: Vec<Vec<f64>> = (0..rows)
                .map(|_| (0..cols).map(|_| values[next(values.len())]).collect())
                .collect();
            let k = 1 + next(12);
            let mut expected = exhaustive(&w);
            expected.truncate(k);
            assert_eq!(k_best_assignments(&w, k), expected, "matrix {w:?}, k = {k}");
        }
        // Edge cases: empty and all-zero matrices, k = 0, k above the number of matchings.
        assert!(k_best_assignments(&[], 3).is_empty());
        assert!(k_best_assignments(&vec![vec![0.0; 3]; 2], 3).is_empty());
        assert!(k_best_assignments(&weights_small(), 0).is_empty());
        let w = vec![vec![0.5, 0.25], vec![0.75, 0.0]];
        assert_eq!(exhaustive(&w).len(), 4);
        assert_eq!(k_best_assignments(&w, 100), exhaustive(&w));
    }

    #[test]
    fn first_solution_is_the_optimum() {
        let sols = k_best_assignments(&weights_small(), 3);
        assert!(!sols.is_empty());
        assert_close(sols[0].total_weight, 1.6);
    }

    #[test]
    fn weights_are_non_increasing() {
        let w = vec![
            vec![0.85, 0.3, 0.1],
            vec![0.83, 0.75, 0.2],
            vec![0.4, 0.65, 0.81],
        ];
        let sols = k_best_assignments(&w, 10);
        assert!(sols.len() >= 3);
        for pair in sols.windows(2) {
            assert!(
                pair[0].total_weight >= pair[1].total_weight,
                "solutions out of order: {pair:?}"
            );
        }
    }

    #[test]
    fn solutions_are_distinct() {
        let w = vec![
            vec![0.85, 0.3, 0.1],
            vec![0.83, 0.75, 0.2],
            vec![0.4, 0.65, 0.81],
        ];
        let sols = k_best_assignments(&w, 12);
        let mut sets: Vec<_> = sols.iter().map(|s| s.pairs.clone()).collect();
        sets.sort();
        let before = sets.len();
        sets.dedup();
        assert_eq!(before, sets.len());
    }

    #[test]
    fn second_best_differs_from_best_in_the_2x2_case() {
        let sols = k_best_assignments(&weights_small(), 2);
        assert_eq!(sols.len(), 2);
        assert_ne!(sols[0].pairs, sols[1].pairs);
        // Second best: either the identity with one edge dropped or the swapped permutation
        // (0.4 + 0.8 = 1.2); the swap is best.
        assert_close(sols[1].total_weight, 1.2);
    }

    #[test]
    fn asking_for_more_than_exists_returns_what_exists() {
        let w = vec![vec![0.5]];
        let sols = k_best_assignments(&w, 10);
        // Only one non-empty assignment exists.
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0].pairs, vec![(0, 0)]);
    }

    #[test]
    fn zero_k_or_empty_matrix_is_empty() {
        assert!(k_best_assignments(&weights_small(), 0).is_empty());
        assert!(k_best_assignments(&[], 5).is_empty());
    }

    #[test]
    fn all_zero_matrix_has_no_assignments() {
        let w = vec![vec![0.0, 0.0], vec![0.0, 0.0]];
        assert!(k_best_assignments(&w, 3).is_empty());
    }

    #[test]
    fn enumeration_matches_brute_force_on_3x3() {
        let w = vec![
            vec![0.9, 0.2, 0.5],
            vec![0.8, 0.7, 0.1],
            vec![0.3, 0.6, 0.4],
        ];
        // A positive 3 × 3 matrix has 33 non-empty partial matchings; asking for more returns
        // each of them once, the optimum first.
        let all = exhaustive(&w);
        assert_eq!(all.len(), 33);
        let sols = k_best_assignments(&w, 50);
        assert_close(sols[0].total_weight, all[0].total_weight);
        let mut got: Vec<_> = sols.into_iter().map(|s| s.pairs).collect();
        let mut want: Vec<_> = all.into_iter().map(|s| s.pairs).collect();
        got.sort();
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn forced_edges_respected_in_children() {
        // Forcing (0,1) must exclude (0,0) and leave row 1 its best remaining column.
        let (units, pairs) = Graph::new(&weights_small()).solve(&[(0, 1)], &[]);
        assert_eq!(pairs, vec![(0, 1), (1, 0)]);
        assert_eq!(
            units,
            ((0.4 * UNITS_PER_SCORE).round() + (0.8 * UNITS_PER_SCORE).round()) as i64
        );
    }

    #[test]
    fn forbidding_the_only_edge_makes_node_infeasible() {
        let (units, pairs) = Graph::new(&[vec![0.5]]).solve(&[], &[(0, 0)]);
        assert!(pairs.is_empty());
        assert_eq!(units, 0);
    }

    #[test]
    fn empty_matrix() {
        let (pairs, total) = best(&[]);
        assert!(pairs.is_empty());
        assert_close(total, 0.0);
    }

    #[test]
    fn single_cell() {
        let (pairs, total) = best(&[vec![0.7]]);
        assert_eq!(pairs, vec![(0, 0)]);
        assert_close(total, 0.7);
    }

    #[test]
    fn square_matrix_picks_the_optimal_permutation() {
        // Row 0 prefers col 0 (0.9), row 1 prefers col 0 too (0.8) but the best total is
        // 0.9 + 0.7 by giving row 1 col 1.
        let (pairs, total) = best(&weights_small());
        assert_eq!(pairs, vec![(0, 0), (1, 1)]);
        assert_close(total, 1.6);
    }

    #[test]
    fn greedy_would_be_suboptimal_here() {
        // Greedy picks (0,0)=5 then (1,1)=1 → 6; optimal is (0,1)=4 + (1,0)=4 → 8.
        let (pairs, total) = best(&[vec![5.0, 4.0], vec![4.0, 1.0]]);
        assert_close(total, 8.0);
        assert_eq!(pairs, vec![(0, 1), (1, 0)]);
    }

    #[test]
    fn rectangular_more_rows_than_cols() {
        let (pairs, total) = best(&[vec![0.3], vec![0.9], vec![0.5]]);
        assert_eq!(pairs, vec![(1, 0)]);
        assert_close(total, 0.9);
    }

    #[test]
    fn rectangular_more_cols_than_rows() {
        let (pairs, total) = best(&[vec![0.1, 0.8, 0.3]]);
        assert_eq!(pairs, vec![(0, 1)]);
        assert_close(total, 0.8);
    }

    #[test]
    fn zero_weights_stay_unmatched() {
        let (pairs, total) = best(&[vec![0.0, 0.0], vec![0.0, 0.6]]);
        assert_eq!(pairs, vec![(1, 1)]);
        assert_close(total, 0.6);
    }

    #[test]
    fn forbidden_edges_are_never_used() {
        let w = vec![vec![0.9, 0.4], vec![0.5, 0.9]];
        let (_, pairs) = Graph::new(&w).solve(&[], &[(0, 0), (1, 1)]);
        assert_eq!(pairs, vec![(0, 1), (1, 0)]);
    }

    #[test]
    fn assignment_is_one_to_one() {
        let (pairs, _) = best(&[
            vec![0.9, 0.8, 0.1],
            vec![0.85, 0.83, 0.2],
            vec![0.7, 0.75, 0.65],
        ]);
        let mut cols: Vec<usize> = pairs.iter().map(|&(_, c)| c).collect();
        cols.sort_unstable();
        cols.dedup();
        assert_eq!(cols.len(), 3, "columns must be distinct");
    }

    #[test]
    fn matches_brute_force_on_small_matrices() {
        // Exhaustively verify optimality for 81 3 × 3 matrices from a small value set.
        let vals = [0.0, 0.3, 0.7];
        let mut count = 0;
        for a in 0..3usize {
            for b in 0..3usize {
                for c in 0..3usize {
                    for d in 0..3usize {
                        let w = vec![
                            vec![vals[a], vals[b], 0.5],
                            vec![vals[c], 0.2, vals[d]],
                            vec![0.4, vals[(a + c) % 3], vals[(b + d) % 3]],
                        ];
                        let (_, got) = best(&w);
                        let want = exhaustive(&w)[0].total_weight;
                        assert_close(got, want);
                        count += 1;
                    }
                }
            }
        }
        assert_eq!(count, 81);
    }
}

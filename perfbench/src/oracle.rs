//! Correctness oracles, written apart from the program: a brute-force
//! top-k scan, a live-set tracker for the mixed serving workload, and a
//! naive Lloyd's k-means. None of them calls the repository's kernels.

use std::collections::HashMap;

use simpim_similarity::Dataset;

/// Relative tolerance between the program's distances and the oracle's
/// (their summation orders differ).
pub const REL_TOL: f64 = 1e-9;

/// Plain squared Euclidean distance, summed left to right.
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    let mut s = 0.0;
    for (x, y) in a.iter().zip(b) {
        let t = x - y;
        s += t * t;
    }
    s
}

/// Whether two distances agree within [`REL_TOL`].
pub fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(1e-300)
}

/// The `k + 1` best `(id, distance)` pairs among `candidates`, best
/// first, ties broken by the lower id. One more than `k` so a check can
/// tell a boundary tie from a wrong answer.
pub fn top_k_plus_one(
    candidates: impl Iterator<Item = (usize, f64)>,
    k: usize,
) -> Vec<(usize, f64)> {
    let mut best: Vec<(usize, f64)> = Vec::with_capacity(k + 2);
    let worse = |a: &(usize, f64), b: &(usize, f64)| a.1 > b.1 || (a.1 == b.1 && a.0 > b.0);
    for c in candidates {
        if best.len() == k + 1 && !worse(&best[k], &c) {
            continue;
        }
        let pos = best.partition_point(|e| !worse(e, &c));
        best.insert(pos, c);
        best.truncate(k + 1);
    }
    best
}

/// Brute-force `k + 1` nearest rows of `data` to `query` (ids are row
/// indices).
pub fn brute_force(data: &Dataset, query: &[f64], k: usize) -> Vec<(usize, f64)> {
    top_k_plus_one(data.rows().map(|r| sq_dist(r, query)).enumerate(), k)
}

/// Checks one kNN answer against the oracle's `k + 1` best. Returns a
/// description of the first disagreement.
///
/// Positions must agree in distance within [`REL_TOL`]. Ids must match
/// exactly, except that when the k-th and (k+1)-th oracle distances are
/// that close, an id at that boundary distance may stand for either.
/// `dist_of` recomputes the distance of a returned id (`None` when the
/// id is not live), so a returned id cannot carry another row's distance.
pub fn check_knn(
    answer: &[(usize, f64)],
    truth: &[(usize, f64)],
    k: usize,
    dist_of: impl Fn(usize) -> Option<f64>,
) -> Result<(), String> {
    let want = k.min(truth.len());
    if answer.len() != want {
        return Err(format!(
            "{} neighbours returned, {want} expected",
            answer.len()
        ));
    }
    let boundary_tie = truth.len() > k && close(truth[k - 1].1, truth[k].1);
    for (j, (&(id, d), &(tid, td))) in answer.iter().zip(truth).enumerate() {
        if !close(d, td) {
            return Err(format!("rank {j}: distance {d} vs oracle {td}"));
        }
        match dist_of(id) {
            None => return Err(format!("rank {j}: id {id} is not live")),
            Some(real) if !close(real, d) => {
                return Err(format!(
                    "rank {j}: id {id} reported {d}, its distance is {real}"
                ))
            }
            Some(_) => {}
        }
        let in_truth = truth[..want].iter().any(|&(t, _)| t == id);
        let tie = boundary_tie && close(d, truth[k - 1].1);
        if !in_truth && !tie {
            return Err(format!(
                "rank {j}: id {id} is not among the oracle's (rank id {tid})"
            ));
        }
    }
    let mut ids: Vec<usize> = answer.iter().map(|&(id, _)| id).collect();
    ids.sort_unstable();
    ids.dedup();
    if ids.len() != answer.len() {
        return Err("duplicate id in answer".to_string());
    }
    Ok(())
}

/// Which rows are live in a mutating engine: the initial rows plus the
/// ids the server assigned to inserts, minus the deleted ids. Ids are
/// predicted the way the engine documents them (inserts count up from
/// the initial row count), and every reply is checked against the
/// prediction.
#[derive(Debug, Clone)]
pub struct LiveSet {
    /// `row[id]` = the source row the id holds (`None` once deleted).
    row: Vec<Option<Row>>,
    /// Live ids, for uniform picks.
    live: Vec<usize>,
    /// Position of each live id in `live`.
    slot: HashMap<usize, usize>,
}

/// Where a live id's vector comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Row {
    /// Row `i` of the initial dataset.
    Initial(usize),
    /// Row `i` of the held-out set.
    HeldOut(usize),
}

impl LiveSet {
    /// The initial `n` rows, ids `0..n`.
    pub fn new(n: usize) -> Self {
        Self {
            row: (0..n).map(|i| Some(Row::Initial(i))).collect(),
            live: (0..n).collect(),
            slot: (0..n).map(|i| (i, i)).collect(),
        }
    }

    /// The id the next insert will be assigned.
    pub fn next_id(&self) -> usize {
        self.row.len()
    }

    /// Applies an insert of held-out row `h`; returns its id.
    pub fn insert(&mut self, h: usize) -> usize {
        let id = self.row.len();
        self.row.push(Some(Row::HeldOut(h)));
        self.slot.insert(id, self.live.len());
        self.live.push(id);
        id
    }

    /// Applies a delete; returns whether `id` was live (what the engine
    /// must answer).
    pub fn delete(&mut self, id: usize) -> bool {
        let Some(slot) = self.row.get_mut(id) else {
            return false;
        };
        if slot.take().is_none() {
            return false;
        }
        let pos = self.slot.remove(&id).expect("live id has a slot");
        self.live.swap_remove(pos);
        if let Some(&moved) = self.live.get(pos) {
            self.slot.insert(moved, pos);
        }
        true
    }

    /// The row behind a live id.
    pub fn row_of(&self, id: usize) -> Option<Row> {
        self.row.get(id).copied().flatten()
    }

    /// A uniformly chosen live id (`r` is a random draw).
    pub fn pick(&self, r: u64) -> Option<usize> {
        (!self.live.is_empty()).then(|| self.live[(r % self.live.len() as u64) as usize])
    }

    /// Live `(id, row)` pairs in id order is not needed; any order works
    /// for [`top_k_plus_one`].
    pub fn iter(&self) -> impl Iterator<Item = (usize, Row)> + '_ {
        self.live
            .iter()
            .map(|&id| (id, self.row[id].expect("listed ids are live")))
    }
}

/// Naive Lloyd's k-means with the repository's strided initialisation
/// (`k` rows at stride `n / k`, offset `seed % stride`): assign each
/// point to its nearest center (lowest index on ties), stop when nothing
/// moves, else move each center to its points' mean (an empty cluster
/// keeps its center). Returns the final assignments, the centers they
/// were assigned against, and the iterations run.
pub fn naive_lloyd(data: &Dataset, k: usize, max_iters: usize, seed: u64) -> LloydOracle {
    let n = data.len();
    let d = data.dim();
    let stride = (n / k).max(1);
    let offset = seed as usize % stride;
    let mut centers: Vec<Vec<f64>> = (0..k)
        .map(|c| data.row((offset + c * stride) % n).to_vec())
        .collect();
    let mut assign = vec![usize::MAX; n];
    let mut assigned_against = centers.clone();
    let mut iterations = 0;
    for _ in 0..max_iters {
        iterations += 1;
        let mut changed = 0;
        for (i, row) in data.rows().enumerate() {
            let mut best = (f64::INFINITY, usize::MAX);
            for (c, center) in centers.iter().enumerate() {
                let dist = sq_dist(row, center);
                if dist < best.0 {
                    best = (dist, c);
                }
            }
            if assign[i] != best.1 {
                assign[i] = best.1;
                changed += 1;
            }
        }
        assigned_against = centers.clone();
        if changed == 0 {
            break;
        }
        let mut sums = vec![vec![0.0; d]; k];
        let mut counts = vec![0usize; k];
        for (row, &a) in data.rows().zip(&assign) {
            counts[a] += 1;
            for (s, &v) in sums[a].iter_mut().zip(row) {
                *s += v;
            }
        }
        for (c, (mut sum, count)) in sums.into_iter().zip(counts).enumerate() {
            if count > 0 {
                sum.iter_mut().for_each(|v| *v /= count as f64);
                centers[c] = sum;
            }
        }
    }
    LloydOracle {
        assignments: assign,
        centers: assigned_against,
        iterations,
    }
}

/// The naive Lloyd's result a k-means run is checked against.
pub struct LloydOracle {
    pub assignments: Vec<usize>,
    /// Centers of the last assign step.
    pub centers: Vec<Vec<f64>>,
    pub iterations: usize,
}

impl LloydOracle {
    /// Checks a run's assignments: equal to the oracle's, except where
    /// the point is equidistant (within [`REL_TOL`]) from both centers.
    /// Returns the number of points that disagree without a near tie.
    pub fn mismatches(&self, data: &Dataset, assignments: &[usize]) -> usize {
        if assignments.len() != self.assignments.len() {
            return assignments.len().max(self.assignments.len());
        }
        assignments
            .iter()
            .zip(&self.assignments)
            .enumerate()
            .filter(|&(i, (&got, &want))| {
                got != want
                    && !(got < self.centers.len()
                        && close(
                            sq_dist(data.row(i), &self.centers[got]),
                            sq_dist(data.row(i), &self.centers[want]),
                        ))
            })
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Dataset {
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![(i % 8) as f64 / 8.0, (i / 8) as f64 / 5.0, 0.5])
            .collect();
        Dataset::from_rows(&rows).unwrap()
    }

    #[test]
    fn brute_force_orders_by_distance_then_id() {
        let data = Dataset::from_rows(&[
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![0.1, 0.0],
        ])
        .unwrap();
        let got = brute_force(&data, &[0.0, 0.0], 2);
        assert_eq!(got.len(), 3);
        assert_eq!(got[0], (0, 0.0));
        assert_eq!(got[1].0, 3);
        // Rows 1 and 2 tie at distance 1: the lower id wins the slot.
        assert_eq!(got[2], (1, 1.0));
    }

    #[test]
    fn check_accepts_exact_and_boundary_ties_only() {
        let truth = vec![(4, 0.5), (2, 1.0), (7, 2.0), (9, 2.0)];
        let dist = |id: usize| match id {
            4 => Some(0.5),
            2 => Some(1.0),
            7 | 9 => Some(2.0),
            5 => Some(3.0),
            _ => None,
        };
        assert!(check_knn(&[(4, 0.5), (2, 1.0), (7, 2.0)], &truth, 3, dist).is_ok());
        // The k-th and (k+1)-th tie, so either id is accepted.
        assert!(check_knn(&[(4, 0.5), (2, 1.0), (9, 2.0)], &truth, 3, dist).is_ok());
        // A wrong id with the right distance is caught by recomputation.
        assert!(check_knn(&[(4, 0.5), (2, 1.0), (5, 2.0)], &truth, 3, dist).is_err());
        // A dead id, a wrong distance, a short answer, a duplicate.
        assert!(check_knn(&[(4, 0.5), (2, 1.0), (8, 2.0)], &truth, 3, dist).is_err());
        assert!(check_knn(&[(4, 0.5), (2, 1.1), (7, 2.0)], &truth, 3, dist).is_err());
        assert!(check_knn(&[(4, 0.5), (2, 1.0)], &truth, 3, dist).is_err());
        assert!(check_knn(
            &[(4, 0.5), (4, 0.5), (7, 2.0)],
            &[(4, 0.5), (4, 0.5), (7, 2.0)],
            3,
            dist
        )
        .is_err());
        // Without a boundary tie the (k+1)-th id is wrong.
        let strict = vec![(4, 0.5), (2, 1.0), (7, 2.0), (9, 2.5)];
        let dist2 = |id: usize| if id == 9 { Some(2.0) } else { dist(id) };
        assert!(check_knn(&[(4, 0.5), (2, 1.0), (9, 2.0)], &strict, 3, dist2).is_err());
        // Distances within 1e-9 relative pass.
        assert!(check_knn(&[(4, 0.5 + 1e-12), (2, 1.0), (7, 2.0)], &truth, 3, dist).is_ok());
    }

    #[test]
    fn live_set_tracks_inserts_and_deletes() {
        let mut live = LiveSet::new(3);
        assert_eq!(live.next_id(), 3);
        assert_eq!(live.insert(0), 3);
        assert_eq!(live.row_of(3), Some(Row::HeldOut(0)));
        assert!(live.delete(1));
        assert!(!live.delete(1), "a second delete of the same id misses");
        assert!(!live.delete(99), "an id never assigned misses");
        assert_eq!(live.iter().count(), 3);
        assert_eq!(live.row_of(1), None);
        let mut ids: Vec<usize> = live.iter().map(|(id, _)| id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 2, 3]);
        for r in 0..10 {
            assert_ne!(live.pick(r), Some(1));
        }
        assert_eq!(live.insert(5), 4, "ids keep counting after deletes");
    }

    #[test]
    fn naive_lloyd_converges_on_a_grid() {
        let data = grid();
        let oracle = naive_lloyd(&data, 4, 20, 7);
        assert!(oracle.iterations >= 2 && oracle.iterations <= 20);
        assert_eq!(oracle.mismatches(&data, &oracle.assignments), 0);
        // Each point sits at a center at least as close as any other.
        for (i, &a) in oracle.assignments.iter().enumerate() {
            let mine = sq_dist(data.row(i), &oracle.centers[a]);
            assert!(oracle
                .centers
                .iter()
                .all(|c| mine <= sq_dist(data.row(i), c)));
        }
        let mut wrong = oracle.assignments.clone();
        let i = (0..wrong.len())
            .find(|&i| {
                let other = (wrong[i] + 1) % 4;
                !close(
                    sq_dist(data.row(i), &oracle.centers[other]),
                    sq_dist(data.row(i), &oracle.centers[wrong[i]]),
                )
            })
            .unwrap();
        wrong[i] = (wrong[i] + 1) % 4;
        assert_eq!(oracle.mismatches(&data, &wrong), 1);
    }

    #[test]
    fn naive_lloyd_matches_the_program_on_small_data() {
        use simpim_mining::kmeans::{lloyd::kmeans_lloyd, KmeansConfig};
        let inputs = crate::inputs::generate(simpim_datasets::PaperDataset::NusWide, 300, 0, 0, 5);
        let cfg = KmeansConfig {
            k: 6,
            max_iters: 6,
            seed: 7,
        };
        let program = kmeans_lloyd(&inputs.data, &cfg, None).unwrap();
        let oracle = naive_lloyd(&inputs.data, 6, 6, 7);
        assert_eq!(program.iterations, oracle.iterations);
        assert_eq!(oracle.mismatches(&inputs.data, &program.assignments), 0);
    }
}

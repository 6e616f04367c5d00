//! Seeded workload inputs and the in-memory dataset source.
//!
//! Every input a run feeds the program is made from the `--seed`
//! argument and the workload's dataset spec: which generated rows are
//! served and which are held out for inserts, and the query pool
//! (perturbed served rows). Generation happens once, before any timed
//! phase; [`MemSource`] then replays the rows from memory so
//! set-up time measures bank programming, not the generator.

use std::time::Instant;

use simpim_datasets::{DatasetSource, PaperDataset, SynthSource, SyntheticConfig};
use simpim_similarity::Dataset;

/// SplitMix64: a small, well-mixed generator for the benchmark's own
/// choices (query rows, noise, op mix). Independent of the program's RNG.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// One N(0, 1) sample (Box–Muller).
    pub fn gauss(&mut self) -> f64 {
        let u1 = self.unit().max(f64::MIN_POSITIVE);
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

/// A workload's generated inputs.
pub struct Inputs {
    /// The rows the program is opened over (or clusters).
    pub data: Dataset,
    /// Rows held out of `data`, inserted during the run.
    pub held_out: Dataset,
    /// Query pool: perturbed rows of `data`, cycled by the load generator.
    pub queries: Vec<Vec<f64>>,
    /// Wall seconds spent generating all of the above (reference only).
    pub gen_s: f64,
}

/// Generates `n + held_out` rows shaped like `dataset`, holds out
/// `held_out` of the last `4 · held_out` chosen by `seed`, and makes
/// `queries` perturbed copies of seed-chosen rows (noise σ = 0.02,
/// clamped to the normalized range).
///
/// The rows themselves come from the dataset spec's own generator seed,
/// so every seed runs the same data distribution and cluster layout, and
/// most rows are served at every seed; the seed moves which tail rows are
/// served and which inserted, and what is asked. A seed that redrew the
/// clusters would change how much the bounds prune, which is a different
/// workload rather than another sample of this one.
pub fn generate(
    dataset: PaperDataset,
    n: usize,
    held_out: usize,
    queries: usize,
    seed: u64,
) -> Inputs {
    let start = Instant::now();
    let spec = dataset.spec();
    let total = n + held_out;
    let d = spec.d;
    let mut src = SynthSource::new(SyntheticConfig::from_spec(&spec, total));
    let mut flat = Vec::with_capacity(total * d);
    while src.next_block(8192, &mut flat) > 0 {}
    let mut rng = Rng::new(seed);
    // Partial Fisher-Yates over the tail: the first `held_out` slots are
    // the held rows.
    let mut order: Vec<usize> = (total.saturating_sub(4 * held_out)..total).collect();
    let tail = order.len();
    for i in 0..held_out {
        order.swap(i, i + rng.below(tail - i));
    }
    let mut is_held = vec![false; total];
    let mut rest = Vec::with_capacity(held_out * d);
    for &h in &order[..held_out] {
        is_held[h] = true;
        rest.extend_from_slice(&flat[h * d..(h + 1) * d]);
    }
    let mut w = 0;
    for (i, held) in is_held.into_iter().enumerate() {
        if !held {
            flat.copy_within(i * d..(i + 1) * d, w * d);
            w += 1;
        }
    }
    flat.truncate(n * d);
    let data = Dataset::from_flat(flat, d).expect("whole rows");
    let held = Dataset::from_flat(rest, d).expect("whole rows");
    let queries = (0..queries)
        .map(|_| {
            let base = data.row(rng.below(n));
            base.iter()
                .map(|&v| (v + 0.02 * rng.gauss()).clamp(0.0, 1.0))
                .collect()
        })
        .collect();
    Inputs {
        data,
        held_out: held,
        queries,
        gen_s: start.elapsed().as_secs_f64(),
    }
}

/// A [`DatasetSource`] over rows already in memory: the engine streams
/// blocks out of it exactly as it would out of a generator, at the cost
/// of a copy.
pub struct MemSource<'a> {
    data: &'a Dataset,
    pos: usize,
}

impl<'a> MemSource<'a> {
    pub fn new(data: &'a Dataset) -> Self {
        Self { data, pos: 0 }
    }
}

impl DatasetSource for MemSource<'_> {
    fn dim(&self) -> usize {
        self.data.dim()
    }

    fn total(&self) -> usize {
        self.data.len()
    }

    fn position(&self) -> usize {
        self.pos
    }

    fn next_block(&mut self, max_rows: usize, out: &mut Vec<f64>) -> usize {
        let rows = max_rows.min(self.data.len() - self.pos);
        let d = self.data.dim();
        out.extend_from_slice(&self.data.as_flat()[self.pos * d..(self.pos + rows) * d]);
        self.pos += rows;
        rows
    }

    fn reset(&mut self) {
        self.pos = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = generate(PaperDataset::Year, 200, 10, 4, 1);
        let b = generate(PaperDataset::Year, 200, 10, 4, 1);
        let c = generate(PaperDataset::Year, 200, 10, 4, 2);
        assert_eq!(a.data.as_flat(), b.data.as_flat());
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.held_out.as_flat(), b.held_out.as_flat());
        assert_ne!(a.queries, c.queries);
        assert_ne!(a.held_out.as_flat(), c.held_out.as_flat());
        assert!(a.queries.iter().flatten().all(|v| (0.0..=1.0).contains(v)));
        // Held-out and served rows partition the generated rows.
        let all = SynthSource::new(SyntheticConfig::from_spec(&PaperDataset::Year.spec(), 210))
            .materialize();
        let mut got: Vec<&[f64]> = a.data.rows().chain(a.held_out.rows()).collect();
        let mut want: Vec<&[f64]> = all.rows().collect();
        got.sort_by(|x, y| x.partial_cmp(y).unwrap());
        want.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert_eq!(got, want);
    }

    #[test]
    fn mem_source_replays_rows_in_blocks() {
        let inputs = generate(PaperDataset::Year, 50, 0, 0, 3);
        let mut src = MemSource::new(&inputs.data);
        let mut out = Vec::new();
        while src.next_block(7, &mut out) > 0 {}
        assert_eq!(out, inputs.data.as_flat());
        assert_eq!(src.position(), 50);
        src.reset();
        assert_eq!(src.materialize().as_flat(), inputs.data.as_flat());
    }
}

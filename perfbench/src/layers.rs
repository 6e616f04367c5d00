//! Layer-by-layer measurements: each function drives one layer through
//! its public API on the workload's own data and times it from here.

use std::time::Instant;

use simpim_core::executor::ExecutorConfig;
use simpim_core::PimExecutor;
use simpim_mining::kmeans::pim::PimAssist;
use simpim_mining::kmeans::{drake, elkan, lloyd, yinyang, KmeansConfig, KmeansResult};
use simpim_mining::knn::resident::{merge_neighbors, refine_resident, ShardView};
use simpim_mining::MiningError;
use simpim_net::wire::{
    decode_request, decode_response, encode_request, encode_response, Envelope,
};
use simpim_net::{Request, Response};
use simpim_similarity::{measures, Dataset, Measure};
use simpim_simkit::{HostParams, OpCounters};

use crate::oracle::{brute_force, check_knn, sq_dist, LloydOracle};
use crate::report::{OpKind, Report};
use crate::serving::K;
use crate::stats::median;
use crate::trace::Tracer;

/// Rows per block when programming a shard, as the engine streams them.
pub const BLOCK_ROWS: usize = 8192;

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// One shard programmed the way the engine programs a replica, kept for
/// the replay.
pub struct ShardReplay {
    rows: Dataset,
    ids: Vec<usize>,
    live: Vec<bool>,
    exec: PimExecutor,
}

/// Splits `data` into the engine's contiguous shards and programs each
/// with `begin_euclidean_resident` / `push_rows` / `finish`. Returns the
/// shards and the milliseconds each took.
pub fn program_shards(
    data: &Dataset,
    shards: usize,
    cfg: ExecutorConfig,
    spare: usize,
) -> (Vec<ShardReplay>, Vec<f64>) {
    let d = data.dim();
    let chunk = data.len().div_ceil(shards);
    let mut out = Vec::new();
    let mut times = Vec::new();
    for start in (0..data.len()).step_by(chunk) {
        let end = (start + chunk).min(data.len());
        let flat = &data.as_flat()[start * d..end * d];
        let t = Instant::now();
        let mut builder = PimExecutor::begin_euclidean_resident(cfg, end - start, d, spare)
            .expect("shard fits its bank");
        for block in flat.chunks(BLOCK_ROWS * d) {
            builder.push_rows(block).expect("rows fit");
        }
        let exec = builder.finish().expect("shard programmed");
        times.push(ms(t));
        out.push(ShardReplay {
            rows: Dataset::from_flat(flat.to_vec(), d).expect("whole rows"),
            ids: (start..end).collect(),
            live: vec![true; end - start],
            exec,
        });
    }
    (out, times)
}

/// Per-layer figures of a kNN replay.
#[derive(Debug, Default, Clone)]
pub struct KnnLayers {
    pub bound_us: f64,
    pub bound_ns_per_row: f64,
    pub model_ns: f64,
    pub order_us: f64,
    /// `refine_resident` time per query, ordering included.
    pub refine_total_us: f64,
    pub rows_per_query: f64,
    pub pruned_share: f64,
    pub merge_us: f64,
    /// Wall ms of the whole replay.
    pub wall_ms: f64,
}

/// Replays the engine's query path for `queries` in batches of `batch`:
/// per shard one `lb_ed_batch_multi` bound pass, then per query the
/// candidate ordering and `refine_resident`, then `merge_neighbors`
/// across shards. Ordering is timed on its own with the same sort
/// `refine_resident` performs first. Every merged answer is checked
/// against `truth` (by query index); ids are row indices of `data`.
pub fn knn_replay(
    shards: &mut [ShardReplay],
    data: &Dataset,
    queries: &[Vec<f64>],
    batch: usize,
    tracer: &mut Tracer,
    truth: &dyn Fn(usize) -> Vec<(usize, f64)>,
    report: &mut Report,
) -> KnnLayers {
    let start = Instant::now();
    let rows: usize = shards.iter().map(|s| s.rows.len()).sum();
    let (mut refined, mut pruned, mut model_ns) = (0u64, 0u64, 0.0);
    for (b, chunk) in queries.chunks(batch).enumerate() {
        let base = b * batch;
        let request = b as u64;
        tracer.span("serve.batch", None, request, |t, me| {
            let mut parts: Vec<Vec<Vec<(usize, f64)>>> = vec![Vec::new(); chunk.len()];
            for shard in shards.iter_mut() {
                let bounds = t.span("core.bound_pass", me, request, |_, _| {
                    shard.exec.lb_ed_batch_multi(chunk).expect("bound pass")
                });
                for (qi, (q, bb)) in chunk.iter().zip(&bounds).enumerate() {
                    model_ns += bb.timing.total_ns();
                    let ids = &shard.ids;
                    t.span("par.order", me, request, |_, _| {
                        let mut order: Vec<(f64, usize)> = bb
                            .values
                            .iter()
                            .copied()
                            .enumerate()
                            .map(|(i, v)| (v, i))
                            .collect();
                        simpim_par::sort_by(&mut order, |a, b| {
                            a.0.total_cmp(&b.0).then(ids[a.1].cmp(&ids[b.1]))
                        });
                        std::hint::black_box(order);
                    });
                    let view = ShardView {
                        rows: &shard.rows,
                        ids: &shard.ids,
                        live: &shard.live,
                        bounds: &bb.values,
                    };
                    let part = t.span("mining.refine", me, request, |_, _| {
                        refine_resident(&view, q, K, Measure::EuclideanSq, &mut OpCounters::new())
                            .expect("refine")
                    });
                    refined += part.refined;
                    pruned += part.pruned;
                    parts[qi].push(part.neighbors);
                }
            }
            for (qi, part) in parts.iter().enumerate() {
                let merged = t.span("mining.merge", me, request, |_, _| {
                    merge_neighbors(part, K, true)
                });
                let q = &queries[base + qi];
                let verdict = check_knn(&merged, &truth(base + qi), K, |id| {
                    (id < data.len()).then(|| sq_dist(data.row(id), q))
                });
                report.count(
                    OpKind::Knn,
                    verdict.map_err(|e| (format!("replay: {e}"), true)),
                );
            }
        });
    }
    let n = queries.len().max(1);
    let times = tracer.self_times();
    let us = |name: &str| times.get(name).map_or(0.0, |e| e.0 as f64 / 1e3) / n as f64;
    let order_us = us("par.order");
    KnnLayers {
        bound_us: us("core.bound_pass"),
        bound_ns_per_row: us("core.bound_pass") * 1e3 / rows as f64,
        model_ns: model_ns / n as f64,
        order_us,
        refine_total_us: us("mining.refine"),
        rows_per_query: refined as f64 / n as f64,
        pruned_share: pruned as f64 / (pruned + refined).max(1) as f64,
        merge_us: us("mining.merge"),
        wall_ms: ms(start),
    }
}

/// Appends up to the shard's spare rows with `append_row`; median µs.
pub fn append_rows(shard: &mut ShardReplay, rows: &Dataset, count: usize) -> f64 {
    let times: Vec<f64> = (0..count.min(rows.len()))
        .map_while(|i| {
            let t = Instant::now();
            shard.exec.append_row(rows.row(i)).ok()?;
            Some(ms(t) * 1e3)
        })
        .collect();
    median(&times).unwrap_or(f64::NAN)
}

/// µs to encode and to decode one kNN request frame plus its response
/// frame, over the query pool and the answers the workload returned.
pub fn codec(queries: &[Vec<f64>], answer: &[(usize, f64)], reps: usize) -> (f64, f64) {
    let neighbors: Vec<(u64, f64)> = answer.iter().map(|&(id, d)| (id as u64, d)).collect();
    let (mut enc, mut dec) = (0.0, 0.0);
    let mut ops = 0usize;
    for _ in 0..reps {
        for (i, q) in queries.iter().enumerate() {
            let t = Instant::now();
            let req = encode_request(&Envelope {
                request_id: i as u64,
                trace_id: 1,
                span_id: 1,
                msg: Request::Query {
                    k: K as u32,
                    timeout_ms: 0,
                    vector: q.clone(),
                },
            });
            let resp = encode_response(&Envelope {
                request_id: i as u64,
                trace_id: 1,
                span_id: 1,
                msg: Response::Query(neighbors.clone()),
            });
            enc += ms(t);
            let t = Instant::now();
            let a = decode_request(&req[4..]).expect("own frame decodes");
            let b = decode_response(&resp[4..]).expect("own frame decodes");
            dec += ms(t);
            std::hint::black_box((a, b));
            ops += 1;
        }
    }
    (enc * 1e3 / ops as f64, dec * 1e3 / ops as f64)
}

/// ns per dimension of the program's `euclidean_sq` over `data`'s rows.
pub fn kern_ed(data: &Dataset, query: &[f64]) -> f64 {
    let rows = data.len().min(8192);
    let reps = 8;
    let t = Instant::now();
    let mut acc = 0.0;
    for _ in 0..reps {
        for i in 0..rows {
            acc += measures::euclidean_sq(std::hint::black_box(data.row(i)), query);
        }
    }
    std::hint::black_box(acc);
    ms(t) * 1e6 / (reps * rows * data.dim()) as f64
}

/// µs per query of the benchmark's own single-threaded brute-force scan.
pub fn scan(data: &Dataset, queries: &[Vec<f64>]) -> f64 {
    let t = Instant::now();
    for q in queries {
        std::hint::black_box(brute_force(data, q, K));
    }
    ms(t) * 1e3 / queries.len() as f64
}

/// The four `-PIM` k-means variants, in job order.
pub const VARIANTS: [&str; 4] = ["standard", "elkan", "drake", "yinyang"];

type KmeansFn =
    fn(&Dataset, &KmeansConfig, Option<&mut PimAssist<'_>>) -> Result<KmeansResult, MiningError>;

const VARIANT_FNS: [KmeansFn; 4] = [
    lloyd::kmeans_lloyd,
    elkan::kmeans_elkan,
    drake::kmeans_drake,
    yinyang::kmeans_yinyang,
];

/// Wall time, iterations, modeled time and exact-distance count of the
/// four variants, accumulated over jobs.
#[derive(Debug, Default, Clone)]
pub struct KmeansTally {
    pub wall_s: [f64; 4],
    pub iterations: [usize; 4],
    pub model_ms: f64,
    pub exact_ed: f64,
}

impl KmeansTally {
    pub fn total_iterations(&self) -> usize {
        self.iterations.iter().sum()
    }
}

/// One k-means job: the four `-PIM` variants from the same initial
/// centers over the programmed `exec`. Each variant's assignments are
/// checked against the naive Lloyd's oracle and against the job's first
/// variant; its iterations count as operations.
pub fn kmeans_job(
    data: &Dataset,
    exec: &mut PimExecutor,
    cfg: &KmeansConfig,
    oracle: &LloydOracle,
    tally: &mut KmeansTally,
    report: &mut Report,
) {
    let params = HostParams::default();
    let mut first: Option<Vec<usize>> = None;
    for (v, run) in VARIANT_FNS.iter().enumerate() {
        let t = Instant::now();
        let mut assist = PimAssist::new(exec);
        let res = run(data, cfg, Some(&mut assist));
        tally.wall_s[v] += t.elapsed().as_secs_f64();
        let res = match res {
            Ok(res) => res,
            Err(e) => {
                report.count(
                    OpKind::KmeansIter,
                    Err((format!("{}: {e}", VARIANTS[v]), false)),
                );
                continue;
            }
        };
        tally.iterations[v] += res.iterations;
        tally.model_ms += res.report.total_ms(&params);
        tally.exact_ed += res
            .report
            .profile
            .get("ED")
            .map_or(0.0, |r| r.counters.mul as f64 / data.dim() as f64);
        let bad = oracle.mismatches(data, &res.assignments);
        let verdict = if res.iterations != oracle.iterations {
            Err(format!(
                "{}: {} iterations, oracle {}",
                VARIANTS[v], res.iterations, oracle.iterations
            ))
        } else if bad > 0 {
            Err(format!(
                "{}: {bad} assignments disagree with the oracle",
                VARIANTS[v]
            ))
        } else if first.as_ref().is_some_and(|f| *f != res.assignments) {
            Err(format!(
                "{}: assignments differ from standard-PIM",
                VARIANTS[v]
            ))
        } else {
            Ok(())
        };
        first.get_or_insert(res.assignments);
        report.count_n(
            OpKind::KmeansIter,
            res.iterations as u64,
            verdict.map_err(|e| (e, true)),
        );
    }
}

/// Milliseconds of one `PimAssist::refresh` (one iteration's bound
/// passes) for `centers`, median of `reps`.
pub fn refresh(exec: &mut PimExecutor, centers: &[Vec<f64>], reps: usize) -> f64 {
    let mut times = Vec::new();
    for _ in 0..reps {
        let mut assist = PimAssist::new(exec);
        let mut report = simpim_mining::RunReport::new(simpim_mining::Architecture::ReRamPim);
        let t = Instant::now();
        assist.refresh(centers, &mut report).expect("refresh");
        times.push(ms(t));
    }
    median(&times).unwrap_or(f64::NAN)
}

/// Per-layer k-means figures of one tally over `n` points and `k`
/// centers.
pub fn kmeans_layers(tally: &KmeansTally, n: usize, k: usize, report: &mut Report) {
    let names = [
        "mining.kmeans.standard.ms_per_iter",
        "mining.kmeans.elkan.ms_per_iter",
        "mining.kmeans.drake.ms_per_iter",
        "mining.kmeans.yinyang.ms_per_iter",
    ];
    for (v, name) in names.into_iter().enumerate() {
        report.set(
            name,
            tally.wall_s[v] * 1e3 / tally.iterations[v].max(1) as f64,
        );
    }
    let iters = tally.total_iterations().max(1) as f64;
    report.set("mining.kmeans.exact_ed_per_iter", tally.exact_ed / iters);
    report.set(
        "mining.kmeans.pruned_share",
        1.0 - tally.exact_ed / (iters * (n * k) as f64),
    );
}

//! The two workloads. Each one makes its inputs from the seed, times
//! its set-up several times, runs its measured phase for the requested
//! seconds in whole rounds, checks every answer, and reports all
//! end-to-end metrics; a traced run then replays the workload's calls
//! layer by layer for the per-layer metrics.
//!
//! Every workload reports every end-to-end metric. Where the measured
//! phase has no operation of a metric's kind, a short fixed probe on the
//! workload's own data measures it after the timed phase: serve_read's
//! writes and flushes, and on both workloads a small k-means job for
//! `model_ms_per_iter`.

use std::time::Instant;

use simpim_core::executor::ExecutorConfig;
use simpim_core::PimExecutor;
use simpim_datasets::PaperDataset;
use simpim_mining::kmeans::{init_centers, KmeansConfig};
use simpim_net::{NetClient, NetConfig, NetServer};
use simpim_serve::{EngineStats, ServeConfig, ServeEngine};
use simpim_similarity::{Dataset, NormalizedDataset};

use crate::inputs::{generate, Inputs, MemSource};
use crate::layers::{self, KmeansTally};
use crate::oracle::{naive_lloyd, LiveSet};
use crate::report::Report;
use crate::serving::{Client, KnnOracle, Latencies, Mix, Rounds, Session};
use crate::stats::{mean, median, percentile};
use crate::trace::Tracer;

/// A round of one flush.
const FLUSH: Mix = Mix {
    knn: 0,
    inserts: 0,
    deletes: 0,
    flushes: 1,
};

/// Requests sent before a measured loop and left out of its figures, so
/// first-touch costs (cold caches, lazily grown buffers, a new
/// connection) do not land in the tail: they set the p99 on their own.
const WARM_READS: Mix = Mix {
    knn: 16,
    inserts: 0,
    deletes: 0,
    flushes: 0,
};
const WARM_MIXED: Mix = Mix {
    knn: 80,
    inserts: 15,
    deletes: 5,
    flushes: 1,
};

/// Spare rows per shard for online appends (the engine's default).
const SPARE_ROWS: usize = 16;
/// Per-connection in-flight window of the network server.
pub const NET_WINDOW: usize = 32;
/// Set-up repetitions; `setup_s` is their median.
const SERVE_SETUP_REPS: usize = 5;

/// How one run is asked to behave.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

/// Crossbar budget per shard, scaled with `n` as the fig13 trajectory
/// scales it: the default platform times `n / full_n`, split evenly over
/// the shards (at least 256 crossbars each).
fn executor_config(ds: PaperDataset, n: usize, shards: usize) -> ExecutorConfig {
    let mut cfg = ExecutorConfig::default();
    let eff = n as f64 / ds.spec().full_n as f64;
    let fleet = ((cfg.pim.num_crossbars as f64 * eff) as usize).max(256 * shards);
    cfg.pim.num_crossbars = fleet / shards;
    cfg
}

fn serve_config(shards: usize, replicas: usize, executor: ExecutorConfig) -> ServeConfig {
    ServeConfig {
        shards,
        replicas,
        executor,
        spare_rows: SPARE_ROWS,
        max_batch: 8,
        queue_depth: 64,
        ..ServeConfig::default()
    }
}

fn net_config() -> NetConfig {
    NetConfig {
        window: NET_WINDOW,
        ..NetConfig::default()
    }
}

fn open(cfg: &ServeConfig, data: &Dataset) -> ServeEngine {
    ServeEngine::open_source(cfg.clone(), &mut MemSource::new(data)).expect("engine opens")
}

/// Opens the engine `reps` times from rows in memory, dropping each
/// before the next; returns the last engine and every open's seconds.
fn open_reps(cfg: &ServeConfig, data: &Dataset, reps: usize) -> (ServeEngine, Vec<f64>) {
    let mut engine = None;
    let mut secs = Vec::new();
    for _ in 0..reps {
        drop(engine.take());
        let t = Instant::now();
        engine = Some(open(cfg, data));
        secs.push(t.elapsed().as_secs_f64());
    }
    (engine.expect("reps >= 1"), secs)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn p50(samples: &[f64]) -> f64 {
    median(samples).unwrap_or(f64::NAN)
}

/// The latency metrics of one run. A tail the samples cannot carry is
/// reported as NaN, which the result line refuses.
fn latency_metrics(report: &mut Report, knn: &[f64], write: &[f64], flush: &[f64]) {
    report.set("query_p50_ms", p50(knn));
    report.set("query_p99_ms", percentile(knn, 0.99).unwrap_or(f64::NAN));
    report.set("write_p50_ms", p50(write));
    report.set("flush_p50_ms", p50(flush));
    report.note("query_samples", knn.len());
    report.note("write_samples", write.len());
    report.note("flush_samples", flush.len());
}

/// Queue wait (p50 µs) and mean batch size from the engine's counters.
fn engine_layers(stats: &EngineStats, report: &mut Report) -> (f64, f64) {
    let queue_us = stats
        .stage_latency
        .iter()
        .find(|s| s.stage == "queue")
        .map_or(f64::NAN, |s| s.p50_ns as f64 / 1e3);
    report.set("serve.queue.p50_us", queue_us);
    let mean_batch = stats.queries as f64 / stats.batches.max(1) as f64;
    report.set("serve.batch.mean_queries", mean_batch);
    (queue_us, mean_batch)
}

/// Mean host-delta rows over every replica of every shard.
fn mean_delta(stats: &EngineStats) -> f64 {
    let deltas: Vec<f64> = stats
        .shards
        .iter()
        .flat_map(|s| s.replicas.iter().map(|r| r.delta as f64))
        .collect();
    mean(&deltas)
}

/// Nine rounds of 80 inserts and 16 deletes, each followed by a flush,
/// one request at a time. Inserts outnumber the shards' spare rows, so
/// some land in the host delta the flush folds back. Returns the
/// latencies and the mean host-delta rows seen just before each flush.
fn write_probe(engine: &ServeEngine, session: &mut Session, inputs: &Inputs) -> (Latencies, f64) {
    let client = Client::Local(engine);
    let writes = Mix {
        knn: 0,
        inserts: 80,
        deletes: 16,
        flushes: 0,
    };
    let mut lat = Latencies::default();
    let mut deltas = Vec::new();
    for _ in 0..9 {
        let w = session.run(
            &client,
            &inputs.queries,
            &inputs.held_out,
            writes,
            1,
            Rounds::exactly(1),
        );
        deltas.push(mean_delta(&engine.stats().expect("stats")));
        let f = session.run(
            &client,
            &inputs.queries,
            &inputs.held_out,
            FLUSH,
            1,
            Rounds::exactly(1),
        );
        lat.write.extend(w.lat.write);
        lat.insert.extend(w.lat.insert);
        lat.delete.extend(w.lat.delete);
        lat.flush.extend(f.lat.flush);
    }
    (lat, mean(&deltas))
}

fn set_write_layers(report: &mut Report, lat: &Latencies, delta: f64) {
    report.set("serve.insert.us", p50(&lat.insert) * 1e3);
    report.set("serve.delete.us", p50(&lat.delete) * 1e3);
    report.set("serve.flush.ms", p50(&lat.flush));
    report.set("serve.delta_rows.mean", delta);
}

/// Mean µs per query of the same queries sent one at a time in process
/// and over loopback TCP: the transport's share of a query's latency
/// (one at a time, so batching cannot differ between the two), and the
/// server's bytes per request.
fn transport_probe(
    engine: ServeEngine,
    session: &mut Session,
    inputs: &Inputs,
    report: &mut Report,
) {
    let mix = Mix {
        knn: inputs.queries.len().min(64),
        inserts: 0,
        deletes: 0,
        flushes: 0,
    };
    let (queries, held) = (&inputs.queries, &inputs.held_out);
    session.run(
        &Client::Local(&engine),
        queries,
        held,
        WARM_READS,
        1,
        Rounds::exactly(1),
    );
    let local = session.run(
        &Client::Local(&engine),
        queries,
        held,
        mix,
        1,
        Rounds::exactly(1),
    );
    let server = NetServer::bind("127.0.0.1:0", net_config(), engine).expect("bind loopback");
    let client = NetClient::connect(server.local_addr()).expect("connect loopback");
    session.run(
        &Client::Net(&client),
        queries,
        held,
        WARM_READS,
        1,
        Rounds::exactly(1),
    );
    let wire = session.run(
        &Client::Net(&client),
        queries,
        held,
        mix,
        1,
        Rounds::exactly(1),
    );
    drop(client);
    let net = server.stats();
    server.shutdown();
    report.set(
        "net.transport.us_per_op",
        (mean(&wire.lat.knn) - mean(&local.lat.knn)) * 1e3,
    );
    report.set(
        "net.bytes_per_op",
        (net.bytes_rx + net.bytes_tx) as f64 / net.frames_rx.max(1) as f64,
    );
}

/// Everything a traced run replays after the measured phase.
struct TracedTail<'a> {
    inputs: &'a Inputs,
    shards: usize,
    exec: ExecutorConfig,
    setup_s: f64,
    /// Engine queries per second in the measured phase.
    ops_per_s: f64,
    query_p50_ms: f64,
    queue_p50_us: f64,
    mean_batch: f64,
    label: &'static str,
    seed: u64,
}

/// The layer replay shared by every traced run: shard programming, the
/// kNN query path (traced and untraced, for the overhead), appends, the
/// wire codec, the distance kernel and the brute-force scan.
fn traced_tail(t: TracedTail<'_>, report: &mut Report) {
    let data = &t.inputs.data;
    let (mut shards, program_ms) = layers::program_shards(data, t.shards, t.exec, SPARE_ROWS);
    report.set("core.program.ms_per_shard", mean(&program_ms));
    report.set(
        "serve.open.mirror_ms",
        t.setup_s * 1e3 - program_ms.iter().sum::<f64>(),
    );

    let replay_queries = &t.inputs.queries[..32.min(t.inputs.queries.len())];
    let batch = (t.mean_batch.round() as usize).clamp(1, 8);
    let live = LiveSet::new(data.len());
    let oracle = KnnOracle::new(
        data,
        &Dataset::with_dim(data.dim()).expect("dim"),
        replay_queries,
    );
    let truth = |p: usize| oracle.truth(p, &live);
    // Alternate untraced and traced replays; the overhead compares their
    // median wall times.
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut kept = None;
    for round in 0..6 {
        let on = round % 2 == 1;
        let mut tracer = Tracer::new(on);
        let l = layers::knn_replay(
            &mut shards,
            data,
            replay_queries,
            batch,
            &mut tracer,
            &truth,
            report,
        );
        if on {
            traced.push(l.wall_ms);
            if kept.is_none() {
                let path = std::path::PathBuf::from(format!(
                    "perfbench/out/trace-{}-seed{}.jsonl",
                    t.label, t.seed
                ));
                if let Err(e) = tracer.write_jsonl(&path) {
                    report.note("trace_write_error", e);
                }
                kept = Some(l);
            }
        } else {
            plain.push(l.wall_ms);
        }
    }
    let l = kept.expect("one traced replay");
    report.set("trace.overhead_share", p50(&traced) / p50(&plain) - 1.0);
    report.set("core.bound_pass.us_per_query", l.bound_us);
    report.set("core.bound_pass.ns_per_row", l.bound_ns_per_row);
    report.set("core.bound_pass.model_ns_per_query", l.model_ns);
    report.set("par.order.us_per_query", l.order_us);
    report.set("mining.refine.us_per_query", l.refine_total_us - l.order_us);
    report.set("mining.refine.rows_per_query", l.rows_per_query);
    report.set("mining.refine.pruned_share", l.pruned_share);
    report.set("mining.merge.us_per_query", l.merge_us);
    // The blocking path of one query: its queue wait, its batch's bound
    // passes and refinements over every shard, and on average half the
    // batch's merges.
    let b = batch as f64;
    let predicted_ms = t.queue_p50_us / 1e3
        + (l.bound_us + l.refine_total_us) * b / 1e3
        + l.merge_us * (b + 1.0) / 2.0 / 1e3;
    report.note("blocking_path_predicted_ms", predicted_ms);
    report.note("blocking_path_untraced_p50_ms", t.query_p50_ms);
    report.set(
        "trace.blocking_path_gap_share",
        (predicted_ms - t.query_p50_ms).abs() / t.query_p50_ms,
    );

    report.set(
        "core.append_row.us",
        layers::append_rows(&mut shards[0], &t.inputs.held_out, SPARE_ROWS),
    );
    drop(shards);
    let (enc, dec) = layers::codec(&t.inputs.queries, &truth(0)[..crate::serving::K], 4);
    report.set("net.codec.encode_us", enc);
    report.set("net.codec.decode_us", dec);
    report.set(
        "kern.ed.ns_per_dim",
        layers::kern_ed(data, &t.inputs.queries[0]),
    );
    let scan_us = layers::scan(data, &t.inputs.queries[..4]);
    report.set("scan.us_per_query", scan_us);
    report.set("serve.speedup_vs_scan", scan_us / (1e6 / t.ops_per_s));
    report.set("inputs.gen_s", t.inputs.gen_s);
}

/// A small clustering job on a serving workload's rows (the first 4,032
/// served rows plus 64 pool queries, k = 16, 3 iterations, the four
/// `-PIM` variants, checked against the naive Lloyd's): the serving
/// workloads' `model_ms_per_iter`, and in a traced run their
/// mining.kmeans figures. The queries make the modeled cost depend a
/// little on the seed, as every measured figure should.
fn small_kmeans(ds: PaperDataset, inputs: &Inputs, traced: bool, report: &mut Report) {
    let d = inputs.data.dim();
    let mut flat = inputs.data.as_flat()[..4032 * d].to_vec();
    for q in inputs.queries.iter().take(64) {
        flat.extend_from_slice(q);
    }
    let rows = Dataset::from_flat(flat, d).expect("whole rows");
    let cfg = KmeansConfig {
        k: 16,
        max_iters: 3,
        seed: 7,
    };
    let oracle = naive_lloyd(&rows, cfg.k, cfg.max_iters, cfg.seed);
    let t = Instant::now();
    let mut exec = PimExecutor::prepare_euclidean(
        executor_config(ds, rows.len(), 1),
        NormalizedDataset::assert_normalized_ref(&rows),
    )
    .expect("rows fit");
    let prepare_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut tally = KmeansTally::default();
    layers::kmeans_job(&rows, &mut exec, &cfg, &oracle, &mut tally, report);
    report.set(
        "model_ms_per_iter",
        tally.model_ms / tally.total_iterations().max(1) as f64,
    );
    if traced {
        let refresh_ms = layers::refresh(&mut exec, &init_centers(&rows, cfg.k, cfg.seed), 3);
        report.set("mining.kmeans.refresh.ms_per_iter", refresh_ms);
        report.set("core.prepare.ms", prepare_ms);
        layers::kmeans_layers(&tally, rows.len(), cfg.k, report);
    }
}

/// `serve_read`: the fig13 paper point, read-only kNN in a closed loop of
/// 8 outstanding in-process submissions.
pub fn serve_read(run: &Run, report: &mut Report) {
    let ds = PaperDataset::Msd;
    let (n, shards, replicas, window) = (99_227, 4, 1, 8);
    let inputs = generate(ds, n, 64, 64, run.seed);
    let exec = executor_config(ds, n, shards);
    let cfg = serve_config(shards, replicas, exec);
    describe(report, ds, &inputs, shards, replicas, window);

    let (engine, setup) = open_reps(&cfg, &inputs.data, SERVE_SETUP_REPS);
    let setup_s = p50(&setup);
    report.set("setup_s", setup_s);
    let oracle = KnnOracle::new(&inputs.data, &inputs.held_out, &inputs.queries);

    let mut session = Session::new(n, run.seed);
    let reads = Mix {
        knn: 64,
        inserts: 0,
        deletes: 0,
        flushes: 0,
    };
    let client = Client::Local(&engine);
    session.run(
        &client,
        &inputs.queries,
        &inputs.held_out,
        WARM_READS,
        window,
        Rounds::exactly(1),
    );
    let out = session.run(
        &client,
        &inputs.queries,
        &inputs.held_out,
        reads,
        window,
        Rounds::timed(run.seconds, 16),
    );
    let ops_per_s = out.rate();
    report.set("ops_per_s", ops_per_s);
    let stats = engine.stats().expect("stats");
    let (probe, delta) = write_probe(&engine, &mut session, &inputs);
    latency_metrics(report, &out.lat.knn, &probe.write, &probe.flush);
    small_kmeans(ds, &inputs, run.traced, report);

    if run.traced {
        let (queue_p50_us, mean_batch) = engine_layers(&stats, report);
        set_write_layers(report, &probe, delta);
        transport_probe(engine, &mut session, &inputs, report);
        session.verify(&oracle, report);
        drop(oracle);
        traced_tail(
            TracedTail {
                inputs: &inputs,
                shards,
                exec,
                setup_s,
                ops_per_s,
                query_p50_ms: p50(&out.lat.knn),
                queue_p50_us,
                mean_batch,
                label: "serve_read",
                seed: run.seed,
            },
            report,
        );
    } else {
        drop(engine);
        session.verify(&oracle, report);
    }
    report.set("peak_rss_mib", peak_rss_mib());
}

/// `serve_mixed`: the engine behind the TCP server, one pipelined
/// connection with 4 requests outstanding: 80% kNN, 15% inserts of
/// held-out rows, 5% deletes, a flush after every 100 mutations.
pub fn serve_mixed(run: &Run, report: &mut Report) {
    let ds = PaperDataset::Year;
    let (n, shards, replicas, window) = (51_534, 2, 2, 4);
    let inputs = generate(ds, n, 1024, 128, run.seed);
    let exec = executor_config(ds, n, shards);
    let cfg = serve_config(shards, replicas, exec);
    describe(report, ds, &inputs, shards, replicas, window);

    let mut setup = Vec::new();
    let mut live: Option<(NetServer, NetClient)> = None;
    for _ in 0..SERVE_SETUP_REPS {
        if let Some((server, client)) = live.take() {
            drop(client);
            server.shutdown();
        }
        let t = Instant::now();
        let server = NetServer::bind("127.0.0.1:0", net_config(), open(&cfg, &inputs.data))
            .expect("bind loopback");
        let client = NetClient::connect(server.local_addr()).expect("connect loopback");
        setup.push(t.elapsed().as_secs_f64());
        live = Some((server, client));
    }
    let (server, client) = live.expect("reps >= 1");
    let setup_s = p50(&setup);
    report.set("setup_s", setup_s);
    let oracle = KnnOracle::new(&inputs.data, &inputs.held_out, &inputs.queries);

    let mix = Mix {
        knn: 400,
        inserts: 75,
        deletes: 25,
        flushes: 1,
    };
    let mut session = Session::new(n, run.seed);
    let wire = Client::Net(&client);
    session.run(
        &wire,
        &inputs.queries,
        &inputs.held_out,
        WARM_MIXED,
        window,
        Rounds::exactly(1),
    );
    let out = session.run(
        &wire,
        &inputs.queries,
        &inputs.held_out,
        mix,
        window,
        Rounds::timed(run.seconds, 5),
    );
    let ops_per_s = out.rate();
    report.set("ops_per_s", ops_per_s);
    latency_metrics(report, &out.lat.knn, &out.lat.write, &out.lat.flush);
    let stats = server.engine().stats().expect("stats");
    let net = server.stats();
    drop(client);
    server.shutdown();
    session.verify(&oracle, report);
    small_kmeans(ds, &inputs, run.traced, report);

    if run.traced {
        let (queue_p50_us, mean_batch) = engine_layers(&stats, report);
        report.set(
            "net.bytes_per_op",
            (net.bytes_rx + net.bytes_tx) as f64 / net.frames_rx.max(1) as f64,
        );
        // The same request sequence in process: the same seed makes the
        // same rounds, run one at a time so the host delta can be read
        // before each flush.
        let engine = open(&cfg, &inputs.data);
        let mut replay = Session::new(n, run.seed);
        let client = Client::Local(&engine);
        let writes = Mix { flushes: 0, ..mix };
        let mut lat = Latencies::default();
        let mut deltas = Vec::new();
        let mut all_local = Vec::new();
        replay.run(
            &client,
            &inputs.queries,
            &inputs.held_out,
            WARM_MIXED,
            window,
            Rounds::exactly(1),
        );
        for _ in 0..out.rounds {
            let w = replay.run(
                &client,
                &inputs.queries,
                &inputs.held_out,
                writes,
                window,
                Rounds::exactly(1),
            );
            deltas.push(mean_delta(&engine.stats().expect("stats")));
            let f = replay.run(
                &client,
                &inputs.queries,
                &inputs.held_out,
                FLUSH,
                window,
                Rounds::exactly(1),
            );
            for v in [&w.lat.knn, &w.lat.write, &f.lat.flush] {
                all_local.extend_from_slice(v);
            }
            lat.insert.extend(w.lat.insert);
            lat.delete.extend(w.lat.delete);
            lat.flush.extend(f.lat.flush);
        }
        drop(engine);
        replay.verify(&oracle, report);
        set_write_layers(report, &lat, mean(&deltas));
        let all_wire: Vec<f64> = [&out.lat.knn, &out.lat.write, &out.lat.flush]
            .into_iter()
            .flatten()
            .copied()
            .collect();
        report.set(
            "net.transport.us_per_op",
            (mean(&all_wire) - mean(&all_local)) * 1e3,
        );
        drop(oracle);
        traced_tail(
            TracedTail {
                inputs: &inputs,
                shards,
                exec,
                setup_s,
                ops_per_s: ops_per_s * mix.knn as f64 / mix.requests() as f64,
                query_p50_ms: p50(&out.lat.knn),
                queue_p50_us,
                mean_batch,
                label: "serve_mixed",
                seed: run.seed,
            },
            report,
        );
    }
    report.set("peak_rss_mib", peak_rss_mib());
}

/// Records a workload's shape in the run's notes.
fn describe(
    report: &mut Report,
    ds: PaperDataset,
    inputs: &Inputs,
    shards: usize,
    replicas: usize,
    window: usize,
) {
    report.note("dataset", ds.name());
    report.note("n", inputs.data.len());
    report.note("d", inputs.data.dim());
    report.note("held_out", inputs.held_out.len());
    report.note("query_pool", inputs.queries.len());
    report.note("shards", shards);
    report.note("replicas", replicas);
    report.note("outstanding", window);
    report.note("input_gen_s", format!("{:.3}", inputs.gen_s));
}

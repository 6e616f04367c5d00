//! The closed-loop load generator shared by every workload.
//!
//! One client thread keeps `window` requests outstanding against a
//! [`ServeEngine`] (in process) or a [`NetClient`] (over loopback TCP),
//! submitting the next request when the oldest completes. Requests come
//! in whole rounds of a fixed make-up, so every run attempts the same
//! mix. The generator keeps a [`LiveSet`] in submission order (the order the
//! engine applies commands in), predicts every mutation's result from it,
//! and logs every answer for the oracle check after the timed phase.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use simpim_net::{NetClient, ReplyHandle, Request, Response};
use simpim_obs::TraceCtx;
use simpim_serve::{Pending, ServeEngine};
use simpim_similarity::Dataset;

use crate::inputs::Rng;
use crate::oracle::{check_knn, sq_dist, top_k_plus_one, LiveSet, Row};
use crate::report::{OpKind, Report};

/// Neighbours per query in every serving workload.
pub const K: usize = 10;

/// Queue deadline for every request: far above any latency seen, so a
/// deadline miss shows up as a failure rather than shaping the load.
const TIMEOUT: Duration = Duration::from_secs(30);

/// Where requests go.
pub enum Client<'a> {
    Local(&'a ServeEngine),
    Net(&'a NetClient),
}

/// One request of a round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// kNN for query-pool entry `p`.
    Knn(usize),
    /// Insert held-out row `h`.
    Insert(usize),
    /// Delete an id.
    Delete(usize),
    Flush,
}

/// A reply, transport-independent.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    Knn(Vec<(usize, f64)>),
    Insert(usize),
    Delete(bool),
    Flush,
}

enum Waiter {
    Knn(Pending<Vec<(usize, f64)>>),
    Insert(Pending<usize>),
    Delete(Pending<bool>),
    Flush(Pending<()>),
    Net(ReplyHandle),
}

impl Waiter {
    fn wait(self) -> Result<Reply, String> {
        let err = |e: &dyn std::fmt::Display| e.to_string();
        match self {
            Waiter::Knn(p) => p.wait().map(Reply::Knn).map_err(|e| err(&e)),
            Waiter::Insert(p) => p.wait().map(Reply::Insert).map_err(|e| err(&e)),
            Waiter::Delete(p) => p.wait().map(Reply::Delete).map_err(|e| err(&e)),
            Waiter::Flush(p) => p.wait().map(|()| Reply::Flush).map_err(|e| err(&e)),
            Waiter::Net(h) => match h.wait().map_err(|e| err(&e))? {
                Response::Query(n) => Ok(Reply::Knn(
                    n.into_iter().map(|(id, d)| (id as usize, d)).collect(),
                )),
                Response::Insert(id) => Ok(Reply::Insert(id as usize)),
                Response::Delete(found) => Ok(Reply::Delete(found)),
                Response::Flush => Ok(Reply::Flush),
                other => Err(format!("unexpected response {other:?}")),
            },
        }
    }
}

impl Client<'_> {
    fn submit(&self, op: Op, queries: &[Vec<f64>], held: &Dataset) -> Result<Waiter, String> {
        let e = |e: &dyn std::fmt::Display| e.to_string();
        match self {
            Client::Local(engine) => match op {
                Op::Knn(p) => engine
                    .knn_submit(&queries[p], K, TIMEOUT, TraceCtx::NONE)
                    .map(Waiter::Knn),
                Op::Insert(h) => engine
                    .insert_submit(held.row(h), TraceCtx::NONE)
                    .map(Waiter::Insert),
                Op::Delete(id) => engine.delete_submit(id, TraceCtx::NONE).map(Waiter::Delete),
                Op::Flush => engine.flush_submit(TraceCtx::NONE).map(Waiter::Flush),
            }
            .map_err(|x| e(&x)),
            Client::Net(client) => {
                let req = match op {
                    Op::Knn(p) => Request::Query {
                        k: K as u32,
                        timeout_ms: TIMEOUT.as_millis() as u32,
                        vector: queries[p].clone(),
                    },
                    Op::Insert(h) => Request::Insert {
                        row: held.row(h).to_vec(),
                    },
                    Op::Delete(id) => Request::Delete { id: id as u64 },
                    Op::Flush => Request::Flush,
                };
                client.submit(req).map(Waiter::Net).map_err(|x| e(&x))
            }
        }
    }
}

/// The make-up of one round.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub knn: usize,
    pub inserts: usize,
    pub deletes: usize,
    /// Flushes closing the round (after its mutations).
    pub flushes: usize,
}

impl Mix {
    pub fn requests(&self) -> usize {
        self.knn + self.inserts + self.deletes + self.flushes
    }
}

/// How many rounds a loop runs: at least `min`, at most `max`, and
/// stopping at the first round boundary after `seconds`.
#[derive(Debug, Clone, Copy)]
pub struct Rounds {
    pub min: usize,
    pub max: usize,
    pub seconds: f64,
}

impl Rounds {
    pub fn exactly(n: usize) -> Self {
        Self {
            min: n,
            max: n,
            seconds: 0.0,
        }
    }

    pub fn timed(seconds: f64, min: usize) -> Self {
        Self {
            min,
            max: usize::MAX,
            seconds,
        }
    }
}

/// One logged request: what was sent, what the live set predicted, and
/// what came back.
struct Record {
    op: Op,
    /// Insert: the predicted id. Delete: whether the id was live.
    expected: Option<Reply>,
    reply: Result<Reply, String>,
}

/// Latencies (ms) per request kind, from one loop.
#[derive(Debug, Default, Clone)]
pub struct Latencies {
    pub knn: Vec<f64>,
    pub write: Vec<f64>,
    pub insert: Vec<f64>,
    pub delete: Vec<f64>,
    pub flush: Vec<f64>,
}

/// What a loop did.
pub struct LoopOutcome {
    pub lat: Latencies,
    pub rounds: usize,
    /// Requests per second of each round, from its first submission to
    /// the next round's (the last round ends when its replies are in).
    pub round_rates: Vec<f64>,
}

impl LoopOutcome {
    /// Median of the per-round request rates: a burst of interference
    /// moves a few rounds, not the figure.
    pub fn rate(&self) -> f64 {
        crate::stats::median(&self.round_rates).unwrap_or(f64::NAN)
    }
}

/// Closed-loop state carried across loops on one engine: the live set in
/// submission order, the held-out cursor and the op-mix RNG.
pub struct Session {
    live: LiveSet,
    next_held: usize,
    rng: Rng,
    next_query: usize,
    records: Vec<Record>,
    /// The live set as of the first unchecked record.
    checked_live: LiveSet,
}

impl Session {
    pub fn new(n: usize, seed: u64) -> Self {
        Self {
            live: LiveSet::new(n),
            next_held: 0,
            rng: Rng::new(seed ^ 0x0B5E_55ED),
            next_query: 0,
            records: Vec::new(),
            checked_live: LiveSet::new(n),
        }
    }

    /// The requests of one round, in a seeded order: kNN queries cycle
    /// through the pool, inserts through the held-out rows, and deletes
    /// hit a live id four times in five and an id never assigned
    /// otherwise. Flushes close the round.
    fn round(&mut self, mix: Mix, pool: usize, held: usize) -> Vec<Op> {
        #[derive(Clone, Copy)]
        enum Kind {
            Knn,
            Insert,
            Delete,
        }
        let mut kinds: Vec<Kind> = std::iter::repeat_n(Kind::Knn, mix.knn)
            .chain(std::iter::repeat_n(Kind::Insert, mix.inserts))
            .chain(std::iter::repeat_n(Kind::Delete, mix.deletes))
            .collect();
        for i in (1..kinds.len()).rev() {
            kinds.swap(i, self.rng.below(i + 1));
        }
        let mut ops: Vec<Op> = kinds
            .into_iter()
            .map(|k| match k {
                Kind::Knn => {
                    let p = self.next_query % pool;
                    self.next_query += 1;
                    Op::Knn(p)
                }
                Kind::Insert => {
                    let h = self.next_held % held.max(1);
                    self.next_held += 1;
                    Op::Insert(h)
                }
                // Resolved at submission, against the live set then.
                Kind::Delete => Op::Delete(usize::MAX),
            })
            .collect();
        ops.extend(std::iter::repeat_n(Op::Flush, mix.flushes));
        ops
    }

    /// Picks a delete target from the live set as of submission.
    fn delete_target(&mut self) -> usize {
        let r = self.rng.next_u64();
        if !r.is_multiple_of(5) {
            if let Some(id) = self.live.pick(r / 5) {
                return id;
            }
        }
        // A miss: an id past every id assigned so far.
        self.live.next_id() + 1_000 + (r % 97) as usize
    }

    /// Applies `op` to the predicted live set and returns the predicted
    /// reply of a mutation.
    fn predict(&mut self, op: Op) -> Option<Reply> {
        match op {
            Op::Insert(h) => Some(Reply::Insert(self.live.insert(h))),
            Op::Delete(id) => Some(Reply::Delete(self.live.delete(id))),
            Op::Knn(_) | Op::Flush => None,
        }
    }

    /// Runs whole rounds of `mix` with `window` requests outstanding.
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &mut self,
        client: &Client<'_>,
        queries: &[Vec<f64>],
        held: &Dataset,
        mix: Mix,
        window: usize,
        rounds: Rounds,
    ) -> LoopOutcome {
        let start = Instant::now();
        let mut inflight: VecDeque<(usize, Instant, Waiter)> = VecDeque::new();
        let mut lat = Latencies::default();
        let mut done_rounds = 0;
        let mut round_rates = Vec::new();
        let mut round_start = start;
        let finish = |s: &mut Self,
                      inflight: &mut VecDeque<(usize, Instant, Waiter)>,
                      lat: &mut Latencies| {
            let (idx, sent, waiter) = inflight.pop_front().expect("non-empty");
            let reply = waiter.wait();
            let ms = sent.elapsed().as_secs_f64() * 1e3;
            let rec = &mut s.records[idx];
            rec.reply = reply;
            match rec.op {
                Op::Knn(_) => lat.knn.push(ms),
                Op::Insert(_) => {
                    lat.insert.push(ms);
                    lat.write.push(ms);
                }
                Op::Delete(_) => {
                    lat.delete.push(ms);
                    lat.write.push(ms);
                }
                Op::Flush => lat.flush.push(ms),
            }
        };
        loop {
            let ops = self.round(mix, queries.len(), held.len());
            let round_len = ops.len();
            for mut op in ops {
                if inflight.len() >= window {
                    finish(self, &mut inflight, &mut lat);
                }
                if op == Op::Delete(usize::MAX) {
                    op = Op::Delete(self.delete_target());
                }
                // A flush goes alone: everything before it is answered
                // first, so its latency is the reprogram and not the queue
                // ahead of it, and nothing is sent until it is answered.
                // The server answers a connection in request order, so a
                // request pipelined behind a flush would wait for the whole
                // flush, and those few requests would set the query p99 on
                // their own.
                if op == Op::Flush {
                    while !inflight.is_empty() {
                        finish(self, &mut inflight, &mut lat);
                    }
                }
                let alone = op == Op::Flush;
                let expected = self.predict(op);
                let idx = self.records.len();
                self.records.push(Record {
                    op,
                    expected,
                    reply: Err("not answered".to_string()),
                });
                let sent = Instant::now();
                match client.submit(op, queries, held) {
                    Ok(w) => inflight.push_back((idx, sent, w)),
                    Err(e) => self.records[idx].reply = Err(e),
                }
                if alone {
                    while !inflight.is_empty() {
                        finish(self, &mut inflight, &mut lat);
                    }
                }
            }
            done_rounds += 1;
            let out_of_time = start.elapsed().as_secs_f64() >= rounds.seconds;
            let last = done_rounds >= rounds.max || (done_rounds >= rounds.min && out_of_time);
            if last {
                while !inflight.is_empty() {
                    finish(self, &mut inflight, &mut lat);
                }
            }
            let now = Instant::now();
            round_rates.push(round_len as f64 / (now - round_start).as_secs_f64());
            round_start = now;
            if last {
                break;
            }
        }
        LoopOutcome {
            lat,
            rounds: done_rounds,
            round_rates,
        }
    }

    /// Checks every logged reply since the last check against the
    /// oracles, counting attempts and failures per kind into `report`.
    pub fn verify(&mut self, oracle: &KnnOracle, report: &mut Report) {
        for rec in std::mem::take(&mut self.records) {
            let kind = match rec.op {
                Op::Knn(_) => OpKind::Knn,
                Op::Insert(_) => OpKind::Insert,
                Op::Delete(_) => OpKind::Delete,
                Op::Flush => OpKind::Flush,
            };
            // Advance the checked live set exactly as the engine did.
            match rec.op {
                Op::Insert(h) => {
                    self.checked_live.insert(h);
                }
                Op::Delete(id) => {
                    self.checked_live.delete(id);
                }
                _ => {}
            }
            let verdict = match (&rec.reply, rec.op) {
                (Err(e), _) => Err(format!("error: {e}")),
                (Ok(Reply::Knn(answer)), Op::Knn(p)) => {
                    let truth = oracle.truth(p, &self.checked_live);
                    let live = &self.checked_live;
                    check_knn(answer, &truth, K, |id| {
                        live.row_of(id).map(|row| oracle.dist(p, row))
                    })
                    .map_err(|e| format!("wrong answer for query {p}: {e}"))
                }
                (Ok(got), _) if rec.expected.is_some() => {
                    if Some(got) == rec.expected.as_ref() {
                        Ok(())
                    } else {
                        Err(format!(
                            "{:?}: got {got:?}, expected {:?}",
                            rec.op, rec.expected
                        ))
                    }
                }
                (Ok(Reply::Flush), Op::Flush) => Ok(()),
                (Ok(got), op) => Err(format!("{op:?}: mismatched reply {got:?}")),
            };
            report.count(kind, verdict.map_err(|e| (e, rec.reply.is_ok())));
        }
    }
}

/// Exact distances from each pool query to every initial and held-out
/// row, computed once so each answer's truth is a scan over the live
/// set at the time the query was submitted.
pub struct KnnOracle {
    rows: usize,
    n: usize,
    dists: Vec<f64>,
}

impl KnnOracle {
    pub fn new(data: &Dataset, held: &Dataset, queries: &[Vec<f64>]) -> Self {
        let n = data.len();
        let rows = n + held.len();
        let mut dists = vec![0.0; queries.len() * rows];
        let threads = std::thread::available_parallelism().map_or(1, |t| t.get());
        let per = queries.len().div_ceil(threads).max(1);
        std::thread::scope(|s| {
            for (chunk, qs) in dists.chunks_mut(per * rows).zip(queries.chunks(per)) {
                s.spawn(move || {
                    for (out, q) in chunk.chunks_mut(rows).zip(qs) {
                        for (i, o) in out.iter_mut().enumerate() {
                            let row = if i < n { data.row(i) } else { held.row(i - n) };
                            *o = sq_dist(row, q);
                        }
                    }
                });
            }
        });
        Self { rows, n, dists }
    }

    pub fn dist(&self, p: usize, row: Row) -> f64 {
        let i = match row {
            Row::Initial(i) => i,
            Row::HeldOut(h) => self.n + h,
        };
        self.dists[p * self.rows + i]
    }

    /// The `K + 1` best live ids for pool query `p`.
    pub fn truth(&self, p: usize, live: &LiveSet) -> Vec<(usize, f64)> {
        top_k_plus_one(live.iter().map(|(id, row)| (id, self.dist(p, row))), K)
    }
}

//! The traced replay: where each operation's time goes.
//!
//! One thread feeds a workload's generated requests through the same
//! public functions the replica loop calls — the verify pool, four
//! `OrderingCore`s wired by an in-memory FIFO, the codec and frame
//! authentication on every message, and a `DurableApp` per replica on real
//! disk under the default `SyncPolicy::Sync` — with a span around every
//! call. Requests go in closed-loop rounds (all clients at once, or one
//! request for an open loop, whose batches hold about one request), so
//! batches fill as they do live.
//!
//! The measured part runs twice on fresh replicas with identical inputs,
//! spans off and on, to give the tracing overhead. Then the traced cluster
//! runs [`VIEW_CHANGES`] leader changes: the leader's messages are
//! withheld, the survivors' progress timers fire until they decide the
//! next batch, and the withheld traffic is released.
//!
//! It runs in its own process, apart from the live cluster, so the
//! process-wide `hashes_computed()` counter sees replay work only.

use crate::stats::Metric;
use crate::workload::{check, client_ids, coin_inputs, counter_payload, counter_request};
use crate::workload::{Expected, Kind, Workload};
use smartchain_codec::{from_bytes, to_bytes};
use smartchain_coin::app::SmartCoinApp;
use smartchain_crypto::keys::{Backend, PublicKey};
use smartchain_crypto::pool::{VerifyItem, VerifyPool};
use smartchain_crypto::value::hashes_computed;
use smartchain_smr::app::{Application, CounterApp};
use smartchain_smr::durability::DurableApp;
use smartchain_smr::ordering::{CoreOutput, OrderedBatch, OrderingConfig, OrderingCore, SmrMsg};
use smartchain_smr::runtime::RuntimeConfig;
use smartchain_smr::transport::frame::{frame_header, FrameKey, HEADER_BYTES, TAG_BYTES};
use smartchain_smr::transport::ClusterConfig;
use smartchain_smr::types::{Reply, Request};
use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Leader changes replayed after the measured rounds (each replica leads
/// once).
const VIEW_CHANGES: usize = 4;
/// A leader change that needs more progress-timer rounds than this fails
/// the replay.
const MAX_TIMEOUT_ROUNDS: u32 = 20;
/// Layer spans; every other span is the replay's own bookkeeping.
const LAYERS: [&str; 6] = ["verify", "order", "codec", "frame", "exec", "durable"];

/// Measured rounds per replay: fixed work per workload (a few seconds on a
/// 2-core machine), so two versions of the program replay exactly the same
/// requests.
fn rounds(workload: &Workload) -> usize {
    match workload.kind {
        Kind::Coin => 12,
        Kind::CounterClosed => 800,
        Kind::CounterOpen | Kind::LeaderCrash => 3000,
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One traced call: what ran, when, inside which span, for which batch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub batch: u64,
}

/// In-memory span recorder; when off, `begin`/`end` do nothing.
pub struct Tracer {
    on: bool,
    origin: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    /// The round (closed loop) or request (open loop) being replayed.
    pub batch: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            batch: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            batch: self.batch,
        };
        self.stack.push(self.spans.len() as u32);
        self.spans.push(span);
    }

    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let id = self.stack.pop().expect("end() without begin()");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let out = f();
        self.end();
        out
    }
}

/// Per-name self time (span duration minus the time its direct children
/// cover), in ns, over the spans that descend from `root`.
pub fn self_times(spans: &[Span], root: u32) -> HashMap<&'static str, u64> {
    let mut inside = vec![false; spans.len()];
    let mut child_ns = vec![0u64; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            inside[i] = p == root || inside[p as usize];
            child_ns[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: HashMap<&'static str, u64> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if inside[i] || i as u32 == root {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            *out.entry(s.name).or_default() += own;
        }
    }
    out
}

// ---------------------------------------------------------------------------
// The replayed cluster
// ---------------------------------------------------------------------------

struct Node<A: Application> {
    core: OrderingCore,
    durable: DurableApp<A>,
    shadow: A,
    delivered: u64,
}

/// A message on the in-memory FIFO: sender, receiver, frame header,
/// encoded payload.
type Wire = (usize, usize, [u8; HEADER_BYTES], Arc<[u8]>);

struct Cluster<A: Application> {
    nodes: Vec<Node<A>>,
    links: Vec<Vec<FrameKey>>,
    client_key: FrameKey,
    pool: VerifyPool,
    fifo: VecDeque<Wire>,
    /// Traffic to or from the replica in `down`, withheld until it heals.
    held: Vec<Wire>,
    down: Option<usize>,
    tracer: Tracer,
    /// Every submitted request's expected result, by `(client, seq)`.
    expected: HashMap<(u64, u64), Expected>,
    /// Replicas that returned a checked result, by `(client, seq)`.
    answered: HashMap<(u64, u64), usize>,
    wrong: u64,
    sigs: u64,
    peer_msgs: u64,
    codec_bytes: u64,
}

impl<A: Application> Cluster<A> {
    fn new(
        backend: Backend,
        dir: &Path,
        make_app: &dyn Fn() -> A,
        tracer: Tracer,
    ) -> Result<Cluster<A>, String> {
        let runtime = RuntimeConfig::default();
        let n = runtime.replicas;
        let mut secret = [0u8; 32];
        secret[..8].copy_from_slice(&0x7265_706C_6179u64.to_le_bytes());
        let config = ClusterConfig::new((0..n).map(|r| format!("replica-{r}")).collect(), secret);
        let mut nodes = Vec::with_capacity(n);
        for r in 0..n {
            let durable = DurableApp::open(
                make_app(),
                dir.join(format!("replica-{r}")),
                runtime.checkpoint_period,
            )
            .map_err(|e| format!("replay storage: {e}"))?;
            let core = OrderingCore::new(
                r,
                config.view(backend),
                config.replica_secret(r, backend),
                OrderingConfig {
                    max_batch: runtime.max_batch,
                    ..OrderingConfig::default()
                },
                durable.batches_applied(),
            );
            nodes.push(Node {
                core,
                durable,
                shadow: make_app(),
                delivered: 0,
            });
        }
        let links = (0..n)
            .map(|from| (0..n).map(|to| FrameKey::link(&secret, from, to)).collect())
            .collect();
        Ok(Cluster {
            nodes,
            links,
            client_key: FrameKey::client(),
            // One worker: a verify span then measures CPU time, not a
            // share of a parallel pool.
            pool: VerifyPool::new(1),
            fifo: VecDeque::new(),
            held: Vec::new(),
            down: None,
            tracer,
            expected: HashMap::new(),
            answered: HashMap::new(),
            wrong: 0,
            sigs: 0,
            peer_msgs: 0,
            codec_bytes: 0,
        })
    }

    fn live(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&r| Some(r) != self.down)
            .collect()
    }

    /// Client requests arrive at every live replica: frame check and decode
    /// per replica, one verify-pool dispatch for the burst, then admission.
    fn submit(&mut self, requests: &[(Request, Expected)]) -> Result<(), String> {
        let mut frames = Vec::with_capacity(requests.len());
        for (request, expected) in requests {
            self.expected.insert(request.id(), expected.clone());
            let payload = to_bytes(&SmrMsg::Request(request.clone()));
            let header = frame_header(&self.client_key, &payload).map_err(|e| e.to_string())?;
            frames.push((header, payload));
        }
        for r in self.live() {
            let mut batch = Vec::with_capacity(frames.len());
            for (header, payload) in &frames {
                let key = &self.client_key;
                let ok = self
                    .tracer
                    .span("frame", || key.verify(payload, tag(header)));
                let msg = self.tracer.span("codec", || from_bytes::<SmrMsg>(payload));
                match msg {
                    Ok(SmrMsg::Request(request)) if ok => batch.push(request),
                    _ => return Err("client frame failed to authenticate or decode".into()),
                }
            }
            let checks: Vec<VerifyItem<usize>> = batch
                .iter()
                .enumerate()
                .filter_map(|(i, request)| {
                    let (public, sig) = request.signature?;
                    Some(VerifyItem {
                        tag: i,
                        public,
                        msg: Request::sign_payload(request.client, request.seq, &request.payload),
                        sig,
                    })
                })
                .collect();
            self.sigs += checks.len() as u64;
            let signed = checks.len();
            let pool = &self.pool;
            let verdicts = self.tracer.span("verify", || pool.verify_tagged(checks));
            if verdicts.iter().any(|&(_, ok)| !ok) || (signed > 0 && signed != batch.len()) {
                return Err("a generated request failed signature verification".into());
            }
            for request in batch {
                let core = &mut self.nodes[r].core;
                let outputs = self.tracer.span("order", || core.submit(request));
                self.handle(r, outputs)?;
            }
        }
        Ok(())
    }

    fn handle(&mut self, r: usize, outputs: Vec<CoreOutput>) -> Result<(), String> {
        for out in outputs {
            match out {
                CoreOutput::Broadcast(msg) => {
                    let payload = self.encode(&msg);
                    for to in (0..self.nodes.len()).filter(|&to| to != r) {
                        self.send(r, to, Arc::clone(&payload))?;
                    }
                }
                CoreOutput::Send(to, msg) => {
                    let payload = self.encode(&msg);
                    self.send(r, to, payload)?;
                }
                CoreOutput::Deliver(batch) => self.deliver(r, &batch)?,
                CoreOutput::NeedStateTransfer { observed_instance } => {
                    return Err(format!(
                        "replica {r} fell behind (instance {observed_instance}) in the replay"
                    ))
                }
            }
        }
        Ok(())
    }

    fn encode(&mut self, msg: &SmrMsg) -> Arc<[u8]> {
        let payload: Arc<[u8]> = self.tracer.span("codec", || to_bytes(msg).into());
        self.codec_bytes += payload.len() as u64;
        payload
    }

    fn send(&mut self, from: usize, to: usize, payload: Arc<[u8]>) -> Result<(), String> {
        let key = &self.links[from][to];
        let header = self
            .tracer
            .span("frame", || frame_header(key, &payload))
            .map_err(|e| e.to_string())?;
        let wire = (from, to, header, payload);
        if self.down.is_some_and(|d| d == from || d == to) {
            self.held.push(wire);
        } else {
            self.fifo.push_back(wire);
        }
        Ok(())
    }

    /// Delivers FIFO traffic until none is left.
    fn drain(&mut self) -> Result<(), String> {
        while let Some((from, to, header, payload)) = self.fifo.pop_front() {
            let key = &self.links[from][to];
            let ok = self
                .tracer
                .span("frame", || key.verify(&payload, tag(&header)));
            let msg = self.tracer.span("codec", || from_bytes::<SmrMsg>(&payload));
            let msg = match msg {
                Ok(msg) if ok => msg,
                _ => return Err("peer frame failed to authenticate or decode".into()),
            };
            self.peer_msgs += 1;
            let core = &mut self.nodes[to].core;
            let outputs = self.tracer.span("order", || core.on_message(from, msg));
            self.handle(to, outputs)?;
        }
        Ok(())
    }

    /// Applies a decided batch durably, executes it on the shadow app, and
    /// encodes and frames its replies.
    fn deliver(&mut self, r: usize, batch: &OrderedBatch) -> Result<(), String> {
        let node = &mut self.nodes[r];
        node.delivered += 1;
        let durable = &mut node.durable;
        let results = self
            .tracer
            .span("durable", || durable.apply_batch(batch))
            .map_err(|e| format!("apply_batch: {e}"))?;
        let _ = durable.take_checkpoint_announcement();
        let shadow = &mut node.shadow;
        let shadow_results: Vec<Vec<u8>> = self.tracer.span("exec", || {
            batch.requests.iter().map(|q| shadow.execute(q)).collect()
        });
        if shadow_results != results {
            return Err(format!(
                "replica {r}: shadow execution disagrees with apply_batch"
            ));
        }
        for (request, result) in batch.requests.iter().zip(results) {
            match self.expected.get(&request.id()) {
                Some(expected) if check(expected, &result) => {
                    *self.answered.entry(request.id()).or_default() += 1;
                }
                _ => self.wrong += 1,
            }
            let payload = self.encode(&SmrMsg::Reply(Reply {
                client: request.client,
                seq: request.seq,
                result,
                replica: r,
            }));
            let key = &self.client_key;
            self.tracer
                .span("frame", || frame_header(key, &payload))
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    /// Every request in `requests` got a correct result from at least
    /// `quorum` replicas, and no replica returned a wrong one.
    fn verify_round(&self, requests: &[(Request, Expected)], quorum: usize) -> Result<(), String> {
        if self.wrong > 0 {
            return Err(format!(
                "{} replay replies failed the result check",
                self.wrong
            ));
        }
        for (request, _) in requests {
            let got = self.answered.get(&request.id()).copied().unwrap_or(0);
            if got < quorum {
                return Err(format!(
                    "request {:?} answered by {got} replicas, need {quorum}",
                    request.id()
                ));
            }
        }
        Ok(())
    }

    /// One leader change: withhold the leader, let the survivors' progress
    /// timers fire until they decide `requests`, then release the withheld
    /// traffic. Returns the timer rounds it took and its duration.
    fn view_change(&mut self, requests: &[(Request, Expected)]) -> Result<(u32, Duration), String> {
        let leader = self.nodes[0].core.leader();
        self.down = Some(leader);
        self.submit(requests)?;
        self.drain()?;
        let survivors = self.live();
        let before: Vec<u64> = survivors.iter().map(|&r| self.nodes[r].delivered).collect();
        let start = Instant::now();
        self.tracer.begin("sync");
        let mut timeouts = 0;
        loop {
            if survivors
                .iter()
                .zip(&before)
                .all(|(&r, &b)| self.nodes[r].delivered > b)
            {
                break;
            }
            timeouts += 1;
            if timeouts > MAX_TIMEOUT_ROUNDS {
                return Err(format!(
                    "no decision after {MAX_TIMEOUT_ROUNDS} progress timeouts with replica {leader} down"
                ));
            }
            for &r in &survivors {
                let core = &mut self.nodes[r].core;
                let outputs = self.tracer.span("order", || core.on_progress_timeout());
                self.handle(r, outputs)?;
            }
            self.drain()?;
        }
        self.tracer.end();
        let took = start.elapsed();
        self.verify_round(requests, survivors.len())?;
        self.down = None;
        self.fifo.extend(self.held.drain(..));
        self.drain()?;
        Ok((timeouts, took))
    }

    fn syncs_and_records(&self) -> (u64, u64) {
        self.nodes.iter().fold((0, 0), |(s, r), n| {
            let stats = n.durable.engine_stats();
            (s + stats.syncs, r + stats.records)
        })
    }
}

fn tag(header: &[u8; HEADER_BYTES]) -> &[u8; TAG_BYTES] {
    header[HEADER_BYTES - TAG_BYTES..]
        .try_into()
        .expect("the tag closes the header")
}

// ---------------------------------------------------------------------------
// Inputs and the two passes
// ---------------------------------------------------------------------------

/// The replay's requests: `rounds` measured rounds, then one round per
/// leader change; `minters` authorizes the coin clients.
struct Plan {
    rounds: Vec<Vec<(Request, Expected)>>,
    changes: Vec<Vec<(Request, Expected)>>,
    minters: Vec<PublicKey>,
}

fn plan(workload: &Workload, seed: u64) -> Plan {
    let measured = rounds(workload);
    let ids = client_ids(seed, workload.clients);
    let open = workload.rate.is_some();
    let per_round = if open { 1 } else { ids.len() };
    let total = measured + VIEW_CHANGES;
    let mut all: Vec<Vec<(Request, Expected)>> = Vec::with_capacity(total);
    let mut minters = Vec::new();
    match workload.kind {
        Kind::Coin => {
            let threads = std::thread::available_parallelism().map_or(1, usize::from);
            let inputs = coin_inputs(seed, &ids, total, threads);
            for round in 0..total {
                all.push(
                    inputs
                        .requests
                        .iter()
                        .map(|list| list[round].clone())
                        .collect(),
                );
            }
            minters = inputs.minters;
        }
        _ => {
            let mut sums = vec![0u64; ids.len()];
            let mut seqs = vec![0u64; ids.len()];
            let mut op = 0u64;
            for round in 0..total {
                let mut list = Vec::with_capacity(per_round);
                for j in 0..per_round {
                    let ci = if open { round % ids.len() } else { j };
                    seqs[ci] += 1;
                    let payload = counter_payload(seed, op);
                    op += 1;
                    list.push(counter_request(ids[ci], seqs[ci], payload, sums[ci]));
                    sums[ci] += u64::from(payload);
                }
                all.push(list);
            }
        }
    }
    let changes = all.split_off(measured);
    Plan {
        rounds: all,
        changes,
        minters,
    }
}

/// Replays `workload` and returns its per-layer metrics.
pub fn run(workload: Workload, seed: u64, data: &Path) -> Result<Vec<Metric>, String> {
    let plan = plan(&workload, seed);
    match workload.kind {
        Kind::Coin => {
            let minters = plan.minters.clone();
            let make_app = move || SmartCoinApp::new(minters.clone());
            replay(workload, seed, data, &plan, &make_app)
        }
        _ => replay(workload, seed, data, &plan, &CounterApp::new),
    }
}

fn fresh_dir(data: &Path, tag: &str) -> PathBuf {
    let dir = data.join(format!("replay-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn measured_pass<A: Application>(
    workload: &Workload,
    dir: &Path,
    plan: &Plan,
    make_app: &dyn Fn() -> A,
    traced: bool,
) -> Result<(Cluster<A>, Duration), String> {
    let mut cluster = Cluster::new(workload.backend, dir, make_app, Tracer::new(traced))?;
    let quorum = cluster.nodes.len();
    let start = Instant::now();
    cluster.tracer.begin("replay");
    for (i, round) in plan.rounds.iter().enumerate() {
        cluster.tracer.batch = i as u64;
        cluster.submit(round)?;
        cluster.drain()?;
        cluster.verify_round(round, quorum)?;
    }
    cluster.tracer.end();
    Ok((cluster, start.elapsed()))
}

fn replay<A: Application>(
    workload: Workload,
    seed: u64,
    data: &Path,
    plan: &Plan,
    make_app: &dyn Fn() -> A,
) -> Result<Vec<Metric>, String> {
    let off_dir = fresh_dir(data, "off");
    let (untraced, off_wall) = measured_pass(&workload, &off_dir, plan, make_app, false)?;
    drop(untraced);
    let _ = std::fs::remove_dir_all(&off_dir);

    let on_dir = fresh_dir(data, "on");
    let hashes_before = hashes_computed();
    let (mut cluster, on_wall) = measured_pass(&workload, &on_dir, plan, make_app, true)?;
    let hashes = hashes_computed() - hashes_before;
    let ops: usize = plan.rounds.iter().map(Vec::len).sum();
    let batches = cluster.nodes[0].delivered.max(1);
    let peer_msgs = cluster.peer_msgs;
    let codec_bytes = cluster.codec_bytes;
    let sigs = cluster.sigs;
    let (syncs, records) = cluster.syncs_and_records();
    let measured_spans = cluster.tracer.spans.len();

    let mut timeouts = Vec::new();
    let mut change_us = Vec::new();
    for round in &plan.changes {
        cluster.tracer.batch += 1;
        let (t, took) = cluster.view_change(round)?;
        timeouts.push(f64::from(t));
        change_us.push(took.as_secs_f64() * 1e6);
    }
    let spans = std::mem::take(&mut cluster.tracer.spans);
    drop(cluster);
    let _ = std::fs::remove_dir_all(&on_dir);
    write_spans(data, workload.name, seed, &spans);

    let own = self_times(&spans[..measured_spans], 0);
    let root_ns = (spans[0].end_ns - spans[0].start_ns).max(1);
    let layer_ns = |name: &str| own.get(name).copied().unwrap_or(0) as f64;
    let covered: f64 = LAYERS.iter().map(|l| layer_ns(l)).sum();
    let per_op_us = |name: &str| layer_ns(name) / 1e3 / ops as f64;
    let durable_calls = spans[..measured_spans]
        .iter()
        .filter(|s| s.name == "durable")
        .count()
        .max(1);
    // The cluster's CPU per op along the replica path (exec runs inside
    // `durable` as well; its shadow span is not counted twice).
    let path_us: f64 = ["verify", "order", "codec", "frame", "durable"]
        .iter()
        .map(|l| per_op_us(l))
        .sum();
    let nproc = std::thread::available_parallelism().map_or(1, usize::from) as f64;
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let ops_f = ops as f64;
    Ok(vec![
        Metric::new("verify.us_per_op", per_op_us("verify"), "us"),
        Metric::new("verify.sigs_per_op", sigs as f64 / ops_f, "count"),
        Metric::new("order.us_per_op", per_op_us("order"), "us"),
        Metric::new(
            "order.msgs_per_batch",
            peer_msgs as f64 / batches as f64,
            "count",
        ),
        Metric::new("order.ops_per_batch", ops_f / batches as f64, "count"),
        Metric::new("codec.us_per_op", per_op_us("codec"), "us"),
        Metric::new("codec.bytes_per_op", codec_bytes as f64 / ops_f, "B"),
        Metric::new("frame.us_per_op", per_op_us("frame"), "us"),
        Metric::new("exec.us_per_op", per_op_us("exec"), "us"),
        Metric::new(
            "durable.us_per_batch",
            layer_ns("durable") / 1e3 / durable_calls as f64,
            "us",
        ),
        Metric::new("storage.syncs_per_op", syncs as f64 / ops_f, "count"),
        Metric::new("storage.records_per_op", records as f64 / ops_f, "count"),
        Metric::new(
            "crypto.hashes_per_batch",
            hashes as f64 / batches as f64,
            "count",
        ),
        Metric::new("sync.timeouts_to_decide", mean(&timeouts), "count"),
        Metric::new("sync.us_per_view_change", mean(&change_us), "us"),
        Metric::new("replay.coverage", covered / root_ns as f64, "ratio"),
        Metric::new(
            "replay.span_overhead",
            on_wall.as_secs_f64() / off_wall.as_secs_f64() - 1.0,
            "ratio",
        ),
        Metric::new(
            "replay.tput_bound_ops_s",
            nproc * 1e6 / path_us.max(1e-9),
            "ops/s",
        ),
    ])
}

/// Writes the spans as tab-separated `name start_ns end_ns parent batch`.
fn write_spans(data: &Path, workload: &str, seed: u64, spans: &[Span]) {
    let path = data.join(format!("trace-{workload}-{seed}.tsv"));
    let Ok(file) = std::fs::File::create(&path) else {
        return;
    };
    let mut out = std::io::BufWriter::new(file);
    for s in spans {
        let parent = s.parent.map_or(-1, i64::from);
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}",
            s.name, s.start_ns, s.end_ns, parent, s.batch
        );
    }
    let _ = out.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            batch: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("replay", 0, 100, None),
            span("order", 10, 40, Some(0)),
            span("codec", 20, 25, Some(1)),
            span("durable", 50, 90, Some(0)),
            span("other-root", 100, 200, None),
        ];
        let own = self_times(&spans, 0);
        assert_eq!(own["replay"], 100 - 30 - 40);
        assert_eq!(own["order"], 30 - 5);
        assert_eq!(own["codec"], 5);
        assert_eq!(own["durable"], 40);
        assert!(!own.contains_key("other-root"));
    }
}

//! The end-to-end run: a 4-replica `TcpCluster` on loopback sockets and
//! real disk, driven by the single-threaded [`Generator`].
//!
//! Set-up (key derivation, pre-signing, cluster boot, client connect, one
//! warm-up operation) is timed; the boot-and-connect part is repeated
//! [`BOOTS`] times and its median taken. The measured window is split over
//! the last [`ROUNDS`] of those clusters: each runs the workload for
//! [`WARMUP`] unmeasured, then for its share of the window. A control
//! thread owns each cluster: it snapshots transport counters at the window
//! edges and, in `leader_crash`, kills and restarts the leader.

use crate::client::{ClientCounters, Generator, OpRecord, OpSource, OP_TIMEOUT};
use crate::stats::{median, percentile, Metric};
use crate::workload::{
    client_ids, coin_inputs, counter_payload, counter_request, CoinInputs, Kind, Workload,
};
use smartchain_coin::app::SmartCoinApp;
use smartchain_smr::app::{Application, CounterApp};
use smartchain_smr::runtime::{RuntimeConfig, TcpCluster};
use smartchain_smr::transport::TransportStats;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cluster boots per run, the measured rounds' among them; set-up reports
/// their median.
const BOOTS: usize = 9;
/// Input preparations (key derivation, pre-signing) per run; set-up
/// reports their median.
const PREPS: usize = 3;
/// Fresh clusters the measured window is split over (`leader_crash`: one).
/// A closed loop settles into a batching and scheduling pattern that lasts
/// for a cluster's life and moves its rate by up to ±15%, so figures pooled
/// over several clusters do not hang on one cluster's pattern.
const ROUNDS: usize = 5;
const _: () = assert!(ROUNDS <= BOOTS);
/// Load before each round's measured window (connections, caches, batch
/// sizes settle).
const WARMUP: Duration = Duration::from_secs(1);
/// Pre-signed coin traffic per round is sized for this many transactions
/// per second (about twice the rate measured at the time the benchmark was
/// written); every round replays the same requests on a fresh cluster. A
/// closed loop that runs out of inputs ends its window early and reports
/// the rate over the shorter window.
const COIN_PRESIGN_RATE: f64 = 200.0;
/// `leader_crash`: load before the first kill, inside the window.
const CRASH_LEAD_IN: Duration = Duration::from_secs(1);
/// `leader_crash`: the interval over which `bytes_out` growth names the leader.
const LEADER_PROBE: Duration = Duration::from_millis(300);
/// `leader_crash`: time the cluster serves without the old leader after
/// failover, before the old leader restarts.
const SETTLE: Duration = Duration::from_millis(500);
/// `leader_crash`: time a restarted replica gets to catch up before the
/// next kill.
const CATCH_UP: Duration = Duration::from_millis(1500);
/// `leader_crash`: a failover slower than this ends the run as failed.
const FAILOVER_LIMIT: Duration = Duration::from_secs(15);

/// What one live run measured.
pub struct LiveReport {
    pub attempted: u64,
    pub failed: u64,
    /// Every check passed and the generator kept its schedule.
    pub valid: bool,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

/// The replica that sent the most bytes over the probe interval: the
/// leader proposes and broadcasts every batch, so it sends the most.
pub fn pick_leader(before: &[u64], after: &[u64]) -> usize {
    (0..before.len().min(after.len()))
        .max_by_key(|&r| after[r].saturating_sub(before[r]))
        .unwrap_or(0)
}

/// Flushes dirty pages (a build, the previous run or round) so that their
/// writeback does not compete with the replicas' fsyncs.
pub fn sync_disk() {
    extern "C" {
        fn sync();
    }
    // SAFETY: sync(2) takes no arguments and cannot fail.
    unsafe { sync() };
}

fn rounds(workload: Workload) -> usize {
    if workload.kind == Kind::LeaderCrash {
        1
    } else {
        ROUNDS
    }
}

/// The measured length of each round.
fn round_len(workload: Workload, seconds: u64) -> Duration {
    Duration::from_secs(seconds) / rounds(workload) as u32
}

/// Runs `prepare` `n` times; returns its last result and the median time.
fn timed_median<T>(n: usize, mut prepare: impl FnMut() -> T) -> (T, Duration) {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n.max(1) {
        let t = Instant::now();
        last = Some(prepare());
        times.push(t.elapsed().as_secs_f64());
    }
    let mid = median(&times).expect("at least one preparation");
    (
        last.expect("at least one preparation"),
        Duration::from_secs_f64(mid),
    )
}

/// Runs `workload` live and reports its metrics.
pub fn run(workload: Workload, seed: u64, seconds: u64, data: &Path) -> Result<LiveReport, String> {
    match workload.kind {
        Kind::Coin => {
            let window = (WARMUP + round_len(workload, seconds)).as_secs_f64();
            let threads = std::thread::available_parallelism().map_or(1, usize::from);
            let ((ids, inputs), prep) = timed_median(PREPS, || {
                let ids = client_ids(seed, workload.clients);
                let per_client =
                    (COIN_PRESIGN_RATE * window / ids.len() as f64).ceil() as usize + 1;
                let inputs = coin_inputs(seed, &ids, per_client, threads);
                (ids, inputs)
            });
            let inputs = Arc::new(inputs);
            let minters = inputs.minters.clone();
            let source = move || coin_source(Arc::clone(&inputs));
            let make_app = move || SmartCoinApp::new(minters.clone());
            drive(workload, seed, seconds, data, &ids, prep, source, make_app)
        }
        _ => {
            let (ids, prep) = timed_median(PREPS, || client_ids(seed, workload.clients));
            let clients = ids.len();
            let source = move || counter_source(seed, clients);
            drive(
                workload,
                seed,
                seconds,
                data,
                &ids,
                prep,
                source,
                CounterApp::new,
            )
        }
    }
}

fn coin_source(inputs: Arc<CoinInputs>) -> OpSource {
    Box::new(move |ci, _, seq, _| inputs.requests[ci].get(seq as usize - 1).cloned())
}

fn counter_source(seed: u64, clients: usize) -> OpSource {
    let mut sums = vec![0u64; clients];
    Box::new(move |ci, id, seq, op| {
        let payload = counter_payload(seed, op);
        let op = counter_request(id, seq, payload, sums[ci]);
        sums[ci] += u64::from(payload);
        Some(op)
    })
}

/// Shared between the generator thread and the control thread.
struct Probe {
    /// Nanoseconds after the workload origin of the latest kill
    /// (`u64::MAX`: none pending).
    kill_ns: AtomicU64,
    /// An operation sent after the latest kill completed.
    recovered: AtomicBool,
}

struct Control {
    kills: Vec<Instant>,
    stats_w0: Vec<TransportStats>,
    stats_w1: Vec<TransportStats>,
    error: Option<String>,
}

/// One measured round: its generator, control results and window.
struct Round {
    gen: Generator,
    ctl: Control,
    w0: Instant,
    w1: Instant,
}

#[allow(clippy::too_many_arguments)]
fn drive<A: Application>(
    workload: Workload,
    seed: u64,
    seconds: u64,
    data: &Path,
    ids: &[u64],
    prep: Duration,
    source: impl Fn() -> OpSource,
    make_app: impl Fn() -> A + Send + Sync + Clone + 'static,
) -> Result<LiveReport, String> {
    let rounds = rounds(workload);
    let len = round_len(workload, seconds);
    let mut boots = Vec::with_capacity(BOOTS);
    let mut measured = Vec::with_capacity(rounds);
    for boot in 0..BOOTS {
        let dir = data.join(format!(
            "{}-{seed}-{}-boot{boot}",
            workload.name,
            std::process::id()
        ));
        sync_disk();
        let t = Instant::now();
        let (cluster, mut gen) = boot_cluster(workload, &dir, ids, source(), make_app.clone())?;
        if !gen.run_one(Duration::from_secs(30)) {
            cluster.shutdown();
            let _ = std::fs::remove_dir_all(&dir);
            return Err("warm-up operation failed".into());
        }
        boots.push(t.elapsed().as_secs_f64());
        let round = if boot + rounds >= BOOTS {
            Some(measure(workload, cluster, gen, len))
        } else {
            drop(gen);
            cluster.shutdown();
            None
        };
        let _ = std::fs::remove_dir_all(&dir);
        if let Some(round) = round {
            measured.push(round?);
        }
    }
    let boot = median(&boots).expect("BOOTS >= 1");
    Ok(report(workload, &measured, (prep.as_secs_f64(), boot)))
}

/// Runs the workload on a booted cluster: [`WARMUP`], then a window of
/// `len`, then drains and shuts the cluster down.
fn measure<A: Application>(
    workload: Workload,
    cluster: TcpCluster<A>,
    mut gen: Generator,
    len: Duration,
) -> Result<Round, String> {
    gen.start();
    let origin = Instant::now();
    let w0 = origin + WARMUP;
    let w1 = w0 + len;
    gen.stop_sending_at(w1);
    let probe = Arc::new(Probe {
        kill_ns: AtomicU64::new(u64::MAX),
        recovered: AtomicBool::new(false),
    });
    let crash = workload.kind == Kind::LeaderCrash;
    let control = {
        let probe = Arc::clone(&probe);
        std::thread::Builder::new()
            .name("bench-control".into())
            .spawn(move || control(cluster, origin, w0, w1, crash, &probe))
            .map_err(|e| format!("spawn control thread: {e}"))?
    };
    let drain_limit = w1 + OP_TIMEOUT + Duration::from_secs(1);
    let mut seen = 0;
    loop {
        gen.step(Duration::from_millis(20));
        let kill_ns = probe.kill_ns.load(Ordering::SeqCst);
        if kill_ns != u64::MAX {
            let kill = origin + Duration::from_nanos(kill_ns);
            if gen.records[seen..].iter().any(|r| r.ok && r.sent > kill) {
                probe.recovered.store(true, Ordering::SeqCst);
            }
        }
        seen = gen.records.len();
        let now = Instant::now();
        // The control thread ends before the window only when it failed.
        let control_failed = now < w1 && control.is_finished();
        if control_failed
            || (now >= w1 && (gen.idle() || now >= drain_limit) && control.is_finished())
        {
            break;
        }
    }
    let (cluster, ctl) = control
        .join()
        .map_err(|_| "control thread panicked".to_string())?;
    cluster.shutdown();
    if let Some(e) = ctl.error {
        return Err(e);
    }
    Ok(Round { gen, ctl, w0, w1 })
}

fn boot_cluster<A: Application>(
    workload: Workload,
    dir: &Path,
    ids: &[u64],
    source: OpSource,
    make_app: impl Fn() -> A + Send + Sync + 'static,
) -> Result<(TcpCluster<A>, Generator), String> {
    let _ = std::fs::remove_dir_all(dir);
    let config = RuntimeConfig {
        storage_dir: Some(PathBuf::from(dir)),
        ..RuntimeConfig::default()
    };
    let cluster = TcpCluster::start(config, workload.backend, make_app)
        .map_err(|e| format!("cluster boot: {e}"))?;
    let addrs = cluster.cluster_config().replicas.clone();
    let quorum = cluster.cluster_config().f() + 1;
    match Generator::connect(&addrs, quorum, ids, workload.rate, source) {
        Ok(gen) => Ok((cluster, gen)),
        Err(e) => {
            cluster.shutdown();
            Err(format!("client connect: {e}"))
        }
    }
}

fn snapshot<A: Application>(
    cluster: &TcpCluster<A>,
    carry: &[TransportStats],
) -> Vec<TransportStats> {
    (0..carry.len())
        .map(|r| add(carry[r], cluster.transport_stats(r).unwrap_or_default()))
        .collect()
}

fn add(a: TransportStats, b: TransportStats) -> TransportStats {
    TransportStats {
        frames_out: a.frames_out + b.frames_out,
        bytes_out: a.bytes_out + b.bytes_out,
        writev_calls: a.writev_calls + b.writev_calls,
        writev_frames: a.writev_frames + b.writev_frames,
        queue_full_drops: a.queue_full_drops + b.queue_full_drops,
        peer_reconnects: a.peer_reconnects + b.peer_reconnects,
        ..TransportStats::default()
    }
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// The control thread: window-edge counter snapshots and, when `crash`,
/// kill/restart cycles of the current leader inside the window. Counters
/// of a killed incarnation are carried over so sums span restarts.
fn control<A: Application>(
    mut cluster: TcpCluster<A>,
    origin: Instant,
    w0: Instant,
    w1: Instant,
    crash: bool,
    probe: &Probe,
) -> (TcpCluster<A>, Control) {
    let n = cluster.cluster_config().n();
    let mut carry = vec![TransportStats::default(); n];
    let mut ctl = Control {
        kills: Vec::new(),
        stats_w0: Vec::new(),
        stats_w1: Vec::new(),
        error: None,
    };
    sleep_until(w0);
    ctl.stats_w0 = snapshot(&cluster, &carry);
    if crash {
        sleep_until(w0 + CRASH_LEAD_IN);
        let cycle = LEADER_PROBE + SETTLE + CATCH_UP;
        while Instant::now() + cycle + Duration::from_secs(2) < w1 {
            let before: Vec<u64> = snapshot(&cluster, &carry)
                .iter()
                .map(|s| s.bytes_out)
                .collect();
            std::thread::sleep(LEADER_PROBE);
            let after = snapshot(&cluster, &carry);
            let leader = pick_leader(
                &before,
                &after.iter().map(|s| s.bytes_out).collect::<Vec<_>>(),
            );
            carry[leader] = after[leader];
            probe.recovered.store(false, Ordering::SeqCst);
            let kill = Instant::now();
            probe.kill_ns.store(
                kill.duration_since(origin).as_nanos() as u64,
                Ordering::SeqCst,
            );
            cluster.kill_replica(leader);
            ctl.kills.push(kill);
            while !probe.recovered.load(Ordering::SeqCst) {
                if kill.elapsed() > FAILOVER_LIMIT {
                    ctl.error = Some(format!(
                        "no operation completed within {FAILOVER_LIMIT:?} of killing leader {leader}"
                    ));
                    return (cluster, ctl);
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            probe.kill_ns.store(u64::MAX, Ordering::SeqCst);
            std::thread::sleep(SETTLE);
            if let Err(e) = cluster.restart_replica(leader) {
                ctl.error = Some(format!("restart replica {leader}: {e}"));
                return (cluster, ctl);
            }
            std::thread::sleep(CATCH_UP);
        }
    }
    sleep_until(w1);
    ctl.stats_w1 = snapshot(&cluster, &carry);
    (cluster, ctl)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Operations (consecutive by start time) per latency chunk, at least:
/// each chunk's p99 has ten samples beyond it.
const LAT_CHUNK: usize = 1000;
/// About how long each of the spans the completion rate is taken over lasts.
const RATE_SPAN: Duration = Duration::from_secs(1);

/// The end-to-end figures of one or more measured windows.
#[derive(Debug, PartialEq)]
pub struct WindowSummary {
    /// Median completion rate over consecutive spans of the windows, per
    /// second. A window's spans each hold as many completions as it holds
    /// per [`RATE_SPAN`] on average, so they last about that long.
    pub tput: f64,
    /// Operations completed in the windows per second of them.
    pub mean_tput: f64,
    /// Lowest and highest span rate, per second.
    pub span_range: (f64, f64),
    /// Median over consecutive chunks of at least [`LAT_CHUNK`] operations
    /// of each chunk's median latency, ms.
    pub p50_ms: f64,
    /// Median over the same chunks of each chunk's 99th percentile, ms.
    pub p99_ms: f64,
    pub completed: usize,
    /// Summed length of the windows the rate is taken over, s.
    pub seconds: f64,
    pub spans: usize,
    pub samples: usize,
    pub chunks: usize,
}

/// Summarizes the windows `[w0, w1)` of `(records, w0, w1)`. Every figure
/// is a median over parts of the windows (rate spans, latency chunks), so
/// that a few seconds of interference on a shared machine do not decide a
/// whole run. Spans stay inside a window; latency chunks run on across
/// windows in order. A closed loop that ran out of inputs is measured up to
/// its last completion. Fewer samples than one part make one part.
pub fn summarize(windows: &[(&[OpRecord], Instant, Instant)]) -> WindowSummary {
    let mut span_rates = Vec::new();
    let mut latencies = Vec::new();
    let mut completed = 0;
    let mut seconds = 0.0;
    for &(records, w0, w1) in windows {
        let end = records.iter().map(|r| r.done).max().unwrap_or(w0).min(w1);
        let window = end.saturating_duration_since(w0).as_secs_f64();
        let mut done: Vec<Instant> = records
            .iter()
            .filter(|r| r.ok && r.done >= w0 && r.done < w1)
            .map(|r| r.done)
            .collect();
        done.sort();
        // Span i runs from completion i*per_span to completion (i+1)*per_span.
        let per_span = ((done.len() as f64 / window.max(1e-9) * RATE_SPAN.as_secs_f64()).round()
            as usize)
            .max(1);
        span_rates.extend(
            done.iter()
                .step_by(per_span)
                .zip(done.iter().skip(per_span).step_by(per_span))
                .map(|(&a, &b)| per_span as f64 / (b - a).as_secs_f64().max(1e-9)),
        );
        completed += done.len();
        seconds += window;
        let mut started: Vec<(Instant, f64)> = records
            .iter()
            .filter(|r| r.ok && r.start >= w0 && r.start < w1)
            .map(|r| (r.start, ms(r.done - r.start)))
            .collect();
        started.sort_by_key(|&(t, _)| t);
        latencies.extend(started.iter().map(|&(_, l)| l));
    }
    let mean_tput = completed as f64 / seconds.max(1e-9);
    let n = latencies.len();
    let chunks = (n / LAT_CHUNK).max(1);
    let chunked = |q: f64| -> f64 {
        let per_chunk: Vec<f64> = (0..chunks)
            .filter_map(|i| percentile(&latencies[i * n / chunks..(i + 1) * n / chunks], q))
            .collect();
        median(&per_chunk).unwrap_or(f64::NAN)
    };
    WindowSummary {
        tput: median(&span_rates).unwrap_or(mean_tput),
        mean_tput,
        span_range: (
            percentile(&span_rates, 0.0).unwrap_or(mean_tput),
            percentile(&span_rates, 100.0).unwrap_or(mean_tput),
        ),
        p50_ms: chunked(50.0),
        p99_ms: chunked(99.0),
        completed,
        seconds,
        spans: span_rates.len(),
        samples: n,
        chunks,
    }
}

/// `setup`: the median input preparation and the median boot, s.
fn report(workload: Workload, rounds: &[Round], setup: (f64, f64)) -> LiveReport {
    let setup_s = setup.0 + setup.1;
    let windows: Vec<(&[OpRecord], Instant, Instant)> = rounds
        .iter()
        .map(|r| (&r.gen.records[..], r.w0, r.w1))
        .collect();
    let attempted = windows.iter().map(|w| w.0.len() as u64).sum::<u64>();
    let failed = windows.iter().flat_map(|w| w.0).filter(|r| !r.ok).count() as u64;
    let w = summarize(&windows);
    let failovers: Vec<f64> = rounds
        .iter()
        .flat_map(|round| {
            round.ctl.kills.iter().filter_map(|&kill| {
                round
                    .gen
                    .records
                    .iter()
                    .filter(|r| r.ok && r.sent > kill)
                    .map(|r| (r.done - kill).as_secs_f64())
                    .min_by(f64::total_cmp)
            })
        })
        .collect();
    let lateness: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.gen.lateness_ms.iter().copied())
        .collect();
    let late_p99 = percentile(&lateness, 99.0).unwrap_or(0.0);
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let round_rates: Vec<String> = windows
        .iter()
        .map(|&w| format!("{:.1}", summarize(&[w]).mean_tput))
        .collect();
    let mut notes = vec![
        format!(
            "{} on {nproc} cores: {} ops completed in {} rounds of {:.1} s ({:.1} ops/s; per round {}); rate: median of {} spans of about {RATE_SPAN:?}, {:.1}..{:.1} ops/s; {} latency samples, p50 and p99 over {} chunks of at least {LAT_CHUNK}",
            workload.name,
            w.completed,
            rounds.len(),
            w.seconds / rounds.len().max(1) as f64,
            w.mean_tput,
            round_rates.join(" "),
            w.spans,
            w.span_range.0,
            w.span_range.1,
            w.samples,
            w.chunks,
        ),
        format!(
            "setup: {:.4} s preparing inputs (median of {PREPS}) + {:.4} s booting and connecting (median of {BOOTS})",
            setup.0, setup.1
        ),
        format!(
            "fail_frac {:.6} ({failed} of {attempted} operations timed out or failed the check)",
            failed as f64 / attempted.max(1) as f64
        ),
    ];
    // Generator integrity: a generator that sent work late measured
    // itself, not the cluster.
    let gen_ok = late_p99 <= GEN_LATE_LIMIT_MS;
    notes.push(format!(
        "generator lateness: p50 {:.3} ms, p99 {late_p99:.3} ms, max {:.3} ms",
        percentile(&lateness, 50.0).unwrap_or(0.0),
        percentile(&lateness, 100.0).unwrap_or(0.0),
    ));
    if !gen_ok {
        notes.push(format!(
            "INVALID: the generator fell behind (lateness p99 above {GEN_LATE_LIMIT_MS} ms)"
        ));
    }
    if !failovers.is_empty() {
        notes.push(format!("failovers (s): {failovers:?}"));
    }
    let mut end_to_end = vec![
        Metric::new("tput_ops_s", w.tput, "ops/s"),
        Metric::new("lat_p50_ms", w.p50_ms, "ms"),
        Metric::new("lat_p99_ms", w.p99_ms, "ms"),
        Metric::new("setup_s", setup_s, "s"),
    ];
    if !failovers.is_empty() {
        end_to_end.push(Metric::new(
            "failover_s",
            median(&failovers).expect("non-empty"),
            "s",
        ));
    }
    let completed = w.completed;
    let sum = |f: fn(&TransportStats) -> u64| -> u64 {
        rounds
            .iter()
            .flat_map(|r| r.ctl.stats_w0.iter().zip(&r.ctl.stats_w1))
            .map(|(a, b)| f(b).saturating_sub(f(a)))
            .sum()
    };
    let per_op = |x: u64| x as f64 / completed.max(1) as f64;
    let count =
        |f: fn(&ClientCounters) -> u64| -> u64 { rounds.iter().map(|r| f(&r.gen.counters)).sum() };
    let divergent = count(|c| c.divergent);
    let per_layer = vec![
        Metric::new(
            "transport.frames_out_per_op",
            per_op(sum(|s| s.frames_out)),
            "frames",
        ),
        Metric::new(
            "transport.bytes_out_per_op",
            per_op(sum(|s| s.bytes_out)),
            "B",
        ),
        Metric::new(
            "transport.frames_per_writev",
            sum(|s| s.writev_frames) as f64 / sum(|s| s.writev_calls).max(1) as f64,
            "frames",
        ),
        Metric::new(
            "transport.queue_full_drops",
            sum(|s| s.queue_full_drops) as f64,
            "count",
        ),
        Metric::new(
            "transport.peer_reconnects",
            sum(|s| s.peer_reconnects) as f64,
            "count",
        ),
        Metric::new(
            "client.retransmits_per_op",
            count(|c| c.retransmits) as f64 / attempted.max(1) as f64,
            "count",
        ),
        Metric::new(
            "client.replies_per_op",
            count(|c| c.replies) as f64 / attempted.max(1) as f64,
            "count",
        ),
        Metric::new("client.divergent_replies", divergent as f64, "count"),
        Metric::new("gen.late_ms_p99", late_p99, "ms"),
    ];
    LiveReport {
        attempted,
        failed,
        valid: failed == 0 && divergent == 0 && gen_ok,
        end_to_end,
        per_layer,
        notes,
    }
}

/// Runs whose generator sent work later than this at p99 — ten
/// inter-arrival gaps at [`crate::workload::OPEN_RATE`] — fell behind and
/// are reported invalid. Scheduling noise on a busy 2-core machine keeps
/// p99 at 1–4 ms.
const GEN_LATE_LIMIT_MS: f64 = 10.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_rate_and_chunked_tail() {
        let w0 = Instant::now();
        let at = |ms: u64| w0 + Duration::from_millis(ms);
        let op = |start: u64, latency: u64| OpRecord {
            start: at(start),
            sent: at(start),
            done: at(start + latency),
            ok: true,
        };
        // Three seconds at 2000, 2000 and 1000 ops/s. Every 10th of the
        // first 1000 ops (by start) takes 50 ms, every other op 1 ms.
        let mut records = Vec::new();
        for i in 0..4000u64 {
            records.push(op(i / 2, if i < 1000 && i % 10 == 9 { 50 } else { 1 }));
        }
        for i in 0..1000u64 {
            records.push(op(2000 + i, 1));
        }
        records.push(OpRecord {
            ok: false,
            ..op(10, 1)
        });
        let w = summarize(&[(&records[..], w0, at(3000))]);
        assert_eq!(w.seconds, 3.0);
        // The last op completes exactly at the window's end: outside it.
        assert_eq!(w.completed, 4999);
        assert!((w.mean_tput - 4999.0 / 3.0).abs() < 1e-9, "{}", w.mean_tput);
        // Three spans of 1666 completions: two at 2000 ops/s and one
        // mostly in the slow third second (1250 ops/s). The rate is their
        // median, so the slow second does not pull it down.
        assert_eq!(w.spans, 3);
        assert!((w.tput - 2000.0).abs() < 20.0, "{}", w.tput);
        assert!((w.span_range.0 - 1250.0).abs() < 20.0, "{:?}", w.span_range);
        assert_eq!(w.samples, 5000);
        assert_eq!(w.chunks, 5);
        assert_eq!(w.p50_ms, 1.0);
        // The whole window's p99 would be 50 ms (100 slow ops of 5000); one
        // bad chunk of five does not move the median chunk p99.
        assert_eq!(
            percentile(
                &vec![50.0; 100]
                    .into_iter()
                    .chain(vec![1.0; 4900])
                    .collect::<Vec<_>>(),
                99.0
            ),
            Some(50.0)
        );
        assert_eq!(w.p99_ms, 1.0);
    }

    #[test]
    fn rounds_pool_without_counting_the_gap_between_them() {
        let w0 = Instant::now();
        let at = |ms: u64| w0 + Duration::from_millis(ms);
        let op = |start: u64, latency: u64| OpRecord {
            start: at(start),
            sent: at(start),
            done: at(start + latency),
            ok: true,
        };
        // Two seconds at 1000 ops/s (1 ms each), then, five seconds after
        // the first round ended, two seconds at 500 ops/s (2 ms each).
        let first: Vec<OpRecord> = (0..2000).map(|i| op(i, 1)).collect();
        let second: Vec<OpRecord> = (0..1000).map(|i| op(7000 + 2 * i, 2)).collect();
        let w = summarize(&[
            (&first[..], at(0), at(2000)),
            (&second[..], at(7000), at(9000)),
        ]);
        assert_eq!(w.completed, 1999 + 999);
        assert_eq!(w.seconds, 4.0);
        // One span per round; none spans the five idle seconds.
        assert_eq!(w.spans, 2);
        assert_eq!(w.span_range, (500.0, 1000.0));
        assert_eq!(w.tput, 750.0);
        // Chunks of 1000 samples run on across rounds: 1, 1 and 2 ms.
        assert_eq!((w.samples, w.chunks), (3000, 3));
        assert_eq!((w.p50_ms, w.p99_ms), (1.0, 1.0));
    }

    #[test]
    fn leader_is_the_replica_sending_most() {
        assert_eq!(pick_leader(&[0, 0, 0, 0], &[100, 155, 100, 99]), 1);
        // Growth counts, not the running total.
        assert_eq!(pick_leader(&[900, 0, 0, 0], &[1000, 150, 100, 100]), 1);
        assert_eq!(pick_leader(&[10, 10, 10, 10], &[20, 20, 20, 35]), 3);
        assert_eq!(pick_leader(&[0, 0, 0, 0], &[5, 0, 0, 0]), 0);
    }
}

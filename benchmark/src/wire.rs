//! `wire-mixed`: three `ManagerNode`s on loopback, streamed ingest beside
//! live queries.
//!
//! Two load threads in one process. Thread 1 is a **closed loop** by
//! protocol: per epoch it opens one `InsertStream` per owner (window 32,
//! 256 ratings a frame), interleaves them round-robin, drains them, then
//! sends `CloseEpoch` to every manager; the window bounds un-acked frames,
//! so a slow server is offered less. Thread 2 is an **open loop**: one
//! `Query` every millisecond to the owner of a uniformly drawn node,
//! whatever the previous one did, each timed from its due time.

use crate::common::{dir_bytes, expect_pairs, split, Metrics, Rep, Scratch, Workload};
use crate::openloop::{lateness, wait_until, Schedule};
use crate::stats::{median, percentile};
use crate::sut::{self, Client, Cluster, NodeId, Pairs, Rating, Res, Stream, Trace};
use crate::trace::Tracer;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const MANAGERS: usize = 3;
/// Epochs of the workload itself; the sidecar replay of an in-process
/// workload streams its small input in one.
pub const EPOCHS: usize = 10;
/// Un-acked frames a stream keeps in flight (what `sim::cluster` uses). An
/// owner's share of an epoch is ~46 frames, so the window does fill.
const WINDOW: usize = 32;
/// Ratings per streamed frame.
const BATCH: usize = 256;
/// Ratings per ack-probe frame (window 1: each `send` returns on its
/// durable ack).
const ACK_BATCH: usize = 64;
/// Open-loop query rate, one client.
const QUERIES_PER_SECOND: u32 = 1_000;
/// A query slower than this, from its due time, missed its latency limit.
const QUERY_LIMIT: Duration = Duration::from_millis(100);

/// The routed input: who gets which rating, decided before any timed call.
struct Plan {
    /// `[epoch][manager]` → that manager's ratings of that epoch.
    epochs: Vec<Vec<Vec<Rating>>>,
    /// `[manager]` → its share of the trace's tail, sent by the ack probe.
    ack: Vec<Vec<Rating>>,
    /// Node index (`id − 1`) → owning manager.
    owner_of: Vec<u8>,
    streamed: u64,
    probed: u64,
}

pub struct WireWorkload<'a> {
    trace: Arc<Trace>,
    plan: Plan,
    seed: u64,
    scratch: &'a Scratch,
}

impl<'a> WireWorkload<'a> {
    /// Set-up: generate the trace, spawn (then stop) a cluster the way
    /// every rep will, and route every rating to its owner.
    pub fn prepare(
        n: u64,
        epochs: usize,
        ack_frames: usize,
        seed: u64,
        scratch: &'a Scratch,
    ) -> Res<Self> {
        let trace = Arc::new(sut::generate(n, seed));
        let dir = scratch.fresh("cluster-setup")?;
        let cluster = Cluster::spawn(&dir, &trace.nodes, MANAGERS)?;
        let owner_of: Vec<u8> = trace.nodes.iter().map(|&v| cluster.owner_of(v) as u8).collect();
        cluster.shutdown()?;
        scratch.remove(&dir);

        let route = |ratings: &[Rating]| {
            let mut per_owner = vec![Vec::new(); MANAGERS];
            for &r in ratings {
                per_owner[owner_of[r.ratee.raw() as usize - 1] as usize].push(r);
            }
            per_owner
        };
        let probed = (ack_frames * ACK_BATCH).min(trace.ratings.len() / 2);
        let (body, tail) = trace.ratings.split_at(trace.ratings.len() - probed);
        let plan = Plan {
            epochs: split(body.len(), epochs).into_iter().map(|r| route(&body[r])).collect(),
            ack: route(tail),
            streamed: body.len() as u64,
            probed: probed as u64,
            owner_of,
        };
        Ok(WireWorkload { trace, plan, seed, scratch })
    }
}

/// Sets the query thread's stop flag when dropped, so that no exit path of
/// the ingest thread — a failed gate, an RPC error, a panic — can leave
/// the run hanging on a thread that never ends.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// What the query thread saw.
struct QueryLog {
    latency_us: Vec<f64>,
    late_us: Vec<f64>,
    failed: u64,
    late: u64,
    tracer: Tracer,
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn query_loop(
    addrs: &[SocketAddr],
    owner_of: &[u8],
    nodes: &[NodeId],
    seed: u64,
    stop: &AtomicBool,
    tracer: Tracer,
) -> QueryLog {
    let mut client = Client::for_queries(seed);
    let mut log =
        QueryLog { latency_us: Vec::new(), late_us: Vec::new(), failed: 0, late: 0, tracer };
    let mut rng = seed ^ 0x71e5;
    let mut schedule = Schedule::new(Instant::now(), QUERIES_PER_SECOND);
    let root = log.tracer.enter("queries", 0);
    while !stop.load(Ordering::Acquire) {
        let due = schedule.next_due();
        wait_until(due);
        let sent = Instant::now();
        let i = (splitmix(&mut rng) % nodes.len() as u64) as usize;
        let span = log.tracer.enter("server.query", log.latency_us.len() as u64);
        let answer = client.query(addrs[owner_of[i] as usize], nodes[i]);
        log.tracer.exit(span);
        let latency = due.elapsed();
        if answer.is_err() {
            log.failed += 1;
        } else if latency > QUERY_LIMIT {
            log.late += 1;
        }
        log.latency_us.push(latency.as_secs_f64() * 1e6);
        log.late_us.push(lateness(due, sent).as_secs_f64() * 1e6);
    }
    log.tracer.exit(root);
    log
}

/// One owner's stream within an epoch.
struct Lane<'d> {
    stream: Stream,
    data: &'d [Rating],
    next: usize,
}

impl WireWorkload<'_> {
    /// Thread 1: the epochs, the ack probe, the detection round.
    fn ingest(&self, addrs: &[SocketAddr], tracer: &mut Tracer, rep: &mut Rep) -> Res<()> {
        let mut client = Client::patient(self.seed);
        let (mut acked, mut frames) = (0u64, 0u64);
        let (mut pending_max, mut lag_max) = (0u64, 0u64);
        let start = Instant::now();
        for (e, per_owner) in self.plan.epochs.iter().enumerate() {
            let e = e as u64;
            let mut lanes = Vec::with_capacity(MANAGERS);
            for (k, data) in per_owner.iter().enumerate().filter(|(_, d)| !d.is_empty()) {
                lanes.push(Lane { stream: client.open_stream(addrs[k], WINDOW)?, data, next: 0 });
            }
            while lanes.iter().any(|l| l.next < l.data.len()) {
                for lane in lanes.iter_mut().filter(|l| l.next < l.data.len()) {
                    let end = (lane.next + BATCH).min(lane.data.len());
                    let acked_before = lane.stream.ratings_acked();
                    let span = tracer.enter("client.send", e);
                    lane.stream.send(&lane.data[lane.next..end])?;
                    // a send reads an ack only when its window was full
                    let stalled = lane.stream.ratings_acked() != acked_before;
                    tracer
                        .exit_as(span, if stalled { "client.window_stall" } else { "client.send" });
                    lane.next = end;
                    if end == lane.data.len() {
                        // this owner is done: get its manager fsyncing while
                        // the others are still being fed
                        let span = tracer.enter("client.send", e);
                        lane.stream.flush()?;
                        tracer.exit(span);
                    }
                }
            }
            for lane in lanes {
                let span = tracer.enter("client.drain", e);
                let (a, f) = client.close_stream(lane.stream)?;
                tracer.exit(span);
                acked += a;
                frames += f;
            }
            for &addr in addrs {
                let span = tracer.enter("server.status", e);
                let status = client.status(addr)?;
                tracer.exit(span);
                pending_max = pending_max.max(status.intake_pending);
                lag_max = lag_max.max(status.durable_lag_bytes);
            }
            let t = Instant::now();
            for &addr in addrs {
                let span = tracer.enter("server.close_epoch", e);
                client.close_epoch(addr)?;
                tracer.exit(span);
            }
            rep.sample("close_ms", t.elapsed().as_secs_f64() * 1e3);
        }
        rep.ingest_s = start.elapsed().as_secs_f64();
        rep.ratings = self.plan.streamed;
        rep.attempted +=
            self.plan.streamed + frames + (self.plan.epochs.len() * MANAGERS * 2) as u64;
        if acked != self.plan.streamed {
            return Err(format!("{acked} ratings acked of {} streamed", self.plan.streamed));
        }

        // ack probe: window 1, so every send returns on its durable ack
        let mut probe_acked = 0u64;
        for (k, data) in self.plan.ack.iter().enumerate().filter(|(_, d)| !d.is_empty()) {
            let mut stream = client.open_stream(addrs[k], 1)?;
            for frame in data.chunks(ACK_BATCH) {
                let span = tracer.enter("client.ack_probe", k as u64);
                let t = Instant::now();
                stream.send(frame)?;
                rep.sample("ack_us", t.elapsed().as_secs_f64() * 1e6);
                tracer.exit(span);
                rep.attempted += 1;
            }
            probe_acked += client.close_stream(stream)?.0;
        }
        rep.attempted += self.plan.probed;
        if probe_acked != self.plan.probed {
            return Err(format!("{probe_acked} ratings acked of {} probed", self.plan.probed));
        }
        for &addr in addrs {
            let span = tracer.enter("server.close_epoch.tail", self.plan.epochs.len() as u64);
            client.close_epoch(addr)?;
            tracer.exit(span);
        }

        // one detection round: freeze everywhere, then every manager's walk
        let t = Instant::now();
        for &addr in addrs {
            let span = tracer.enter("server.freeze", 1);
            client.freeze(addr, 1)?;
            tracer.exit(span);
        }
        let mut confirmed = Pairs::new();
        for &addr in addrs {
            let span = tracer.enter("server.detect_round", 1);
            confirmed.extend(client.detect_round(addr, 1)?);
            tracer.exit(span);
        }
        rep.values.insert("round_s", t.elapsed().as_secs_f64());
        rep.attempted += (MANAGERS * 3) as u64;
        confirmed.sort_unstable();
        confirmed.dedup();
        expect_pairs("merged confirmed set", &confirmed, &self.trace.planted)?;

        rep.values.insert("client.frames_sent", frames as f64);
        rep.values.insert("server.intake_pending_max", pending_max as f64);
        rep.values.insert("server.durable_lag_bytes_max", lag_max as f64);
        Ok(())
    }
}

impl Workload for WireWorkload<'_> {
    fn rep(&mut self, tracer: &mut Tracer, id: u64, _first: bool) -> Res<Rep> {
        let dir = self.scratch.fresh("cluster")?;
        let mut cluster = Cluster::spawn(&dir, &self.trace.nodes, MANAGERS)?;
        let addrs: Vec<SocketAddr> = (0..cluster.len()).map(|k| cluster.addr(k)).collect();
        let mut rep = Rep::default();

        let root = tracer.enter("rep", id);
        let stop = AtomicBool::new(false);
        let query_tracer = Tracer::with_origin(tracer.enabled(), tracer.origin());
        let (ingested, queries) = std::thread::scope(|s| {
            let querier = s.spawn(|| {
                let (plan, nodes) = (&self.plan, &self.trace.nodes);
                query_loop(&addrs, &plan.owner_of, nodes, self.seed ^ id, &stop, query_tracer)
            });
            let ingested = {
                let _stop = StopOnDrop(&stop);
                self.ingest(&addrs, tracer, &mut rep)
            };
            (ingested, querier.join())
        });
        ingested?;
        let queries = queries.map_err(|_| "the query thread panicked".to_string())?;
        rep.attempted += queries.latency_us.len() as u64;
        rep.failed += queries.failed;
        rep.late += queries.late;

        // what the managers hold must be what was offered
        let mut control = Client::patient(self.seed ^ 1);
        let offered = self.plan.streamed + self.plan.probed;
        let (mut recorded, mut throttled, mut refused) = (0u64, 0u64, 0u64);
        let mut recorded_by_first = 0;
        for (k, &addr) in addrs.iter().enumerate() {
            let status = control.status(addr)?;
            recorded += status.recorded;
            throttled += status.throttled_frames;
            refused += status.refused_frames;
            if k == 0 {
                recorded_by_first = status.recorded;
            }
        }
        if recorded != offered {
            return Err(format!("managers recorded {recorded} ratings of {offered} offered"));
        }
        rep.failed += refused;
        let disk = dir_bytes(&dir);

        // recovery: stop one manager and start it again on its directory
        cluster.kill(0)?;
        let span = tracer.enter("server.respawn", id);
        let t = Instant::now();
        cluster.respawn(0)?;
        rep.recover_s = Some(t.elapsed().as_secs_f64());
        tracer.exit(span);
        rep.attempted += 1;
        let reborn = control.status(cluster.addr(0))?.recorded;
        if reborn != recorded_by_first {
            return Err(format!(
                "respawned manager holds {reborn} ratings, had {recorded_by_first}"
            ));
        }
        tracer.exit(root);
        tracer.absorb(queries.tracer);
        cluster.shutdown()?;
        self.scratch.remove(&dir);

        rep.values.insert("disk_bytes_per_rating", disk as f64 / offered as f64);
        rep.values.insert("server.throttled_frames", throttled as f64);
        rep.values.insert("server.refused_frames", refused as f64);
        rep.values.insert("ack_p50_us", median(rep.samples_of("ack_us")));
        rep.values.insert("query_p50_us", median(&queries.latency_us));
        rep.values.insert("server.query_p99_us", percentile(&queries.latency_us, 99.0));
        rep.values.insert("server.query_max_us", percentile(&queries.latency_us, 100.0));
        rep.values.insert("gen.query_late_max_us", percentile(&queries.late_us, 100.0));
        rep.samples.insert("query_us", queries.latency_us);
        Ok(rep)
    }

    fn layer_metrics(&self, traced: &Rep, tracer: &Tracer) -> Metrics {
        let seconds = |name| tracer.total_ns(name) / 1e9;
        let (busy, stall, drain) =
            (seconds("client.send"), seconds("client.window_stall"), seconds("client.drain"));
        let mut m = Metrics::new();
        m.insert("client.send_busy_s", busy);
        m.insert("client.window_stall_s", stall);
        m.insert("client.drain_s", drain);
        m.insert("server.stream_rps", traced.ratings as f64 / (busy + stall + drain));
        for (metric, span, per) in [
            ("server.close_epoch_rtt_ms", "server.close_epoch", 1e6),
            ("server.freeze_rtt_ms", "server.freeze", 1e6),
            ("server.detect_round_rtt_ms", "server.detect_round", 1e6),
            ("server.status_rtt_us", "server.status", 1e3),
        ] {
            m.insert(metric, median(&tracer.durations(span)) / per);
        }
        m
    }

    fn input(&self) -> &Arc<Trace> {
        &self.trace
    }

    fn warms_up(&self) -> bool {
        false
    }
}

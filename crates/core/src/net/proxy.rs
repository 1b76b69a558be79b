//! Fault-injecting TCP proxy: message faults as real network behavior.
//!
//! A [`FaultProxy`] sits between an [`RpcClient`](crate::net::client::RpcClient)
//! and a manager's real listening socket. It is frame-aware: it pumps whole
//! wire frames (length + checksum + payload) in both directions, and per
//! frame draws from a seeded [`FaultRng`] to decide whether to
//!
//! * **drop** the frame — swallow it silently, so the peer's read timeout
//!   fires and the client retries or fails over;
//! * **delay** the frame — sleep a uniform number of milliseconds before
//!   forwarding, which pushes slow-but-alive exchanges into the client's
//!   per-attempt or total-deadline budget;
//! * **partition one way** — drop every frame in one direction, modeling
//!   an asymmetric link where requests arrive but responses never return.
//!
//! The proxy accepts any number of inbound connections; each gets its own
//! upstream connection and a pair of pump threads. All connections share
//! one RNG stream and one [`NetStats`] counter, so a run can assert how
//! many frames were carried and dropped.
//!
//! Two kinds of link are proxied. `ManagerNode`'s drop test puts a proxy
//! in front of each manager's confirmation traffic, and the nemesis harness
//! partitions the ingest links of live resumable streams at runtime
//! ([`FaultProxy::set_partition`]).

use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use collusion_reputation::frame::{read_frame, write_frame, FrameError, MAX_FRAME_PAYLOAD};

use crate::fault::{FaultRng, NetStats};

/// Domain salt of a proxy's fault stream (distinct per proxy via `stream`).
const PROXY_SALT: u64 = 0x7072_6f78_7921_7631;

/// Directions a one-way partition can sever.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Partition {
    /// Both directions flow (subject to drop/delay).
    #[default]
    None,
    /// Frames toward the upstream server are dropped; responses flow.
    ToServer,
    /// Frames back toward the client are dropped; requests flow.
    ToClient,
}

/// Network-level fault plan: per-frame drop and delay, plus a one-way
/// partition.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetFaultPlan {
    /// Probability each forwarded frame is silently dropped.
    pub drop_probability: f64,
    /// Inclusive uniform `(min, max)` forwarding delay in milliseconds.
    pub delay_ms: (u64, u64),
    /// One-way partition, if any.
    pub partition: Partition,
    /// Seed of the proxy's fault stream.
    pub seed: u64,
}

impl NetFaultPlan {
    /// The fault-free plan.
    pub fn none() -> Self {
        NetFaultPlan {
            drop_probability: 0.0,
            delay_ms: (0, 0),
            partition: Partition::None,
            seed: 0,
        }
    }

    /// Add a one-way partition.
    pub fn with_partition(mut self, p: Partition) -> Self {
        self.partition = p;
        self
    }
}

/// Which way a frame is travelling through the proxy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Dir {
    ToServer,
    ToClient,
}

struct ProxyShared {
    plan: NetFaultPlan,
    /// Live partition state — starts as `plan.partition`, flipped at
    /// runtime by [`FaultProxy::set_partition`] (the nemesis harness heals
    /// and re-severs links mid-stream).
    partition: Mutex<Partition>,
    rng: Mutex<FaultRng>,
    stats: Mutex<NetStats>,
    stop: AtomicBool,
}

impl ProxyShared {
    /// Decide a forwarded frame's fate: `None` = drop, `Some(delay)` =
    /// forward after `delay`.
    fn judge(&self, dir: Dir) -> Option<Duration> {
        let partition = *self.partition.lock().expect("proxy partition lock");
        match (partition, dir) {
            (Partition::ToServer, Dir::ToServer) | (Partition::ToClient, Dir::ToClient) => {
                let mut stats = self.stats.lock().expect("proxy stats lock");
                stats.sent += 1;
                stats.dropped += 1;
                return None;
            }
            _ => {}
        }
        if self.plan.drop_probability == 0.0 && self.plan.delay_ms == (0, 0) {
            let mut stats = self.stats.lock().expect("proxy stats lock");
            stats.sent += 1;
            return Some(Duration::ZERO);
        }
        let mut rng = self.rng.lock().expect("proxy rng lock");
        let dropped = self.plan.drop_probability > 0.0 && rng.chance(self.plan.drop_probability);
        let delay = if dropped {
            0
        } else {
            let (lo, hi) = self.plan.delay_ms;
            if hi > lo {
                lo + rng.below(hi - lo + 1)
            } else {
                lo
            }
        };
        drop(rng);
        let mut stats = self.stats.lock().expect("proxy stats lock");
        stats.sent += 1;
        if dropped {
            stats.dropped += 1;
            None
        } else {
            stats.delay_ticks += delay;
            Some(Duration::from_millis(delay))
        }
    }
}

/// A running fault proxy in front of one upstream address.
pub struct FaultProxy {
    addr: SocketAddr,
    shared: Arc<ProxyShared>,
    accept_thread: Option<JoinHandle<()>>,
}

impl FaultProxy {
    /// Bind an ephemeral localhost port and start proxying to `upstream`
    /// under `plan`. `stream` diversifies the RNG between proxies sharing
    /// a seed.
    pub fn spawn(upstream: SocketAddr, plan: NetFaultPlan, stream: u64) -> io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(ProxyShared {
            plan,
            partition: Mutex::new(plan.partition),
            rng: Mutex::new(FaultRng::for_stream(plan.seed, stream, PROXY_SALT)),
            stats: Mutex::new(NetStats::default()),
            stop: AtomicBool::new(false),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::spawn(move || {
            while !accept_shared.stop.load(Ordering::Acquire) {
                match listener.accept() {
                    Ok((client, _)) => {
                        let shared = Arc::clone(&accept_shared);
                        // connection threads are detached; they exit when
                        // either side closes or the stop flag trips
                        std::thread::spawn(move || serve_conn(client, upstream, shared));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => break,
                }
            }
        });
        Ok(FaultProxy { addr, shared, accept_thread: Some(accept_thread) })
    }

    /// The proxy's listening address — hand this out in peer maps.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Fault counters accumulated across all proxied connections.
    pub fn stats(&self) -> NetStats {
        *self.shared.stats.lock().expect("proxy stats lock")
    }

    /// Flip the live partition state. Takes effect on the next frame every
    /// pump thread judges — existing connections stay up, so healing a
    /// partition does not force a reconnect.
    pub fn set_partition(&self, p: Partition) {
        *self.shared.partition.lock().expect("proxy partition lock") = p;
    }

    /// Stop accepting and wind down. Existing pump threads exit as their
    /// sockets close or time out.
    pub fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(t) = self.accept_thread.take() {
            t.join().ok();
        }
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Pump frames both ways between one client connection and a fresh
/// upstream connection, applying the shared fault plan per frame.
fn serve_conn(client: TcpStream, upstream: SocketAddr, shared: Arc<ProxyShared>) {
    let server = match TcpStream::connect_timeout(&upstream, Duration::from_millis(500)) {
        Ok(s) => s,
        Err(_) => {
            client.shutdown(Shutdown::Both).ok();
            return;
        }
    };
    client.set_nodelay(true).ok();
    server.set_nodelay(true).ok();
    let (c_read, c_write) = (clone_or_return(&client), clone_or_return(&server));
    let fwd_shared = Arc::clone(&shared);
    let fwd = std::thread::spawn(move || pump(c_read, c_write, Dir::ToServer, fwd_shared));
    let (s_read, s_write) = (clone_or_return(&server), clone_or_return(&client));
    pump(s_read, s_write, Dir::ToClient, shared);
    // tearing both sockets down unblocks the forward pump
    server.shutdown(Shutdown::Both).ok();
    client.shutdown(Shutdown::Both).ok();
    fwd.join().ok();
}

/// `try_clone` with a poisoned-socket fallback that just aborts the pump
/// (callers treat a dead pump as a closed connection).
fn clone_or_return(s: &TcpStream) -> TcpStream {
    s.try_clone().unwrap_or_else(|_| {
        s.shutdown(Shutdown::Both).ok();
        s.try_clone().expect("socket clone failed twice")
    })
}

/// Read whole frames from `src`, judge each, forward survivors to `dst`.
fn pump(mut src: TcpStream, mut dst: TcpStream, dir: Dir, shared: Arc<ProxyShared>) {
    src.set_read_timeout(Some(Duration::from_millis(200))).ok();
    loop {
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        let payload = match read_frame(&mut src, MAX_FRAME_PAYLOAD) {
            Ok(p) => p,
            Err(FrameError::Closed) => break,
            Err(e) if e.is_timeout() => continue, // idle poll; re-check stop
            Err(_) => break,                      // corrupt stream: kill the conn
        };
        match shared.judge(dir) {
            None => continue, // dropped: swallow the frame
            Some(delay) => {
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
                if write_frame(&mut dst, &payload).is_err() {
                    break;
                }
            }
        }
    }
    src.shutdown(Shutdown::Both).ok();
    dst.shutdown(Shutdown::Both).ok();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::client::{RpcClient, RpcConfig};
    use crate::net::wire::{Request, Response};
    use collusion_reputation::id::NodeId;

    /// Minimal upstream: answers every request with `Beat`.
    fn spawn_beat_server() -> (SocketAddr, JoinHandle<()>, Arc<AtomicBool>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        listener.set_nonblocking(true).expect("nonblocking");
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let t = std::thread::spawn(move || {
            let mut conns: Vec<JoinHandle<()>> = Vec::new();
            while !stop2.load(Ordering::Acquire) {
                match listener.accept() {
                    Ok((mut s, _)) => {
                        conns.push(std::thread::spawn(move || {
                            s.set_read_timeout(Some(Duration::from_millis(100))).ok();
                            loop {
                                match read_frame(&mut s, MAX_FRAME_PAYLOAD) {
                                    Ok(p) => {
                                        if Request::decode(&p).is_err() {
                                            break;
                                        }
                                        let resp = Response::Beat {
                                            manager: NodeId(1),
                                            intake_pending: 0,
                                            shedding: false,
                                        };
                                        if write_frame(&mut s, &resp.encode()).is_err() {
                                            break;
                                        }
                                    }
                                    Err(FrameError::Closed) => break,
                                    Err(e) if e.is_timeout() => continue,
                                    Err(_) => break,
                                }
                            }
                        }));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => break,
                }
            }
            for c in conns {
                c.join().ok();
            }
        });
        (addr, t, stop)
    }

    #[test]
    fn fault_free_proxy_is_transparent() {
        let (upstream, server, stop) = spawn_beat_server();
        let mut proxy = FaultProxy::spawn(upstream, NetFaultPlan::none(), 0).expect("proxy");
        let mut client = RpcClient::new(RpcConfig::lan());
        for _ in 0..5 {
            let resp = client.call(proxy.addr(), &Request::Heartbeat).expect("heartbeat via proxy");
            assert!(matches!(resp, Response::Beat { .. }));
        }
        assert_eq!(client.stats().failed_exchanges, 0);
        let pstats = proxy.stats();
        assert_eq!(pstats.dropped, 0);
        assert!(pstats.sent >= 10, "5 requests + 5 responses through the proxy");
        proxy.shutdown();
        stop.store(true, Ordering::Release);
        server.join().expect("server");
    }

    #[test]
    fn full_drop_forces_deadline_failures_not_hangs() {
        let (upstream, server, stop) = spawn_beat_server();
        let plan = NetFaultPlan {
            drop_probability: 1.0,
            delay_ms: (0, 0),
            partition: Partition::None,
            seed: 9,
        };
        let mut proxy = FaultProxy::spawn(upstream, plan, 0).expect("proxy");
        let cfg = RpcConfig {
            connect_timeout_ms: 100,
            attempt_timeout_ms: 60,
            total_deadline_ms: 200,
            max_retries: 2,
            backoff_base_ms: 2,
            jitter_seed: 4,
            max_frame: MAX_FRAME_PAYLOAD,
        };
        let mut client = RpcClient::new(cfg);
        let start = std::time::Instant::now();
        let err = client.call(proxy.addr(), &Request::Heartbeat);
        assert!(err.is_err(), "a fully partitioned path must fail");
        assert!(
            start.elapsed() < Duration::from_millis(1500),
            "the call must resolve within its deadline, took {:?}",
            start.elapsed()
        );
        assert_eq!(client.stats().failed_exchanges, 1);
        assert!(proxy.stats().dropped > 0);
        proxy.shutdown();
        stop.store(true, Ordering::Release);
        server.join().expect("server");
    }

    #[test]
    fn one_way_partition_drops_only_responses() {
        let (upstream, server, stop) = spawn_beat_server();
        let plan = NetFaultPlan::none().with_partition(Partition::ToClient);
        let mut proxy = FaultProxy::spawn(upstream, plan, 0).expect("proxy");
        let cfg = RpcConfig {
            connect_timeout_ms: 100,
            attempt_timeout_ms: 60,
            total_deadline_ms: 200,
            max_retries: 1,
            backoff_base_ms: 2,
            jitter_seed: 5,
            max_frame: MAX_FRAME_PAYLOAD,
        };
        let mut client = RpcClient::new(cfg);
        assert!(client.call(proxy.addr(), &Request::Heartbeat).is_err());
        let pstats = proxy.stats();
        // requests traversed (sent, not dropped); responses were severed
        assert!(pstats.sent > pstats.dropped, "requests must flow toward the server");
        assert!(pstats.dropped > 0, "responses must be severed");
        proxy.shutdown();
        stop.store(true, Ordering::Release);
        server.join().expect("server");
    }

    #[test]
    fn partition_flips_at_runtime_without_reconnecting() {
        let (upstream, server, stop) = spawn_beat_server();
        let mut proxy = FaultProxy::spawn(upstream, NetFaultPlan::none(), 0).expect("proxy");
        let cfg = RpcConfig {
            connect_timeout_ms: 100,
            attempt_timeout_ms: 60,
            total_deadline_ms: 200,
            max_retries: 0,
            backoff_base_ms: 2,
            jitter_seed: 6,
            max_frame: MAX_FRAME_PAYLOAD,
        };
        let mut client = RpcClient::new(cfg);
        assert!(client.call(proxy.addr(), &Request::Heartbeat).is_ok(), "healthy before the cut");
        proxy.set_partition(Partition::ToClient);
        assert!(client.call(proxy.addr(), &Request::Heartbeat).is_err(), "severed responses");
        proxy.set_partition(Partition::None);
        assert!(client.call(proxy.addr(), &Request::Heartbeat).is_ok(), "healed without respawn");
        proxy.shutdown();
        stop.store(true, Ordering::Release);
        server.join().expect("server");
    }

    #[test]
    fn delay_pushes_latency_but_not_failure() {
        let (upstream, server, stop) = spawn_beat_server();
        let plan = NetFaultPlan {
            drop_probability: 0.0,
            delay_ms: (20, 30),
            partition: Partition::None,
            seed: 11,
        };
        let mut proxy = FaultProxy::spawn(upstream, plan, 0).expect("proxy");
        let mut client = RpcClient::new(RpcConfig::lan());
        let start = std::time::Instant::now();
        let resp = client.call(proxy.addr(), &Request::Heartbeat).expect("delayed heartbeat");
        assert!(matches!(resp, Response::Beat { .. }));
        // request + response each delayed ≥ 20ms
        assert!(
            start.elapsed() >= Duration::from_millis(40),
            "delays must be real, took {:?}",
            start.elapsed()
        );
        assert!(proxy.stats().delay_ticks >= 40);
        proxy.shutdown();
        stop.store(true, Ordering::Release);
        server.join().expect("server");
    }
}

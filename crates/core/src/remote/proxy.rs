//! The host-side proxy: the only thing on a host that speaks frames.
//!
//! Each host's daemon workers hand their storage operations to one
//! [`HostProxy`], which serializes them through [`super::proto`], moves
//! the frames over a simulated network link (a per-direction
//! [`BandwidthResource`] plus a fixed round-trip charge — the exact
//! shape of the PCIe model), and decodes the response. Storage state
//! never lives here: the proxy holds only a descriptor table mirroring
//! what the server told it (`fd → (ino, generation)`) and the
//! [`HostPageCache`] those generations keep honest.
//!
//! The link cost model deliberately mirrors `Timings::net_rtt_ns` /
//! `net_mb_s` the way DMA mirrors `dma_setup_ns` / `pcie_mb_s`: under
//! [`simtime::Timings::without_net`] both directions are free and the
//! fixed charge is zero, so a proxied operation lands on *exactly* the
//! virtual times the same operation costs a local daemon — the invariant
//! `client.rs`'s transcript-equality tests assert.

use std::collections::HashMap;
use std::sync::Arc;

use hostfs::{FsError, HostFd, Ino};
use obs::Counter;
use parking_lot::Mutex;
use simtime::{BandwidthResource, Clock, Nanos, Timings};

use super::cache::HostPageCache;
use super::proto::{self, WireRequest, WireResponse};
use super::server::StorageServer;

/// Wire-level activity counters of one host link.
#[derive(Debug, Default)]
pub struct WireStats {
    /// Round-trips issued (one request frame, one response frame).
    pub wire_rpcs: Counter,
    /// Request-frame bytes pushed up the link.
    pub wire_req_bytes: Counter,
    /// Response-frame bytes pulled down the link.
    pub wire_resp_bytes: Counter,
    /// Write-back batches shipped (non-empty `WritePages` frames).
    pub writeback_batches: Counter,
}

impl WireStats {
    /// Every counter as a `(name, value)` row, mirroring
    /// [`crate::DaemonStats::snapshot`].
    #[must_use]
    pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("wire_rpcs", self.wire_rpcs.get()),
            ("wire_req_bytes", self.wire_req_bytes.get()),
            ("wire_resp_bytes", self.wire_resp_bytes.get()),
            ("writeback_batches", self.writeback_batches.get()),
        ]
    }
}

/// What the proxy remembers about a descriptor the server opened for it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FdState {
    /// Inode behind the descriptor (cache key component).
    pub ino: Ino,
    /// Consistency generation the descriptor last synchronized at —
    /// set at open, advanced by this host's own write-backs.
    pub generation: u64,
}

/// One host's gateway to the [`StorageServer`].
#[derive(Debug)]
pub struct HostProxy {
    server: Arc<StorageServer>,
    timings: Timings,
    rtt_ns: Nanos,
    up: BandwidthResource,
    down: BandwidthResource,
    cache: HostPageCache,
    fds: Mutex<HashMap<HostFd, FdState>>,
    wire: WireStats,
    /// Test seam: a response to hand back in place of the server's next
    /// one, standing in for a peer that answers out of protocol.
    #[cfg(test)]
    misanswer: Mutex<Option<WireResponse>>,
}

impl HostProxy {
    /// A proxy to `server` over a link calibrated by the server's
    /// timing sheet, with a host page cache of `cache_pages` entries
    /// (`0` disables the cache).
    #[must_use]
    pub fn new(server: Arc<StorageServer>, cache_pages: usize) -> Self {
        let timings = server.timings().clone();
        Self {
            rtt_ns: timings.net_rtt_ns,
            up: BandwidthResource::new(timings.net_mb_s, 0),
            down: BandwidthResource::new(timings.net_mb_s, 0),
            cache: HostPageCache::new(cache_pages, 8),
            fds: Mutex::new(HashMap::new()),
            wire: WireStats::default(),
            #[cfg(test)]
            misanswer: Mutex::new(None),
            timings,
            server,
        }
    }

    /// Replace the server's next response with `resp` (see `misanswer`).
    #[cfg(test)]
    pub(crate) fn misanswer_next(&self, resp: WireResponse) {
        *self.misanswer.lock() = Some(resp);
    }

    /// The storage server this proxy frames to.
    #[must_use]
    pub fn server(&self) -> &Arc<StorageServer> {
        &self.server
    }

    /// The platform timing sheet (shared with the server).
    #[must_use]
    pub fn timings(&self) -> &Timings {
        &self.timings
    }

    /// The host-local page cache.
    #[must_use]
    pub fn cache(&self) -> &HostPageCache {
        &self.cache
    }

    /// Wire-level counters of this host's link.
    #[must_use]
    pub fn wire(&self) -> &WireStats {
        &self.wire
    }

    /// Link time each direction has accepted since the proxy was built,
    /// as `(up, down)`.
    #[must_use]
    pub fn link_busy_ns(&self) -> (Nanos, Nanos) {
        (self.up.busy_ns(), self.down.busy_ns())
    }

    /// What this proxy knows about `fd`, if the server opened it here.
    pub(crate) fn fd_state(&self, fd: HostFd) -> Option<FdState> {
        self.fds.lock().get(&fd).copied()
    }

    /// Ship one request over the wire and wait for the response,
    /// advancing `clock` across the full round-trip: uplink serialization
    /// plus half the fixed round-trip, the server's own service time,
    /// then downlink serialization plus the other half.
    ///
    /// The descriptor table is maintained here, from response traffic
    /// alone: `Opened` inserts, `Wrote` advances the generation,
    /// `Close` removes.
    ///
    /// # Errors
    ///
    /// Returns the [`FsError`] the server answered with, or
    /// [`FsError::Protocol`] when the server rejects the request frame or
    /// its response frame does not decode — the peer's bytes never panic
    /// this host.
    pub(crate) fn call(
        &self,
        clock: &mut Clock,
        req: &WireRequest,
    ) -> Result<WireResponse, FsError> {
        // The round-trip span opens before the frame is authored so the
        // encoded ctx names it as the server-side parent.
        let sp = obs::span("net_roundtrip");
        let issued = clock.now();
        let frame = proto::encode_request_ctx(req, obs::current());
        // Charge the link (and the byte counters) for the frame minus
        // the trace ctx, so tracing never perturbs virtual time.
        let wire_len = proto::charged_len(&frame) as u64;
        self.wire.wire_rpcs.incr();
        self.wire.wire_req_bytes.add(wire_len);
        let arrival = self.up.transfer(clock.now(), wire_len).end + self.rtt_ns / 2;
        // Like `RpcHub::call`, the service wait is a blocking region:
        // holding any lock across a storage round-trip stalls every
        // other GPU on this host for a network RTT, and lockcheck's
        // PR 6 detector flags exactly that.
        let served = parking_lot::lockcheck::blocking_region("net-roundtrip", || {
            self.server.serve_frame(&frame, arrival)
        });
        let (resp_frame, server_end) =
            served.map_err(|e| FsError::Protocol(format!("request frame rejected: {e}")))?;
        self.wire.wire_resp_bytes.add(resp_frame.len() as u64);
        let end = self.down.transfer(server_end, resp_frame.len() as u64).end
            + (self.rtt_ns - self.rtt_ns / 2);
        clock.wait_until(end);
        sp.finish_attrs(issued, clock.now(), &[("req_bytes", wire_len)]);
        let resp = proto::decode_response(&resp_frame)
            .map_err(|e| FsError::Protocol(format!("response frame: {e}")))?;
        #[cfg(test)]
        let resp = self.misanswer.lock().take().unwrap_or(resp);
        match (&resp, req) {
            (
                WireResponse::Opened {
                    fd,
                    ino,
                    generation,
                    ..
                },
                _,
            ) => {
                self.fds.lock().insert(
                    *fd,
                    FdState {
                        ino: *ino,
                        generation: *generation,
                    },
                );
            }
            (WireResponse::Wrote { generation, .. }, WireRequest::WritePages { fd, .. }) => {
                if let Some(st) = self.fds.lock().get_mut(fd) {
                    st.generation = *generation;
                }
            }
            (WireResponse::Done, WireRequest::Close { fd }) => {
                self.fds.lock().remove(fd);
            }
            _ => {}
        }
        match resp {
            WireResponse::Err(e) => Err(e),
            ok => Ok(ok),
        }
    }
}

#[allow(clippy::expect_used)]
#[cfg(test)]
mod tests {
    use super::*;
    use hostfs::{HostFs, HostFsConfig};
    use simtime::bw_time_ns;

    fn proxy_with(timings: Timings, cache_pages: usize) -> HostProxy {
        let fs = Arc::new(HostFs::new(HostFsConfig {
            timings,
            ..HostFsConfig::default()
        }));
        fs.create("/w", &vec![3u8; 128 << 10]).unwrap();
        HostProxy::new(Arc::new(StorageServer::new(fs)), cache_pages)
    }

    fn open(p: &HostProxy, clock: &mut Clock, path: &str) -> HostFd {
        let resp = p
            .call(
                clock,
                &WireRequest::Open {
                    path: path.into(),
                    write: true,
                    create: false,
                    truncate: false,
                },
            )
            .expect("open");
        let WireResponse::Opened { fd, .. } = resp else {
            panic!("expected Opened, got {resp:?}");
        };
        fd
    }

    #[test]
    fn zero_net_round_trip_is_time_transparent() {
        let p = proxy_with(Timings::default().without_net(), 0);
        let mut clock = Clock::starting_at(500);
        let fd = open(&p, &mut clock, "/w");
        let t_proxy = clock.now();
        // The identical sequence against the server directly.
        let fs = Arc::clone(p.server().fs());
        fs.close(fd).expect("close the proxy's fd");
        fs.reset_device_time();
        let (frame, t_direct) = p
            .server()
            .serve_frame(
                &proto::encode_request(&WireRequest::Open {
                    path: "/w".into(),
                    write: true,
                    create: false,
                    truncate: false,
                }),
                500,
            )
            .expect("direct frame");
        assert!(matches!(
            proto::decode_response(&frame).expect("response"),
            WireResponse::Opened { .. }
        ));
        assert_eq!(t_proxy, t_direct, "a free link adds zero virtual time");
    }

    #[test]
    fn link_charges_rtt_and_bandwidth_both_ways() {
        let t = Timings {
            net_rtt_ns: 10_000,
            net_mb_s: 1000.0,
            ..Timings::default()
        };
        let p = proxy_with(t, 0);
        let mut clock = Clock::starting_at(0);
        let fd = open(&p, &mut clock, "/w");
        let t_open = clock.now();
        let before = clock.now();
        let resp = p
            .call(
                &mut clock,
                &WireRequest::ReadPages {
                    fd,
                    pages: vec![(0, 64 << 10)],
                },
            )
            .expect("read");
        let WireResponse::Read { pages } = resp else {
            panic!("expected Read, got {resp:?}");
        };
        assert_eq!(pages[0].len(), 64 << 10);
        // The 64 KiB payload rides the downlink: the round trip must
        // cost at least the RTT plus the payload serialization.
        let floor = 10_000 + bw_time_ns(64 << 10, 1000.0);
        assert!(
            clock.now() - before >= floor,
            "read round-trip {} must exceed link floor {floor}",
            clock.now() - before
        );
        assert!(t_open >= 10_000, "even tiny frames pay the rtt");
        let w = p.wire();
        assert_eq!(w.wire_rpcs.get(), 2);
        assert!(w.wire_resp_bytes.get() > (64 << 10));
        assert!(w.wire_req_bytes.get() < 200, "requests are tiny");
    }

    #[test]
    fn descriptor_table_follows_response_traffic() {
        let p = proxy_with(Timings::default().without_net(), 4);
        let mut clock = Clock::starting_at(0);
        let fd = open(&p, &mut clock, "/w");
        let st = p.fd_state(fd).expect("opened fd is tracked");
        let gen_open = st.generation;
        let resp = p
            .call(
                &mut clock,
                &WireRequest::WritePages {
                    fd,
                    extents: vec![(0, vec![9u8; 64])],
                },
            )
            .expect("write");
        let WireResponse::Wrote { generation, .. } = resp else {
            panic!("expected Wrote, got {resp:?}");
        };
        assert!(generation > gen_open, "write-back advances the generation");
        assert_eq!(
            p.fd_state(fd).expect("still tracked").generation,
            generation,
            "the proxy reads its own writes at the new generation"
        );
        p.call(&mut clock, &WireRequest::Close { fd })
            .expect("close");
        assert!(p.fd_state(fd).is_none(), "close drops the entry");
    }

    #[test]
    fn server_errors_surface_as_fs_errors() {
        let p = proxy_with(Timings::default().without_net(), 0);
        let mut clock = Clock::starting_at(0);
        let err = p
            .call(&mut clock, &WireRequest::Fsync { fd: 404 })
            .expect_err("bad descriptor");
        assert_eq!(err, FsError::BadDescriptor(404));
    }

    #[test]
    fn concurrent_hosts_share_the_server_but_not_the_link() {
        // Two proxies to one server: wire counters stay per-host while
        // the served frames aggregate server-side.
        let fs = Arc::new(HostFs::new(HostFsConfig {
            timings: Timings::default().without_net(),
            ..HostFsConfig::default()
        }));
        fs.create("/s", b"shared").unwrap();
        let server = Arc::new(StorageServer::new(fs));
        let a = HostProxy::new(Arc::clone(&server), 0);
        let b = HostProxy::new(Arc::clone(&server), 0);
        let mut ca = Clock::starting_at(0);
        let mut cb = Clock::starting_at(0);
        open(&a, &mut ca, "/s");
        open(&b, &mut cb, "/s");
        open(&b, &mut cb, "/s");
        assert_eq!(a.wire().wire_rpcs.get(), 1);
        assert_eq!(b.wire().wire_rpcs.get(), 2);
        assert_eq!(server.stats().frames.get(), 3);
    }
}

//! The cross-host storage server: sole owner of the shared file system.
//!
//! In the single-host design the daemon worker calls [`hostfs::HostFs`]
//! directly. The cross-host split moves that ownership here: a
//! [`StorageServer`] holds the one `HostFs` (and with it the
//! close-to-open consistency registry every host's GPUs register
//! against) and serves *decoded wire frames* through that file system's
//! `Backing` implementation (`daemon/backing.rs`) — the very calls a
//! local daemon worker makes, so a proxy-backed daemon over a free
//! network link times bit-for-bit like a local one. What is left here is
//! the mapping: request → call → response.
//!
//! The server is passive: it has no threads of its own. Each
//! [`StorageServer::serve_frame`] call runs on the caller's (proxy's)
//! OS thread with its own virtual [`Clock`] started at the frame's
//! arrival time; concurrency across hosts is arbitrated by the shared
//! `simtime` resources under the file system (disk, page cache), exactly
//! as the local daemon's worker pool is.

use std::sync::Arc;

use hostfs::HostFs;
use obs::Counter;
use simtime::{Clock, Nanos, Timings};

use super::proto::{self, ProtoError, WireRequest, WireResponse};
use crate::daemon::backing::Backing;

/// The trace-span name of one served wire request.
fn server_span_name(req: &WireRequest) -> &'static str {
    match req {
        WireRequest::Meta(op) => op.names()[3],
        WireRequest::ReadPages { .. } => "server:ReadPages",
        WireRequest::WritePages { .. } => "server:WritePages",
    }
}

/// Activity counters of one storage server, aggregated over every host
/// link it serves.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Wire frames served (requests decoded and answered).
    pub frames: Counter,
    /// Payload bytes read from files on behalf of `ReadPages` frames.
    pub bytes_read: Counter,
    /// Payload bytes written to files on behalf of `WritePages` frames.
    pub bytes_written: Counter,
    /// Frames answered with a file-system error.
    pub errors: Counter,
}

impl ServerStats {
    /// Every counter as a `(name, value)` row, mirroring
    /// [`crate::DaemonStats::snapshot`].
    #[must_use]
    pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("frames", self.frames.get()),
            ("bytes_read", self.bytes_read.get()),
            ("bytes_written", self.bytes_written.get()),
            ("errors", self.errors.get()),
        ]
    }
}

/// The storage tier of a [`crate::cluster::HostFleet`]: owns the shared
/// [`HostFs`] + consistency registry and answers wire frames from the
/// per-host [`super::HostProxy`]s.
#[derive(Debug)]
pub struct StorageServer {
    fs: Arc<HostFs>,
    stats: ServerStats,
}

impl StorageServer {
    /// Wrap `fs` as the fleet's storage tier.
    #[must_use]
    pub fn new(fs: Arc<HostFs>) -> Self {
        Self {
            fs,
            stats: ServerStats::default(),
        }
    }

    /// The served file system — for seeding, auditing, and observability
    /// (host proxies never touch it; they only speak frames).
    #[must_use]
    pub fn fs(&self) -> &Arc<HostFs> {
        &self.fs
    }

    /// The served platform's timing calibration (proxies model their
    /// local work — cache copies, DMA submits — from the same sheet).
    #[must_use]
    pub fn timings(&self) -> &Timings {
        self.fs.timings()
    }

    /// Activity counters of this server.
    #[must_use]
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Decode and serve one request frame arriving at virtual time
    /// `now`; returns the encoded response frame and the virtual time
    /// the response is ready to go back on the wire.
    ///
    /// File-system failures ride the wire as [`WireResponse::Err`]; the
    /// `Err` branch here is reserved for frames this server cannot even
    /// parse (truncated, corrupt, or wrong wire version) — rejected,
    /// never panicked on.
    ///
    /// # Errors
    ///
    /// Returns the [`ProtoError`] describing why the frame failed to
    /// decode.
    pub fn serve_frame(&self, frame: &[u8], now: Nanos) -> Result<(Vec<u8>, Nanos), ProtoError> {
        let (req, ctx) = proto::decode_request_ctx(frame)?;
        self.stats.frames.incr();
        // Re-parent under the wire ctx so the server's span hangs off
        // the host-side `net_roundtrip` that shipped the frame.
        let _remote = obs::adopt_remote(ctx);
        let sp = obs::span(server_span_name(&req));
        let mut clock = Clock::starting_at(now);
        let resp = self.serve(req, &mut clock);
        sp.finish(now, clock.now());
        if matches!(resp, WireResponse::Err(_)) {
            self.stats.errors.incr();
        }
        Ok((proto::encode_response(&resp), clock.now()))
    }

    /// Answer one decoded request through the file system's own
    /// [`Backing`] implementation — the calls a local daemon worker makes,
    /// so the same waits on `clock` — with no worker named: the server is
    /// passive, and the CPU its file-system calls cost is drawn by the
    /// worker that shipped the frame.
    fn serve(&self, req: WireRequest, clock: &mut Clock) -> WireResponse {
        let backing: &dyn Backing = self.fs.as_ref();
        let result = match req {
            WireRequest::Meta(op) => backing.meta(clock, &op).map(WireResponse::Meta),
            WireRequest::ReadPages { fd, pages } => {
                // The response's pages, filled by the file system in place.
                let mut bufs: Vec<Vec<u8>> = pages
                    .iter()
                    .map(|&(_, len)| vec![0; len as usize])
                    .collect();
                let mut dsts: Vec<(u64, &mut [u8])> = pages
                    .iter()
                    .zip(&mut bufs)
                    .map(|(&(off, _), buf)| (off, buf.as_mut_slice()))
                    .collect();
                let mut ns = vec![0; pages.len()];
                backing
                    .read_chunk(None, clock, fd, 0, &mut dsts, &mut ns)
                    .map(|()| {
                        for (buf, &n) in bufs.iter_mut().zip(&ns) {
                            buf.truncate(n);
                        }
                        self.stats.bytes_read.add(ns.iter().sum::<usize>() as u64);
                        WireResponse::Read { pages: bufs }
                    })
            }
            WireRequest::WritePages { fd, extents } => {
                let extents: Vec<(u64, &[u8])> = extents
                    .iter()
                    .map(|(off, data)| (*off, data.as_slice()))
                    .collect();
                backing
                    .write_chunk(None, clock, fd, &extents)
                    .map(|(n, generation)| {
                        self.stats.bytes_written.add(n as u64);
                        WireResponse::Wrote {
                            n: n as u64,
                            generation,
                        }
                    })
            }
        };
        result.unwrap_or_else(WireResponse::Err)
    }
}

#[allow(clippy::expect_used)]
#[cfg(test)]
mod tests {
    use super::*;
    use crate::rpc::{MetaOk, MetaOp};
    use hostfs::{FsError, HostFsConfig, OpenFlags};

    fn server() -> StorageServer {
        StorageServer::new(Arc::new(HostFs::new(HostFsConfig::default())))
    }

    fn ask(s: &StorageServer, req: &WireRequest, now: Nanos) -> (WireResponse, Nanos) {
        let (frame, end) = s
            .serve_frame(&proto::encode_request(req), now)
            .expect("well-formed frame");
        (
            proto::decode_response(&frame).expect("well-formed response"),
            end,
        )
    }

    #[test]
    fn open_read_write_close_over_frames() {
        let s = server();
        s.fs().create("/f", b"hello wire").unwrap();
        let (resp, t_open) = ask(
            &s,
            &WireRequest::Meta(MetaOp::Open {
                path: "/f".into(),
                write: true,
                create: false,
                truncate: false,
            }),
            1000,
        );
        let WireResponse::Meta(MetaOk::Opened { fd, size, .. }) = resp else {
            panic!("expected Opened, got {resp:?}");
        };
        assert_eq!(size, 10);
        assert!(t_open > 1000, "open charges host time from arrival");

        let (resp, t_read) = ask(
            &s,
            &WireRequest::ReadPages {
                fd,
                pages: vec![(0, 5), (5, 64)],
            },
            t_open,
        );
        let WireResponse::Read { pages } = resp else {
            panic!("expected Read, got {resp:?}");
        };
        assert_eq!(pages, vec![b"hello".to_vec(), b" wire".to_vec()]);
        assert!(t_read > t_open);
        assert_eq!(s.stats().bytes_read.get(), 10);

        let (resp, _) = ask(
            &s,
            &WireRequest::WritePages {
                fd,
                extents: vec![(0, b"HELLO".to_vec())],
            },
            t_read,
        );
        assert!(matches!(resp, WireResponse::Wrote { n: 5, .. }));
        assert_eq!(s.stats().bytes_written.get(), 5);
        let (data, _) = s.fs().read_whole("/f", 0).unwrap();
        assert_eq!(&data, b"HELLO wire");

        let (resp, _) = ask(&s, &WireRequest::Meta(MetaOp::Close { fd }), t_read);
        assert!(matches!(resp, WireResponse::Meta(MetaOk::Done)));
        assert_eq!(s.stats().frames.get(), 4);
        assert_eq!(s.stats().errors.get(), 0);
    }

    #[test]
    fn empty_write_batch_reports_generation_without_cost() {
        let s = server();
        s.fs().create("/g", &[0u8; 16]).unwrap();
        let (resp, _) = ask(
            &s,
            &WireRequest::Meta(MetaOp::Open {
                path: "/g".into(),
                write: true,
                create: false,
                truncate: false,
            }),
            0,
        );
        let WireResponse::Meta(MetaOk::Opened { fd, generation, .. }) = resp else {
            panic!()
        };
        let (resp, end) = ask(
            &s,
            &WireRequest::WritePages {
                fd,
                extents: vec![],
            },
            5000,
        );
        assert_eq!(
            resp,
            WireResponse::Wrote { n: 0, generation },
            "empty batch only reads the generation"
        );
        assert_eq!(end, 5000, "and charges no virtual time");
    }

    #[test]
    fn fs_errors_ride_the_wire_as_responses() {
        let s = server();
        let (resp, _) = ask(
            &s,
            &WireRequest::Meta(MetaOp::Stat {
                path: "/missing".into(),
            }),
            0,
        );
        assert!(matches!(resp, WireResponse::Err(FsError::NotFound(_))));
        let (resp, _) = ask(&s, &WireRequest::Meta(MetaOp::Fsync { fd: 999 }), 0);
        assert!(matches!(
            resp,
            WireResponse::Err(FsError::BadDescriptor(999))
        ));
        assert_eq!(s.stats().errors.get(), 2);
    }

    #[test]
    fn malformed_frames_are_rejected_not_served() {
        let s = server();
        assert_eq!(s.serve_frame(&[], 0), Err(ProtoError::Truncated));
        assert_eq!(s.serve_frame(&[0xaa; 32], 0), Err(ProtoError::BadMagic));
        let mut frame = proto::encode_request(&WireRequest::Meta(MetaOp::Fsync { fd: 1 }));
        frame[4] = 9;
        assert_eq!(s.serve_frame(&frame, 0), Err(ProtoError::BadVersion(9)));
        assert_eq!(s.stats().frames.get(), 0, "rejected frames never count");
    }

    #[test]
    fn server_times_match_the_local_handler_sequence() {
        // The same op sequence served locally (fs calls + a clock) and
        // over frames must land on identical virtual times, so a
        // zero-net proxied host times exactly like a local one.
        let s = server();
        s.fs().create("/t", &vec![7u8; 256 << 10]).unwrap();
        // Warm the host page cache first so both runs see the same
        // cache state, then zero the device clocks before each.
        s.fs().read_whole("/t", 0).unwrap();
        s.fs().reset_device_time();
        let local = {
            let fs = s.fs();
            let mut clock = Clock::starting_at(100);
            let (fd, t) = fs
                .open(
                    "/t",
                    OpenFlags {
                        read: true,
                        write: false,
                        create: false,
                        truncate: false,
                    },
                    clock.now(),
                )
                .unwrap();
            clock.wait_until(t);
            let t_open = clock.now();
            let mut buf = vec![0u8; 64 << 10];
            for i in 0..4u64 {
                let (_, t) = fs.pread(fd, i * (64 << 10), &mut buf, clock.now()).unwrap();
                clock.wait_until(t);
            }
            fs.close(fd).unwrap();
            (t_open, clock.now())
        };
        s.fs().reset_device_time();
        let (resp, t_open) = ask(
            &s,
            &WireRequest::Meta(MetaOp::Open {
                path: "/t".into(),
                write: false,
                create: false,
                truncate: false,
            }),
            100,
        );
        let WireResponse::Meta(MetaOk::Opened { fd, .. }) = resp else {
            panic!()
        };
        let pages: Vec<(u64, u32)> = (0..4).map(|i| (i * (64 << 10), 64 << 10)).collect();
        let (_, t_read) = ask(&s, &WireRequest::ReadPages { fd, pages }, t_open);
        assert_eq!((t_open, t_read), local, "frame serving is time-identical");
    }
}

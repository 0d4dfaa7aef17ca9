//! The daemon's one dispatch.
//!
//! [`serve`] is the one point every request enters, whatever storage the
//! host has: a metadata operation is one [`Backing::meta`] call, while
//! the two bulk-data requests — `ReadPages` and `WritePages` — delegate
//! to the staged, chunked engine in [`super::pipeline`].

use std::sync::Arc;

use gpusim::Gpu;
use hostfs::FsError;
use simtime::{Clock, Nanos};

use super::backing::Backing;
use super::pipeline;
use super::ServeCtx;
use crate::rpc::{MetaOp, Request, RespOk};

/// Serve one request. Returns the response and the virtual time at which
/// the requester may proceed (which, for reads, includes DMA the worker
/// itself does not wait for).
pub(super) fn serve(
    backing: &dyn Backing,
    gpus: &[Arc<Gpu>],
    ctx: &ServeCtx<'_>,
    clock: &mut Clock,
    req: &Request,
) -> (Result<RespOk, FsError>, Nanos) {
    let result = match req {
        Request::Meta(op) => {
            if let MetaOp::Open { .. } = op {
                ctx.on(|s| s.opens.incr());
            }
            backing.meta(clock, op).map(RespOk::Meta)
        }
        Request::ReadPages { fd, pages, gpu } => {
            match pipeline::read_pages(backing, &gpus[*gpu], ctx, clock, *fd, pages) {
                Ok((read, landed)) => return (Ok(read), landed),
                Err(e) => Err(e),
            }
        }
        Request::WritePages { fd, pages, gpu } => {
            pipeline::write_pages(backing, &gpus[*gpu], ctx, clock, *fd, pages)
        }
    };
    (result, clock.now())
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{call, host};
    use crate::rpc::{MetaOk, MetaOp, PageRead, PageWrite, Request, RespOk};
    use hostfs::FsError;

    #[test]
    fn open_read_close_via_rpc() {
        let h = host();
        h.fs().create("/f", b"hello world").unwrap();
        let (ok, t_open) = call(
            &h,
            Request::Meta(MetaOp::Open {
                path: "/f".into(),
                write: false,
                create: false,
                truncate: false,
            }),
        )
        .unwrap();
        let RespOk::Meta(MetaOk::Opened { fd, size, .. }) = ok else {
            panic!("expected Opened")
        };
        assert_eq!(size, 11);
        assert!(t_open > 0);

        let dst = h.gpus()[0].global().alloc(4096).unwrap();
        let (ok, t_read) = call(
            &h,
            Request::ReadPages {
                fd,
                pages: vec![PageRead {
                    offset: 0,
                    len: 4096,
                    dst,
                }],
                gpu: 0,
            },
        )
        .unwrap();
        let RespOk::Read { ns } = ok else {
            panic!("expected Read")
        };
        assert_eq!(ns, vec![11]);
        assert!(t_read > t_open, "read completion includes pread + DMA");
        let mut out = vec![0u8; 11];
        h.gpus()[0].global().read(dst, &mut out);
        assert_eq!(&out, b"hello world");

        let (ok, _) = call(&h, Request::Meta(MetaOp::Close { fd })).unwrap();
        assert!(matches!(ok, RespOk::Meta(MetaOk::Done)));
    }

    #[test]
    fn write_pages_touch_only_modified_bytes() {
        let h = host();
        h.fs().create("/f", &[0xaau8; 64]).unwrap();
        let (ok, _) = call(
            &h,
            Request::Meta(MetaOp::Open {
                path: "/f".into(),
                write: true,
                create: false,
                truncate: false,
            }),
        )
        .unwrap();
        let RespOk::Meta(MetaOk::Opened { fd, .. }) = ok else {
            panic!()
        };
        let src = h.gpus()[0].global().alloc(64).unwrap();
        h.gpus()[0].global().write(src, &[0x55u8; 64]);
        // Diff says only bytes [8,12) and [40,44) changed.
        let (ok, _) = call(
            &h,
            Request::WritePages {
                fd,
                pages: vec![PageWrite {
                    src,
                    page_offset: 0,
                    extents: vec![(8, 4), (40, 4)],
                }],
                gpu: 0,
            },
        )
        .unwrap();
        let RespOk::Wrote { n, .. } = ok else {
            panic!()
        };
        assert_eq!(n, 8);
        let (data, _) = h.fs().read_whole("/f", 0).unwrap();
        assert_eq!(&data[..8], &[0xaa; 8], "unmodified prefix preserved");
        assert_eq!(&data[8..12], &[0x55; 4]);
        assert_eq!(
            &data[12..40],
            &[0xaa; 28],
            "bytes between extents preserved"
        );
        assert_eq!(&data[40..44], &[0x55; 4]);
        assert_eq!(
            h.stats().batched_write_rpcs.get(),
            0,
            "a single-page sync is a batch of one, not counted"
        );
    }

    #[test]
    fn errors_propagate() {
        let h = host();
        let err = call(
            &h,
            Request::Meta(MetaOp::Open {
                path: "/missing".into(),
                write: false,
                create: false,
                truncate: false,
            }),
        );
        assert!(matches!(
            err,
            Err(crate::error::GpufsError::Host(FsError::NotFound(_)))
        ));
    }

    #[test]
    fn stat_and_unlink() {
        let h = host();
        h.fs().create("/s", &[1u8; 100]).unwrap();
        let (ok, _) = call(&h, Request::Meta(MetaOp::Stat { path: "/s".into() })).unwrap();
        let RespOk::Meta(MetaOk::Stat { size, .. }) = ok else {
            panic!()
        };
        assert_eq!(size, 100);
        call(&h, Request::Meta(MetaOp::Unlink { path: "/s".into() })).unwrap();
        assert!(!h.fs().exists("/s"));
    }
}

//! The storage seam under the daemon: what a worker serves file RPCs
//! *against*.
//!
//! [`Backing`] is the paper's "host file system" as the communication
//! layer (§4.3) sees it — six metadata calls plus the two chunk calls the
//! staged engine's stage 1 and write lane are made of, in the shape of
//! rCore's `Device` (`read_at`/`write_at` over anything). Every method
//! advances the caller's [`Clock`] to the moment its result is in this
//! host's memory. Two types implement it, and neither is a wrapper:
//!
//! * [`HostFs`] (below) — the file-system call and its `wait_until`, one
//!   per page or extent. A local daemon worker serves through it, and so
//!   does [`crate::remote::StorageServer`] for every decoded frame.
//! * [`crate::remote::HostProxy`] (`remote/client.rs`) — host page cache
//!   first, one wire frame per chunk for the rest.
//!
//! The chunk calls take the daemon worker they run *on*, if there is one.
//! A named worker pays the CPU half of each file-system call from its pool
//! ([`ServeCtx::file_io`]) and sees the stage as a `pread` / `pwrite` span
//! in its trace. The storage server names none: it is passive, its frames
//! run on the calling proxy's thread, and the worker that shipped the
//! frame draws that CPU itself when the response comes back — so a frame
//! adds nothing under its `server:*` span and nothing to any pool.
//!
//! Both chunk calls work on the caller's memory, like rCore's
//! `read_at(&self, offset, &mut [u8])`: a read fills the destinations it
//! is handed — the daemon hands it the batch's GPU frames — and a write
//! sends out the extents it is handed. No host staging buffer exists; the
//! paper's pinned staging buffers are modelled in virtual time only
//! (`daemon/pipeline.rs`).

use hostfs::{FsError, HostFd, HostFs, Ino, OpenFlags};
use simtime::Clock;

use super::ServeCtx;

/// What [`Backing::open`] learned about the file it opened.
pub(crate) struct Opened {
    pub fd: HostFd,
    pub ino: Ino,
    /// Size at open time.
    pub size: u64,
    /// Consistency generation at open time.
    pub generation: u64,
}

/// What [`Backing::stat`] reports.
pub(crate) struct FileStat {
    pub ino: Ino,
    pub size: u64,
    pub writable: bool,
    pub generation: u64,
}

/// The storage a daemon worker serves against. See the module docs.
pub(crate) trait Backing: Send + Sync {
    fn open(&self, clock: &mut Clock, path: &str, flags: OpenFlags) -> Result<Opened, FsError>;
    fn close(&self, clock: &mut Clock, fd: HostFd) -> Result<(), FsError>;
    fn fsync(&self, clock: &mut Clock, fd: HostFd) -> Result<(), FsError>;
    fn unlink(&self, clock: &mut Clock, path: &str) -> Result<(), FsError>;
    fn truncate(&self, clock: &mut Clock, fd: HostFd, size: u64) -> Result<(), FsError>;
    fn stat(&self, clock: &mut Clock, path: &str) -> Result<FileStat, FsError>;

    /// Stage 1 of a read: read the file at each `(offset, dst)` of `pages`
    /// straight into its `dst`, in order, and set the same index of `ns`
    /// to the bytes it got — at most `dst.len()`, short or 0 at end of
    /// file. Bytes of `dst` past that count are left as they were.
    /// `chunk` is the chunk's index in its batch (the stage span carries
    /// it).
    fn read_chunk(
        &self,
        worker: Option<&ServeCtx<'_>>,
        clock: &mut Clock,
        fd: HostFd,
        chunk: usize,
        pages: &mut [(u64, &mut [u8])],
        ns: &mut [usize],
    ) -> Result<(), FsError>;

    /// The write lane of one chunk: write every `(offset, bytes)` extent
    /// out. Returns the bytes written and the file's consistency
    /// generation after them. An empty chunk only reports the generation:
    /// free locally, one payload-free frame remotely.
    fn write_chunk(
        &self,
        worker: Option<&ServeCtx<'_>>,
        clock: &mut Clock,
        fd: HostFd,
        extents: &[(u64, &[u8])],
    ) -> Result<(usize, u64), FsError>;
}

// `HostFs`'s own methods of the same names take priority inside this
// impl, so `self.open(path, flags, now)` below is the file-system call.
impl Backing for HostFs {
    fn open(&self, clock: &mut Clock, path: &str, flags: OpenFlags) -> Result<Opened, FsError> {
        let (fd, t) = self.open(path, flags, clock.now())?;
        // fstat on a freshly opened fd can only fail if the fd table is
        // corrupt; that comes back as the open's error.
        let meta = self.fstat(fd)?;
        clock.wait_until(t);
        Ok(Opened {
            fd,
            ino: meta.ino,
            size: meta.size,
            generation: self.consistency().generation(meta.ino),
        })
    }

    fn close(&self, _clock: &mut Clock, fd: HostFd) -> Result<(), FsError> {
        self.close(fd)
    }

    fn fsync(&self, clock: &mut Clock, fd: HostFd) -> Result<(), FsError> {
        let t = self.fsync(fd, clock.now())?;
        clock.wait_until(t);
        Ok(())
    }

    fn unlink(&self, clock: &mut Clock, path: &str) -> Result<(), FsError> {
        let t = self.unlink(path, clock.now())?;
        clock.wait_until(t);
        Ok(())
    }

    fn truncate(&self, clock: &mut Clock, fd: HostFd, size: u64) -> Result<(), FsError> {
        let t = self.ftruncate(fd, size, clock.now())?;
        clock.wait_until(t);
        Ok(())
    }

    fn stat(&self, _clock: &mut Clock, path: &str) -> Result<FileStat, FsError> {
        let m = self.stat(path)?;
        Ok(FileStat {
            ino: m.ino,
            size: m.size,
            writable: m.writable,
            generation: self.consistency().generation(m.ino),
        })
    }

    fn read_chunk(
        &self,
        worker: Option<&ServeCtx<'_>>,
        clock: &mut Clock,
        fd: HostFd,
        chunk: usize,
        pages: &mut [(u64, &mut [u8])],
        ns: &mut [usize],
    ) -> Result<(), FsError> {
        let sp = worker.map(|_| obs::span("pread"));
        let start = clock.now();
        // The preads run back to back on the caller's clock; the file
        // system pipelines or serializes them as its cost model says.
        for ((offset, dst), n) in pages.iter_mut().zip(ns.iter_mut()) {
            let issued = clock.now();
            let (got, t) = self.pread(fd, *offset, dst, issued)?;
            clock.wait_until(t);
            if let Some(w) = worker {
                w.file_io(clock, issued, std::iter::once(got));
            }
            *n = got;
        }
        if let Some(sp) = sp {
            let attrs = [("chunk", chunk as u64), ("pages", pages.len() as u64)];
            sp.finish_attrs(start, clock.now(), &attrs);
        }
        Ok(())
    }

    fn write_chunk(
        &self,
        worker: Option<&ServeCtx<'_>>,
        clock: &mut Clock,
        fd: HostFd,
        extents: &[(u64, &[u8])],
    ) -> Result<(usize, u64), FsError> {
        // The ino probe and the generation read cost nothing, and an empty
        // chunk is no stage at all — but it still needs an open descriptor.
        let ino = self.fstat(fd)?.ino;
        let sp = worker
            .filter(|_| !extents.is_empty())
            .map(|_| obs::span("pwrite"));
        let start = clock.now();
        let mut written = 0;
        for &(offset, data) in extents {
            let issued = clock.now();
            let (n, t) = self.pwrite(fd, offset, data, issued)?;
            clock.wait_until(t);
            if let Some(w) = worker {
                w.file_io(clock, issued, std::iter::once(n));
            }
            written += n;
        }
        if let Some(sp) = sp {
            sp.finish(start, clock.now());
        }
        Ok((written, self.consistency().generation(ino)))
    }
}

//! The host file system: namespace, descriptors, and timed I/O.
//!
//! One lock, `HostFs::inner`, covers the namespace, the descriptor table
//! and every file body, and the daemon's workers all go through it. It is
//! held for lookups and for copies of bytes that can change, never for
//! work that can be done from a copied value: `pread` of a synthetic file
//! copies the body's `(len, seed)` under the lock, releases it, and only
//! then generates the bytes. Synthetic bodies are immutable (no write,
//! truncate or open-for-write reaches one), so that read takes effect at
//! the lock like any other. A `Bytes` body is copied out under the lock.
//! The page cache, the disk model and the consistency registry have locks
//! of their own; one taken while `inner` is held is taken after it, and
//! none of them is held while `inner` is taken.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use simtime::{bw_time_ns, ByteLedger, Nanos, Timings};

use crate::consistency::Consistency;
use crate::disk::DiskModel;
use crate::error::FsError;
use crate::inode::{FileBody, FileKind, Ino, Inode};
use crate::pagecache::{CacheStats, PageCache};
use crate::FsResult;

/// A host file descriptor.
pub type HostFd = u64;

/// POSIX-style open flags, reduced to what the substrate needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenFlags {
    /// Allow reads through the descriptor.
    pub read: bool,
    /// Allow writes through the descriptor.
    pub write: bool,
    /// Create the file if missing.
    pub create: bool,
    /// Truncate to zero length on open.
    pub truncate: bool,
}

impl OpenFlags {
    /// `O_RDONLY`.
    #[must_use]
    pub fn read_only() -> Self {
        Self {
            read: true,
            write: false,
            create: false,
            truncate: false,
        }
    }

    /// `O_RDWR`.
    #[must_use]
    pub fn read_write() -> Self {
        Self {
            read: true,
            write: true,
            create: false,
            truncate: false,
        }
    }

    /// `O_WRONLY | O_CREAT | O_TRUNC` — the usual "produce an output file".
    #[must_use]
    // lint:allow dead-pub -- the POSIX open-flag set beside read_only/read_write, kept on purpose; this file's tests exercise it
    pub fn create_truncate() -> Self {
        Self {
            read: false,
            write: true,
            create: true,
            truncate: true,
        }
    }
}

/// File metadata returned by `stat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metadata {
    /// Inode number.
    pub ino: Ino,
    /// File or directory.
    pub kind: FileKind,
    /// Size in bytes (files only; 0 for directories).
    pub size: u64,
    /// Whether the file may be opened for writing.
    pub writable: bool,
}

/// Configuration of the host substrate.
#[derive(Debug, Clone)]
pub struct HostFsConfig {
    /// Device timing calibration.
    pub timings: Timings,
    /// Host physical memory available to the page cache *and* pinned GPU
    /// buffers together (the contended pool of Figure 8).
    pub host_mem_bytes: u64,
    /// Page-cache page size.
    pub cache_page_size: u64,
    /// Cache pages prefetched past each demand-miss run, as Linux
    /// readahead does. This is what lets many concurrent readers with
    /// interleaved sequential streams avoid paying a seek per request.
    pub readahead_pages: u64,
}

impl Default for HostFsConfig {
    fn default() -> Self {
        Self {
            timings: Timings::default(),
            host_mem_bytes: 12 << 30, // the paper's testbed page-cache head-room
            cache_page_size: 64 << 10,
            readahead_pages: 8,
        }
    }
}

#[derive(Debug)]
struct OpenFile {
    ino: Ino,
    flags: OpenFlags,
    path: String,
}

#[derive(Debug, Default)]
struct Inner {
    inodes: HashMap<Ino, Inode>,
    fds: HashMap<HostFd, OpenFile>,
    open_counts: HashMap<Ino, u32>,
    next_ino: Ino,
    next_fd: HostFd,
}

/// The host OS file system (see the crate-level docs).
pub struct HostFs {
    timings: Timings,
    readahead_pages: u64,
    mem: Arc<ByteLedger>,
    disk: DiskModel,
    cache: Mutex<PageCache>,
    consistency: Consistency,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for HostFs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("HostFs")
            .field("inodes", &inner.inodes.len())
            .field("open_fds", &inner.fds.len())
            .field("cache", &*self.cache.lock())
            .finish()
    }
}

const ROOT_INO: Ino = 1;

fn split_path(path: &str) -> FsResult<Vec<&str>> {
    if !path.starts_with('/') {
        return Err(FsError::InvalidPath(path.to_owned()));
    }
    if path == "/" {
        return Ok(Vec::new());
    }
    let comps: Vec<&str> = path[1..].split('/').collect();
    if comps
        .iter()
        .any(|c| c.is_empty() || *c == "." || *c == "..")
    {
        return Err(FsError::InvalidPath(path.to_owned()));
    }
    Ok(comps)
}

impl Inner {
    fn resolve(&self, path: &str) -> FsResult<Ino> {
        let comps = split_path(path)?;
        let mut cur = ROOT_INO;
        for (i, comp) in comps.iter().enumerate() {
            let node = self.inodes.get(&cur).expect("dangling ino");
            if node.kind != FileKind::Dir {
                return Err(FsError::NotADirectory(comps[..i].join("/")));
            }
            cur = *node
                .entries
                .get(*comp)
                .ok_or_else(|| FsError::NotFound(path.to_owned()))?;
        }
        Ok(cur)
    }

    /// Resolve the parent directory of `path`; returns `(dir_ino, name)`.
    fn resolve_parent<'p>(&self, path: &'p str) -> FsResult<(Ino, &'p str)> {
        let comps = split_path(path)?;
        let Some((name, dirs)) = comps.split_last() else {
            return Err(FsError::InvalidPath(path.to_owned()));
        };
        let mut cur = ROOT_INO;
        for comp in dirs {
            let node = self.inodes.get(&cur).expect("dangling ino");
            if node.kind != FileKind::Dir {
                return Err(FsError::NotADirectory(path.to_owned()));
            }
            cur = *node
                .entries
                .get(*comp)
                .ok_or_else(|| FsError::NotFound(path.to_owned()))?;
        }
        if self.inodes[&cur].kind != FileKind::Dir {
            return Err(FsError::NotADirectory(path.to_owned()));
        }
        Ok((cur, name))
    }

    fn alloc_ino(&mut self) -> Ino {
        let ino = self.next_ino;
        self.next_ino += 1;
        ino
    }

    /// The open file behind `fd` and its inode, with the access checked.
    /// Both come from one guard: an open descriptor holds its inode, so
    /// a concurrent last `close` can only make the descriptor itself
    /// gone, which is [`FsError::BadDescriptor`].
    fn open_file(
        &mut self,
        fd: HostFd,
        need_read: bool,
        need_write: bool,
    ) -> FsResult<(&OpenFile, &mut Inode)> {
        let of = self.fds.get(&fd).ok_or(FsError::BadDescriptor(fd))?;
        if (need_read && !of.flags.read) || (need_write && !of.flags.write) {
            return Err(FsError::PermissionDenied(of.path.clone()));
        }
        let node = self
            .inodes
            .get_mut(&of.ino)
            .ok_or(FsError::BadDescriptor(fd))?;
        Ok((of, node))
    }

    /// Drop the inode if it has no links and no open descriptors.
    fn maybe_reap(&mut self, ino: Ino) -> bool {
        let open = self.open_counts.get(&ino).copied().unwrap_or(0);
        let nlink = self.inodes.get(&ino).map_or(1, |n| n.nlink);
        if open == 0 && nlink == 0 {
            self.inodes.remove(&ino);
            true
        } else {
            false
        }
    }
}

impl HostFs {
    /// Create an empty file system with `config`.
    #[must_use]
    pub fn new(config: HostFsConfig) -> Self {
        let mem = Arc::new(ByteLedger::new(config.host_mem_bytes));
        let mut inner = Inner {
            next_ino: ROOT_INO + 1,
            next_fd: 3,
            ..Inner::default()
        };
        inner.inodes.insert(ROOT_INO, Inode::new_dir(ROOT_INO));
        Self {
            disk: DiskModel::from_timings(&config.timings),
            cache: Mutex::new(PageCache::new(config.cache_page_size, Arc::clone(&mem))),
            consistency: Consistency::new(),
            timings: config.timings,
            readahead_pages: config.readahead_pages,
            mem,
            inner: Mutex::new(Inner { ..inner }),
        }
    }

    /// The timing calibration in use.
    #[must_use]
    pub fn timings(&self) -> &Timings {
        &self.timings
    }

    /// The shared host-memory ledger (page cache + pinned buffers).
    #[must_use]
    pub fn mem(&self) -> &Arc<ByteLedger> {
        &self.mem
    }

    /// The WRAPFS-like consistency registry.
    #[must_use]
    pub fn consistency(&self) -> &Consistency {
        &self.consistency
    }

    /// Page-cache counters.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.lock().stats()
    }

    // ------------------------------------------------------------------
    // Untimed setup helpers (dataset generation, not part of experiments).
    // ------------------------------------------------------------------

    /// Create all missing directories along `path`.
    ///
    /// # Errors
    ///
    /// Fails if a path component exists and is a file.
    pub fn mkdir_p(&self, path: &str) -> FsResult<()> {
        let comps = split_path(path)?;
        let mut inner = self.inner.lock();
        let mut cur = ROOT_INO;
        for comp in comps {
            let node = &inner.inodes[&cur];
            if node.kind != FileKind::Dir {
                return Err(FsError::NotADirectory(path.to_owned()));
            }
            if let Some(&next) = node.entries.get(comp) {
                cur = next;
            } else {
                let ino = inner.alloc_ino();
                inner.inodes.insert(ino, Inode::new_dir(ino));
                inner
                    .inodes
                    .get_mut(&cur)
                    .unwrap()
                    .entries
                    .insert(comp.to_owned(), ino);
                cur = ino;
            }
        }
        Ok(())
    }

    /// Create `path` with the given durable content (setup helper, no
    /// virtual time charged; the file starts non-resident so the first
    /// timed read is a cold read from "disk").
    ///
    /// # Errors
    ///
    /// Fails if the file exists or the parent directory is missing.
    pub fn create(&self, path: &str, content: &[u8]) -> FsResult<Ino> {
        self.create_body(path, FileBody::bytes(content), true)
    }

    /// Create an immutable synthetic file of `len` deterministic bytes.
    ///
    /// # Errors
    ///
    /// Fails if the file exists or the parent directory is missing.
    pub fn create_synthetic(&self, path: &str, len: u64, seed: u64) -> FsResult<Ino> {
        self.create_body(path, FileBody::Synthetic { len, seed }, false)
    }

    fn create_body(&self, path: &str, body: FileBody, writable: bool) -> FsResult<Ino> {
        let mut inner = self.inner.lock();
        let (dir, name) = inner.resolve_parent(path)?;
        if inner.inodes[&dir].entries.contains_key(name) {
            return Err(FsError::AlreadyExists(path.to_owned()));
        }
        let ino = inner.alloc_ino();
        inner
            .inodes
            .insert(ino, Inode::new_file(ino, body, writable));
        inner
            .inodes
            .get_mut(&dir)
            .unwrap()
            .entries
            .insert(name.to_owned(), ino);
        Ok(ino)
    }

    /// Whether `path` exists.
    #[must_use]
    pub fn exists(&self, path: &str) -> bool {
        self.inner.lock().resolve(path).is_ok()
    }

    /// Names in directory `path`, sorted.
    ///
    /// # Errors
    ///
    /// Fails if the path is missing or not a directory.
    fn readdir(&self, path: &str) -> FsResult<Vec<String>> {
        let inner = self.inner.lock();
        let ino = inner.resolve(path)?;
        let node = &inner.inodes[&ino];
        if node.kind != FileKind::Dir {
            return Err(FsError::NotADirectory(path.to_owned()));
        }
        Ok(node.entries.keys().cloned().collect())
    }

    /// All regular-file paths under `path`, depth-first, sorted.
    ///
    /// # Errors
    ///
    /// Fails if `path` is missing or not a directory.
    pub fn walk(&self, path: &str) -> FsResult<Vec<String>> {
        let mut out = Vec::new();
        let mut stack = vec![if path == "/" {
            String::new()
        } else {
            path.to_owned()
        }];
        while let Some(dir) = stack.pop() {
            let full = if dir.is_empty() {
                "/".to_owned()
            } else {
                dir.clone()
            };
            for name in self.readdir(&full)? {
                let child = format!("{dir}/{name}");
                let inner = self.inner.lock();
                let ino = inner.resolve(&child)?;
                let kind = inner.inodes[&ino].kind;
                drop(inner);
                match kind {
                    FileKind::Dir => stack.push(child),
                    FileKind::File => out.push(child),
                }
            }
        }
        out.sort();
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Timed operations.
    // ------------------------------------------------------------------

    /// Open `path`. Returns the descriptor and the completion time.
    ///
    /// Opening with write access bumps the file's consistency generation,
    /// which lazily invalidates stale GPU caches (paper §4.4).
    ///
    /// # Errors
    ///
    /// Fails on missing files (without `create`), directories, permission
    /// violations, or invalid paths.
    pub fn open(&self, path: &str, flags: OpenFlags, now: Nanos) -> FsResult<(HostFd, Nanos)> {
        let t = now + self.timings.host_syscall_ns;
        let mut inner = self.inner.lock();
        let ino = match inner.resolve(path) {
            Ok(ino) => ino,
            Err(FsError::NotFound(_)) if flags.create => {
                let (dir, name) = inner.resolve_parent(path)?;
                let ino = inner.alloc_ino();
                inner
                    .inodes
                    .insert(ino, Inode::new_file(ino, FileBody::empty(), true));
                inner
                    .inodes
                    .get_mut(&dir)
                    .unwrap()
                    .entries
                    .insert(name.to_owned(), ino);
                ino
            }
            Err(e) => return Err(e),
        };
        let node = inner.inodes.get_mut(&ino).unwrap();
        if node.kind == FileKind::Dir {
            return Err(FsError::IsADirectory(path.to_owned()));
        }
        if flags.write && !node.writable {
            return Err(FsError::PermissionDenied(path.to_owned()));
        }
        if flags.truncate {
            if !node.body.truncate(0) {
                return Err(FsError::ImmutableFile(path.to_owned()));
            }
            self.cache.lock().invalidate(ino);
        }
        let fd = inner.next_fd;
        inner.next_fd += 1;
        inner.fds.insert(
            fd,
            OpenFile {
                ino,
                flags,
                path: path.to_owned(),
            },
        );
        *inner.open_counts.entry(ino).or_insert(0) += 1;
        drop(inner);
        if flags.write {
            self.consistency.bump(ino);
        }
        Ok((fd, t))
    }

    /// Close a descriptor. Unlinked files are reaped on last close.
    ///
    /// # Errors
    ///
    /// Fails on an unknown descriptor.
    pub fn close(&self, fd: HostFd) -> FsResult<()> {
        let mut inner = self.inner.lock();
        let of = inner.fds.remove(&fd).ok_or(FsError::BadDescriptor(fd))?;
        let cnt = inner.open_counts.get_mut(&of.ino).expect("open count");
        *cnt -= 1;
        if *cnt == 0 {
            inner.open_counts.remove(&of.ino);
        }
        if inner.maybe_reap(of.ino) {
            self.cache.lock().invalidate(of.ino);
            self.consistency.forget(of.ino);
        }
        Ok(())
    }

    /// Charge the timing of touching `[offset, offset+len)` of `ino` for
    /// reading: page-cache hits stream at cached bandwidth, misses go to
    /// disk (contiguous miss runs pay one seek), and any dirty pages the
    /// cache evicts to stay within budget are written back.
    fn charge_read(&self, ino: Ino, offset: u64, len: u64, start: Nanos) -> Nanos {
        let mut cache = self.cache.lock();
        let psize = cache.page_size();
        let first = offset / psize;
        let last = (offset + len).div_ceil(psize).max(first + 1);
        let mut end = start;
        let mut hit_bytes = 0u64;
        let mut miss_run: Option<(u64, u64)> = None; // (first_page, pages)
        let mut writebacks = 0u64;
        let finish_run = |cache: &mut PageCache, p0: u64, n: u64, end: &mut Nanos| {
            let r = self.disk.access(ino, p0 * psize, n * psize, start);
            *end = (*end).max(r.end);
            // Linux-style readahead: the disk keeps streaming past the
            // demand window; followers find those pages resident. The
            // demand reader does not wait for the prefetched tail.
            if self.readahead_pages > 0 {
                let ra0 = p0 + n;
                for page in ra0..ra0 + self.readahead_pages {
                    let _ = cache.insert_readahead(ino, page);
                }
                let _ = self
                    .disk
                    .access(ino, ra0 * psize, self.readahead_pages * psize, r.end);
            }
        };
        for page in first..last {
            let (hit, wb) = cache.touch_read(ino, page);
            writebacks += wb.len() as u64;
            if hit {
                hit_bytes += psize;
                if let Some((p0, n)) = miss_run.take() {
                    finish_run(&mut cache, p0, n, &mut end);
                }
            } else {
                miss_run = Some(match miss_run {
                    Some((p0, n)) => (p0, n + 1),
                    None => (page, 1),
                });
            }
        }
        if let Some((p0, n)) = miss_run {
            finish_run(&mut cache, p0, n, &mut end);
        }
        drop(cache);
        if hit_bytes > 0 {
            // Page-cache copies charge pure bandwidth to the caller: a
            // DRAM pipe does not serialize independent readers the way a
            // disk head does.
            end = end.max(start + bw_time_ns(hit_bytes.min(len), self.timings.host_cached_mb_s));
        }
        if writebacks > 0 {
            let r = self
                .disk
                .access(ino, u64::MAX / 2, writebacks * psize, start);
            end = end.max(r.end);
        }
        end
    }

    /// `pread(2)`: read up to `dst.len()` bytes at `offset`.
    /// Returns bytes read and the completion time.
    ///
    /// # Errors
    ///
    /// Fails on a bad descriptor or a read-forbidden open mode.
    pub fn pread(
        &self,
        fd: HostFd,
        offset: u64,
        dst: &mut [u8],
        now: Nanos,
    ) -> FsResult<(usize, Nanos)> {
        let start = now + self.timings.host_syscall_ns;
        let mut inner = self.inner.lock();
        let (of, node) = inner.open_file(fd, true, false)?;
        let ino = of.ino;
        let n = if let FileBody::Synthetic { len, seed } = node.body {
            // A synthetic body never changes: the read takes effect here,
            // and its bytes are generated with the lock released.
            drop(inner);
            FileBody::Synthetic { len, seed }.read_at(offset, dst)
        } else {
            let n = node.body.read_at(offset, dst);
            drop(inner);
            n
        };
        if n == 0 {
            return Ok((0, start));
        }
        let end = self.charge_read(ino, offset, n as u64, start);
        Ok((n, end))
    }

    /// `pwrite(2)`: write `src` at `offset`, extending the file as needed.
    /// Returns bytes written and the completion time. The data lands in
    /// the page cache (dirty) — durability requires [`HostFs::fsync`].
    ///
    /// # Errors
    ///
    /// Fails on a bad descriptor, a write-forbidden open mode, or an
    /// immutable synthetic file.
    pub fn pwrite(
        &self,
        fd: HostFd,
        offset: u64,
        src: &[u8],
        now: Nanos,
    ) -> FsResult<(usize, Nanos)> {
        let start = now + self.timings.host_syscall_ns;
        let mut inner = self.inner.lock();
        let (of, node) = inner.open_file(fd, false, true)?;
        if !node.body.write_at(offset, src) {
            return Err(FsError::ImmutableFile(of.path.clone()));
        }
        let ino = of.ino;
        drop(inner);
        self.consistency.bump(ino);
        let mut end = start + bw_time_ns(src.len() as u64, self.timings.host_cached_mb_s);
        let mut cache = self.cache.lock();
        let psize = cache.page_size();
        let first = offset / psize;
        let last = (offset + src.len() as u64).div_ceil(psize).max(first + 1);
        let mut writebacks = 0u64;
        for page in first..last {
            writebacks += cache.touch_write(ino, page).len() as u64;
        }
        drop(cache);
        if writebacks > 0 {
            let r = self
                .disk
                .access(ino, u64::MAX / 2, writebacks * psize, start);
            end = end.max(r.end);
        }
        Ok((src.len(), end))
    }

    /// `fsync(2)`: write back all dirty pages of the file and persist its
    /// content. Returns the completion time.
    ///
    /// # Errors
    ///
    /// Fails on a bad descriptor.
    pub fn fsync(&self, fd: HostFd, now: Nanos) -> FsResult<Nanos> {
        let start = now + self.timings.host_syscall_ns;
        let mut inner = self.inner.lock();
        let (of, node) = inner.open_file(fd, false, false)?;
        node.body.sync();
        let ino = of.ino;
        drop(inner);
        let dirty_pages = self.cache.lock().clean(ino);
        if dirty_pages == 0 {
            return Ok(start);
        }
        let psize = self.cache.lock().page_size();
        let r = self.disk.access(ino, 0, dirty_pages * psize, start);
        Ok(r.end)
    }

    /// `stat(2)` by path.
    ///
    /// # Errors
    ///
    /// Fails if the path does not resolve.
    pub fn stat(&self, path: &str) -> FsResult<Metadata> {
        let inner = self.inner.lock();
        let ino = inner.resolve(path)?;
        let node = &inner.inodes[&ino];
        debug_assert_eq!(node.ino, ino, "inode table key matches inode number");
        Ok(Metadata {
            ino,
            kind: node.kind,
            size: if node.kind == FileKind::File {
                node.body.len()
            } else {
                0
            },
            writable: node.writable,
        })
    }

    /// `fstat(2)` by descriptor.
    ///
    /// # Errors
    ///
    /// Fails on a bad descriptor.
    pub fn fstat(&self, fd: HostFd) -> FsResult<Metadata> {
        let inner = self.inner.lock();
        let of = inner.fds.get(&fd).ok_or(FsError::BadDescriptor(fd))?;
        let node = &inner.inodes[&of.ino];
        Ok(Metadata {
            ino: of.ino,
            kind: node.kind,
            size: node.body.len(),
            writable: node.writable,
        })
    }

    /// `unlink(2)`: remove the directory entry. The inode survives until
    /// the last descriptor closes. Returns the completion time.
    ///
    /// # Errors
    ///
    /// Fails if the path is missing or a directory.
    pub fn unlink(&self, path: &str, now: Nanos) -> FsResult<Nanos> {
        let t = now + self.timings.host_syscall_ns;
        let mut inner = self.inner.lock();
        let (dir, name) = inner.resolve_parent(path)?;
        let Some(&ino) = inner.inodes[&dir].entries.get(name) else {
            return Err(FsError::NotFound(path.to_owned()));
        };
        if inner.inodes[&ino].kind == FileKind::Dir {
            return Err(FsError::IsADirectory(path.to_owned()));
        }
        inner.inodes.get_mut(&dir).unwrap().entries.remove(name);
        inner.inodes.get_mut(&ino).unwrap().nlink -= 1;
        let reaped = inner.maybe_reap(ino);
        drop(inner);
        self.consistency.bump(ino);
        self.cache.lock().invalidate(ino);
        if reaped {
            self.consistency.forget(ino);
        }
        Ok(t)
    }

    /// `ftruncate(2)`: set the file length to `size`. Returns the
    /// completion time.
    ///
    /// # Errors
    ///
    /// Fails on a bad descriptor, missing write permission, or an
    /// immutable synthetic file.
    pub fn ftruncate(&self, fd: HostFd, size: u64, now: Nanos) -> FsResult<Nanos> {
        let t = now + self.timings.host_syscall_ns;
        let mut inner = self.inner.lock();
        let (of, node) = inner.open_file(fd, false, true)?;
        if !node.body.truncate(size) {
            return Err(FsError::ImmutableFile(of.path.clone()));
        }
        let ino = of.ino;
        drop(inner);
        self.consistency.bump(ino);
        let psize = self.cache.lock().page_size();
        self.cache.lock().invalidate_from(ino, size.div_ceil(psize));
        Ok(t)
    }

    /// Read a whole file through a fresh descriptor (baseline helper).
    /// Returns the content and the completion time.
    ///
    /// # Errors
    ///
    /// Fails if the file cannot be opened for reading.
    pub fn read_whole(&self, path: &str, now: Nanos) -> FsResult<(Vec<u8>, Nanos)> {
        let (fd, t) = self.open(path, OpenFlags::read_only(), now)?;
        let size = self.fstat(fd)?.size;
        let mut buf = vec![0u8; size as usize];
        let (n, end) = self.pread(fd, 0, &mut buf, t)?;
        buf.truncate(n);
        self.close(fd)?;
        Ok((buf, end))
    }

    // ------------------------------------------------------------------
    // Failure and cache-control hooks.
    // ------------------------------------------------------------------

    /// Simulate a host crash: every non-fsynced write is lost and the page
    /// cache is gone (paper §3.3 failure semantics).
    pub fn crash(&self) {
        let mut inner = self.inner.lock();
        for node in inner.inodes.values_mut() {
            node.body.roll_back();
        }
        drop(inner);
        self.cache.lock().drop_caches();
    }

    /// Drop all clean page-cache contents, as the paper does before
    /// cold-cache experiments (`hdparm`-style flush). Dirty state is
    /// persisted first.
    pub fn drop_caches(&self) {
        let mut inner = self.inner.lock();
        for node in inner.inodes.values_mut() {
            node.body.sync();
        }
        drop(inner);
        let mut cache = self.cache.lock();
        cache.drop_caches();
    }

    /// Disk service time, seeks included, accepted since the last
    /// [`HostFs::reset_device_time`].
    #[must_use]
    pub fn disk_busy_ns(&self) -> Nanos {
        self.disk.busy_ns()
    }

    /// Reset all device queues and counters between benchmark phases,
    /// keeping namespace and cache contents.
    pub fn reset_device_time(&self) {
        self.disk.reset();
        self.cache.lock().reset_stats();
    }

    /// Resolve a path to its inode number (consistency-layer queries).
    ///
    /// # Errors
    ///
    /// Fails if the path does not resolve.
    pub fn ino_of(&self, path: &str) -> FsResult<Ino> {
        self.inner.lock().resolve(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs() -> HostFs {
        HostFs::new(HostFsConfig::default())
    }

    #[test]
    fn create_open_read() {
        let f = fs();
        f.mkdir_p("/data").unwrap();
        f.create("/data/a.bin", &[1, 2, 3, 4, 5]).unwrap();
        let (fd, t) = f.open("/data/a.bin", OpenFlags::read_only(), 0).unwrap();
        assert!(t > 0);
        let mut buf = [0u8; 3];
        let (n, t2) = f.pread(fd, 1, &mut buf, t).unwrap();
        assert_eq!((n, buf), (3, [2, 3, 4]));
        assert!(t2 > t);
        f.close(fd).unwrap();
    }

    #[test]
    fn second_read_is_cached_and_faster() {
        let f = fs();
        f.create_synthetic("/big", 8 << 20, 7).unwrap();
        let (fd, t0) = f.open("/big", OpenFlags::read_only(), 0).unwrap();
        let mut buf = vec![0u8; 4 << 20];
        let (_, t1) = f.pread(fd, 0, &mut buf, t0).unwrap();
        let cold = t1 - t0;
        let (_, t2) = f.pread(fd, 0, &mut buf, t1).unwrap();
        let warm = t2 - t1;
        assert!(cold > warm * 10, "cold {cold} should dwarf warm {warm}");
        let stats = f.cache_stats();
        assert!(stats.misses > 0 && stats.hits > 0);
    }

    #[test]
    fn write_read_roundtrip_and_extension() {
        let f = fs();
        let (fd, t) = f.open("/out", OpenFlags::create_truncate(), 0).unwrap();
        let (n, t) = f.pwrite(fd, 4, b"abcd", t).unwrap();
        assert_eq!(n, 4);
        assert_eq!(f.fstat(fd).unwrap().size, 8);
        // Reading through a write-only fd is denied.
        let mut buf = [0u8; 8];
        assert!(matches!(
            f.pread(fd, 0, &mut buf, t),
            Err(FsError::PermissionDenied(_))
        ));
        f.close(fd).unwrap();
        let (data, _) = f.read_whole("/out", t).unwrap();
        assert_eq!(data, [0, 0, 0, 0, b'a', b'b', b'c', b'd']);
    }

    #[test]
    fn crash_loses_unsynced_writes() {
        let f = fs();
        f.create("/f", b"old").unwrap();
        let (fd, t) = f.open("/f", OpenFlags::read_write(), 0).unwrap();
        f.pwrite(fd, 0, b"new", t).unwrap();
        f.crash();
        let (data, _) = f.read_whole("/f", 0).unwrap();
        assert_eq!(data, b"old");
    }

    #[test]
    fn fsync_survives_crash() {
        let f = fs();
        f.create("/f", b"old").unwrap();
        let (fd, t) = f.open("/f", OpenFlags::read_write(), 0).unwrap();
        let (_, t) = f.pwrite(fd, 0, b"new", t).unwrap();
        let t = f.fsync(fd, t).unwrap();
        f.crash();
        let (data, _) = f.read_whole("/f", t).unwrap();
        assert_eq!(data, b"new");
    }

    #[test]
    fn unlink_keeps_inode_until_close() {
        let f = fs();
        f.create("/f", b"payload").unwrap();
        let (fd, t) = f.open("/f", OpenFlags::read_only(), 0).unwrap();
        f.unlink("/f", t).unwrap();
        assert!(!f.exists("/f"));
        let mut buf = [0u8; 7];
        let (n, _) = f.pread(fd, 0, &mut buf, t).unwrap();
        assert_eq!(n, 7);
        f.close(fd).unwrap();
        assert!(matches!(
            f.open("/f", OpenFlags::read_only(), 0),
            Err(FsError::NotFound(_))
        ));
    }

    #[test]
    fn truncate_shrinks_and_invalidates() {
        let f = fs();
        f.create("/f", &[9u8; 1000]).unwrap();
        let (fd, t) = f.open("/f", OpenFlags::read_write(), 0).unwrap();
        f.ftruncate(fd, 10, t).unwrap();
        assert_eq!(f.fstat(fd).unwrap().size, 10);
    }

    #[test]
    fn open_write_bumps_generation() {
        let f = fs();
        let ino = f.create("/f", b"x").unwrap();
        let g0 = f.consistency().generation(ino);
        let (fd, _) = f.open("/f", OpenFlags::read_write(), 0).unwrap();
        assert!(f.consistency().generation(ino) > g0);
        f.close(fd).unwrap();
    }

    #[test]
    fn synthetic_files_cannot_be_written() {
        let f = fs();
        f.create_synthetic("/s", 1024, 3).unwrap();
        assert!(matches!(
            f.open("/s", OpenFlags::read_write(), 0),
            Err(FsError::PermissionDenied(_))
        ));
    }

    #[test]
    fn walk_lists_files_recursively() {
        let f = fs();
        f.mkdir_p("/a/b").unwrap();
        f.create("/a/x", b"").unwrap();
        f.create("/a/b/y", b"").unwrap();
        f.create("/top", b"").unwrap();
        assert_eq!(f.walk("/").unwrap(), vec!["/a/b/y", "/a/x", "/top"]);
        assert_eq!(f.walk("/a").unwrap(), vec!["/a/b/y", "/a/x"]);
    }

    #[test]
    fn invalid_paths_are_rejected() {
        let f = fs();
        assert!(matches!(
            f.create("relative", b""),
            Err(FsError::InvalidPath(_))
        ));
        assert!(matches!(
            f.create("/a//b", b""),
            Err(FsError::InvalidPath(_))
        ));
        assert!(matches!(
            f.create("/a/../b", b""),
            Err(FsError::InvalidPath(_))
        ));
    }

    #[test]
    fn missing_parent_is_not_found() {
        let f = fs();
        assert!(matches!(
            f.create("/no/dir/file", b""),
            Err(FsError::NotFound(_))
        ));
    }

    #[test]
    fn readdir_sorted() {
        let f = fs();
        f.create("/b", b"").unwrap();
        f.create("/a", b"").unwrap();
        assert_eq!(f.readdir("/").unwrap(), vec!["a", "b"]);
    }

    #[test]
    fn bad_descriptor_errors() {
        let f = fs();
        let mut buf = [0u8; 1];
        assert!(matches!(
            f.pread(99, 0, &mut buf, 0),
            Err(FsError::BadDescriptor(99))
        ));
        assert!(matches!(f.close(99), Err(FsError::BadDescriptor(99))));
    }

    #[test]
    fn readahead_makes_following_pages_resident() {
        let f = HostFs::new(HostFsConfig {
            readahead_pages: 4,
            ..HostFsConfig::default()
        });
        f.create_synthetic("/ra", 2 << 20, 3).unwrap();
        let (fd, t) = f.open("/ra", OpenFlags::read_only(), 0).unwrap();
        let mut buf = vec![0u8; 1000];
        let (_, t) = f.pread(fd, 0, &mut buf, t).unwrap();
        // The demand read touched page 0; readahead staged pages 1..=4,
        // so the next sequential read hits without new misses.
        let misses = f.cache_stats().misses;
        let (_, _t) = f.pread(fd, 64 << 10, &mut buf, t).unwrap();
        assert_eq!(
            f.cache_stats().misses,
            misses,
            "page 1 was readahead-resident"
        );
        assert!(f.cache_stats().hits > 0);
        f.close(fd).unwrap();
    }

    #[test]
    fn synthetic_preads_stay_exact_beside_namespace_churn() {
        // Two readers pread overlapping and disjoint 64 KB ranges of one
        // synthetic file while a third thread creates, stats, truncates
        // and unlinks other files; a barrier starts every round on all
        // three at once. Every byte must be the reference's, and the lock
        // checker must find nothing. A failed round is recorded, not
        // panicked on, so that no thread is left waiting at the barrier.
        use crate::inode::synth_byte;
        use std::sync::Barrier;

        const LEN: u64 = 4 << 20;
        const ROUNDS: u64 = 24;
        let f = fs();
        f.create_synthetic("/syn", LEN, 21).unwrap();
        f.mkdir_p("/churn").unwrap();
        let round_start = Barrier::new(3);
        let read_round =
            |fd: HostFd, round: u64, reader: u64, t: &mut Nanos| -> Result<(), String> {
                let mut buf = vec![0u8; 64 << 10];
                // Both readers read in the first 350 KB, 4099 bytes apart;
                // each also reads in its own half of the file.
                let shared = round * 12_289 + reader * 4_099;
                let own = LEN / 2 * reader + round * 65_537;
                for offset in [shared, own] {
                    let (n, end) = f
                        .pread(fd, offset, &mut buf, *t)
                        .map_err(|e| e.to_string())?;
                    *t = end;
                    let exact = n == buf.len()
                        && buf
                            .iter()
                            .zip(offset..)
                            .all(|(&b, p)| b == synth_byte(21, p));
                    if !exact {
                        return Err(format!("reader {reader}: {n} bytes at {offset} are wrong"));
                    }
                }
                Ok(())
            };
        // (size by path, size by descriptor, exists after unlink)
        let churn_round = |path: &str| -> FsResult<(u64, u64, bool)> {
            f.create(path, &[7; 100])?;
            let (fd, t) = f.open(path, OpenFlags::read_write(), 0)?;
            f.ftruncate(fd, 10, t)?;
            let sizes = (f.stat(path)?.size, f.fstat(fd)?.size);
            f.unlink(path, t)?;
            f.close(fd)?;
            Ok((sizes.0, sizes.1, f.exists(path)))
        };
        let failures = std::thread::scope(|s| {
            let readers: Vec<_> = (0..2u64)
                .map(|reader| {
                    let (f, round_start, read_round) = (&f, &round_start, &read_round);
                    s.spawn(move || {
                        let (fd, mut t) = f.open("/syn", OpenFlags::read_only(), 0).unwrap();
                        let failed: Vec<_> = (0..ROUNDS)
                            .filter_map(|round| {
                                round_start.wait();
                                read_round(fd, round, reader, &mut t).err()
                            })
                            .collect();
                        f.close(fd).unwrap();
                        failed
                    })
                })
                .collect();
            let churn = s.spawn(|| {
                (0..ROUNDS)
                    .filter_map(|round| {
                        round_start.wait();
                        let path = format!("/churn/f{round}");
                        match churn_round(&path) {
                            Ok((10, 10, false)) => None,
                            other => Some(format!("{path}: {other:?}")),
                        }
                    })
                    .collect::<Vec<_>>()
            });
            readers
                .into_iter()
                .chain([churn])
                .flat_map(|h| h.join().unwrap())
                .collect::<Vec<_>>()
        });
        assert!(failures.is_empty(), "{failures:?}");
        let reports = parking_lot::lockcheck::take_reports();
        assert!(reports.is_empty(), "lock checker findings: {reports:#?}");
    }

    /// One thread calls `op` on a descriptor until it is gone while
    /// another makes the last `close` of the descriptor's unlinked file,
    /// which reaps the inode; a barrier starts each round on both. Every
    /// call must succeed or fail with `BadDescriptor`. A panic is caught
    /// and recorded, so the closer is never left waiting at the barrier.
    fn race_the_last_close(op: impl Fn(&HostFs, HostFd) -> FsResult<usize> + Sync) {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Barrier;

        const ROUNDS: usize = 4_000;
        let f = fs();
        let fd_of_round = AtomicU64::new(0);
        let (start, end) = (Barrier::new(2), Barrier::new(2));
        let failures = std::thread::scope(|s| {
            let user = s.spawn(|| {
                let mut failed = Vec::new();
                for round in 0..ROUNDS {
                    start.wait();
                    let fd = fd_of_round.load(Ordering::Acquire);
                    loop {
                        match catch_unwind(AssertUnwindSafe(|| op(&f, fd))) {
                            Ok(Ok(_)) => {}
                            Ok(Err(FsError::BadDescriptor(_))) => break,
                            Ok(Err(e)) => {
                                failed.push(format!("round {round}: {e}"));
                                break;
                            }
                            Err(_) => {
                                failed.push(format!("round {round}: panicked"));
                                break;
                            }
                        }
                    }
                    end.wait();
                }
                failed
            });
            for round in 0..ROUNDS {
                let path = format!("/race{round}");
                f.create(&path, &[3; 64]).unwrap();
                let (fd, _) = f.open(&path, OpenFlags::read_write(), 0).unwrap();
                f.unlink(&path, 0).unwrap();
                fd_of_round.store(fd, Ordering::Release);
                start.wait();
                f.close(fd).unwrap();
                end.wait();
            }
            user.join().unwrap()
        });
        assert!(
            failures.is_empty(),
            "{} of {ROUNDS} rounds failed: {:?}",
            failures.len(),
            &failures[..failures.len().min(5)]
        );
        let reports = parking_lot::lockcheck::take_reports();
        assert!(reports.is_empty(), "lock checker findings: {reports:#?}");
    }

    #[test]
    fn descriptor_race_pread_against_the_last_close() {
        race_the_last_close(|f, fd| {
            let mut buf = [0u8; 64];
            f.pread(fd, 0, &mut buf, 0).map(|(n, _)| n)
        });
    }

    #[test]
    fn descriptor_race_pwrite_against_the_last_close() {
        race_the_last_close(|f, fd| f.pwrite(fd, 0, &[5; 64], 0).map(|(n, _)| n));
    }

    #[test]
    fn growth_over_a_dropped_file_systems_blocks_reads_zero() {
        // A file system's files, full of a non-zero pattern, are dropped
        // and their blocks parked; files of the next one grow over them.
        let old = fs();
        for i in 0..8 {
            old.create(&format!("/old{i}"), &[0xab; 5 * 4096 + 123])
                .unwrap();
        }
        drop(old);
        let f = fs();
        let pattern = [0xcd; 100];
        let extended = |path: &str, grow: &dyn Fn(HostFd)| -> Vec<u8> {
            f.create(path, &pattern).unwrap();
            let (fd, _) = f.open(path, OpenFlags::read_write(), 0).unwrap();
            grow(fd);
            f.close(fd).unwrap();
            f.read_whole(path, 0).unwrap().0
        };
        // A pwrite past end of file: the gap reads zero.
        let data = extended("/pwrite", &|fd| {
            f.pwrite(fd, 3 * 4096 + 7, b"tail", 0).unwrap();
        });
        assert_eq!(data.len(), 3 * 4096 + 11);
        assert_eq!(&data[..100], &pattern);
        assert!(
            data[100..3 * 4096 + 7].iter().all(|&b| b == 0),
            "pwrite gap"
        );
        assert_eq!(&data[3 * 4096 + 7..], b"tail");
        // ftruncate up, and down then up within the first block: the file's
        // own old bytes past the cut must not come back either.
        let data = extended("/ftruncate", &|fd| {
            f.ftruncate(fd, 2 * 4096 + 5, 0).unwrap();
        });
        assert_eq!(data.len(), 2 * 4096 + 5);
        assert!(data[100..].iter().all(|&b| b == 0), "ftruncate growth");
        let data = extended("/shrink", &|fd| {
            f.ftruncate(fd, 10, 0).unwrap();
            f.ftruncate(fd, 9000, 0).unwrap();
        });
        assert_eq!(&data[..10], &pattern[..10]);
        assert!(data[10..].iter().all(|&b| b == 0), "shrink then growth");
        // open(truncate), then a pwrite past the new end of file.
        f.create("/otrunc", &[0xef; 3 * 4096]).unwrap();
        let (fd, _) = f.open("/otrunc", OpenFlags::create_truncate(), 0).unwrap();
        f.pwrite(fd, 5000, b"x", 0).unwrap();
        f.close(fd).unwrap();
        let data = f.read_whole("/otrunc", 0).unwrap().0;
        assert_eq!(data.len(), 5001);
        assert!(data[..5000].iter().all(|&b| b == 0), "open(truncate) gap");
        assert_eq!(data[5000], b'x');
    }

    #[test]
    fn drop_caches_forces_cold_reads() {
        let f = fs();
        f.create_synthetic("/big", 4 << 20, 1).unwrap();
        let (fd, t) = f.open("/big", OpenFlags::read_only(), 0).unwrap();
        let mut buf = vec![0u8; 1 << 20];
        let (_, t) = f.pread(fd, 0, &mut buf, t).unwrap();
        f.drop_caches();
        f.reset_device_time();
        let (_, t2) = f.pread(fd, 0, &mut buf, t).unwrap();
        assert!(
            f.cache_stats().misses > 0,
            "re-read after drop_caches must miss"
        );
        assert!(t2 > t);
    }
}

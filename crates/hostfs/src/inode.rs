//! Inodes: files, directories, and file bodies.
//!
//! A synthetic body's content is a contract, not an implementation: byte
//! `p` of the file with seed `s` is byte `p % 8`, little-endian, of the
//! 64-bit word `splitmix64(s ^ p / 8)`. Every recorded experiment read
//! these bytes, and a test pins two checksums of them.
//!
//! A mutable body is a list of fixed [`BLOCK_BYTES`] blocks ([`Blocks`]),
//! taken from and parked on one process-wide free list, so a file that
//! grows under `pwrite`, and every file of the next file system, reuses
//! memory the process has already touched instead of faulting in fresh
//! pages. A body's cached and durable copies share their equal blocks by
//! reference count, and a write to a shared block copies it first.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use parking_lot::Mutex;

/// Bytes per block of a [`Blocks`] body: one host page.
const BLOCK_BYTES: usize = 4 << 10;

/// One block, shared by every list that holds the same bytes. Never
/// written through `Arc::make_mut`: its fresh allocation would fault in
/// a page the free list already has.
type Block = Arc<[u8; BLOCK_BYTES]>;

/// Unshared blocks of dropped and shrunk bodies, waiting for the next
/// body that grows or copies a shared block. A block is only ever parked
/// after it was live, only when no other list still holds it, and only
/// allocated when this list is empty, so parked plus live distinct
/// blocks never exceed the most that were live at once. A block's share
/// count cannot change between the check and the park: a block is shared
/// only among the copies of one body, and every body lives under its
/// file system's `HostFs::inner`, so only the holder of that lock moves
/// the body's blocks.
static FREE_BLOCKS: Mutex<Vec<Block>> = Mutex::new(Vec::new());

/// Park each of `blocks` that no other list holds; a shared one only
/// loses this reference.
fn park(blocks: impl IntoIterator<Item = Block>) {
    let mut free = FREE_BLOCKS.lock();
    free.extend(blocks.into_iter().filter(|b| Arc::strong_count(b) == 1));
}

/// Bytes as a list of 4 KiB blocks, taken from a process-wide free list
/// as they grow and parked on it as they shrink or drop. Bytes `[0, len)`
/// are the content; what a block holds past `len` is unspecified (a
/// parked block keeps whatever its last file wrote), so every growth
/// zeroes the part of itself that no write covers: a file reads as zero
/// wherever it has not written.
///
/// [`Clone`] shares every block; a write to a block another list holds
/// first swaps in a private copy (copy on write), so no write through
/// one list ever shows in another.
#[derive(Default)]
pub struct Blocks {
    len: usize,
    blocks: Vec<Block>,
}

impl Blocks {
    /// Length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no bytes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Content bytes held by block `i`.
    fn valid_in(&self, i: usize) -> usize {
        (self.len - i * BLOCK_BYTES).min(BLOCK_BYTES)
    }

    /// Blocks at the same index that `self` and `other` hold by the same
    /// pointer.
    fn shared_with(&self, other: &Blocks) -> usize {
        let pairs = self.blocks.iter().zip(&other.blocks);
        pairs.filter(|(a, b)| Arc::ptr_eq(a, b)).count()
    }

    /// Block `b`, writable. A block another list holds is first replaced
    /// by a private copy taken from the free list.
    fn block_mut(&mut self, b: usize) -> &mut [u8; BLOCK_BYTES] {
        if Arc::get_mut(&mut self.blocks[b]).is_none() {
            let mut own = FREE_BLOCKS
                .lock()
                .pop()
                .unwrap_or_else(|| Arc::new([0u8; BLOCK_BYTES]));
            let bytes = Arc::get_mut(&mut own).expect("a free block is unshared");
            bytes.copy_from_slice(&self.blocks[b][..]);
            self.blocks[b] = own;
        }
        Arc::get_mut(&mut self.blocks[b]).expect("an unshared block")
    }

    /// Copy `[offset, offset + dst.len())` into `dst`; the blocks must
    /// cover the range.
    fn copy_out(&self, offset: usize, dst: &mut [u8]) {
        for (b, in_block, in_range) in pieces(offset, offset + dst.len()) {
            dst[in_range].copy_from_slice(&self.blocks[b][in_block]);
        }
    }

    /// Copy `src` to `offset`; the blocks must cover the range.
    fn copy_in(&mut self, offset: usize, src: &[u8]) {
        for (b, in_block, in_range) in pieces(offset, offset + src.len()) {
            self.block_mut(b)[in_block].copy_from_slice(&src[in_range]);
        }
    }

    /// Zero `[from, to)`; the blocks must cover the range.
    fn zero(&mut self, from: usize, to: usize) {
        for (b, in_block, _) in pieces(from, to) {
            self.block_mut(b)[in_block].fill(0);
        }
    }

    /// Hold exactly the blocks `len` bytes need: take the missing ones
    /// from the free list (allocating only when it runs dry) or park the
    /// surplus on it. Does not change `len` or zero anything.
    fn fit_blocks(&mut self, len: usize) {
        let want = len.div_ceil(BLOCK_BYTES);
        let have = self.blocks.len();
        if want > have {
            let mut free = FREE_BLOCKS.lock();
            let from = free.len().saturating_sub(want - have);
            self.blocks.extend(free.drain(from..));
            drop(free);
            self.blocks
                .resize_with(want, || Arc::new([0u8; BLOCK_BYTES]));
        } else if want < have {
            park(self.blocks.drain(want..));
        }
    }

    /// Set the length to `len`, zeroing every byte the growth adds
    /// except those at or past `written_from`, which the caller is about
    /// to overwrite.
    fn set_len(&mut self, len: usize, written_from: usize) {
        self.fit_blocks(len);
        if len > self.len {
            self.zero(self.len, written_from.clamp(self.len, len));
        }
        self.len = len;
    }

    /// Read up to `dst.len()` bytes at `offset`; returns bytes read.
    pub fn read_at(&self, offset: usize, dst: &mut [u8]) -> usize {
        if offset >= self.len {
            return 0;
        }
        let n = dst.len().min(self.len - offset);
        self.copy_out(offset, &mut dst[..n]);
        n
    }

    /// Write `src` at `offset`, extending the bytes (zero-filling any
    /// gap) as needed.
    pub fn write_at(&mut self, offset: usize, src: &[u8]) {
        let end = offset + src.len();
        if end > self.len {
            self.set_len(end, offset);
        }
        self.copy_in(offset, src);
    }

    /// Shrink to `len`, or extend with zeros to it.
    pub fn truncate(&mut self, len: usize) {
        self.set_len(len, len);
    }

    /// Make these bytes `src`'s by sharing every one of its blocks; the
    /// blocks this list alone held are parked. Returns whether the
    /// content changed, comparing only blocks not already shared.
    fn assign(&mut self, src: &Blocks) -> bool {
        let changed = self != src;
        park(std::mem::replace(&mut self.blocks, src.blocks.clone()));
        self.len = src.len;
        changed
    }
}

impl From<&[u8]> for Blocks {
    fn from(bytes: &[u8]) -> Self {
        let mut b = Blocks::default();
        b.write_at(0, bytes);
        b
    }
}

impl Clone for Blocks {
    fn clone(&self) -> Self {
        Blocks {
            len: self.len,
            blocks: self.blocks.clone(),
        }
    }
}

impl PartialEq for Blocks {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && self
                .blocks
                .iter()
                .zip(&other.blocks)
                .enumerate()
                .all(|(i, (a, b))| {
                    Arc::ptr_eq(a, b) || a[..self.valid_in(i)] == b[..self.valid_in(i)]
                })
    }
}

impl Eq for Blocks {}

/// `[from, to)` cut at block boundaries: per piece, the block index, the
/// range within that block, and the range relative to `from`.
fn pieces(from: usize, to: usize) -> impl Iterator<Item = (usize, Range<usize>, Range<usize>)> {
    let mut at = from;
    std::iter::from_fn(move || {
        (at < to).then(|| {
            let (b, o) = (at / BLOCK_BYTES, at % BLOCK_BYTES);
            let n = (BLOCK_BYTES - o).min(to - at);
            let piece = (b, o..o + n, at - from..at - from + n);
            at += n;
            piece
        })
    })
}

impl fmt::Debug for Blocks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Blocks")
            .field("len", &self.len)
            .field("blocks", &self.blocks.len())
            .finish()
    }
}

impl Drop for Blocks {
    fn drop(&mut self) {
        if !self.blocks.is_empty() {
            park(self.blocks.drain(..));
        }
    }
}

/// Inode number.
pub type Ino = u64;

/// What an inode is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Regular file.
    File,
    /// Directory.
    Dir,
}

/// The bytes of a regular file.
///
/// Real datasets (image databases, source trees) are stored as
/// [`FileBody::Bytes`]. Very large streaming inputs — the paper reads
/// files up to 11.2 GB — use [`FileBody::Synthetic`], whose content is
/// generated deterministically per 8-byte word so that multi-gigabyte
/// files occupy no host RAM while still producing stable bytes on every
/// read. Synthetic files are immutable; the generators are only used for
/// read-mostly inputs (the matrix file of Figure 8, the 1.8 GB sequential-
/// read file of Figure 4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FileBody {
    /// Materialized content. `durable` holds the on-disk copy; `cached`
    /// additionally reflects writes that have not been fsynced yet. The
    /// two share every block no write since the last sync has touched.
    Bytes {
        /// Content as visible through the page cache (latest writes).
        cached: Blocks,
        /// Content as persisted on disk (what survives a crash).
        durable: Blocks,
    },
    /// Deterministically generated content of a fixed length.
    Synthetic {
        /// File length in bytes.
        len: u64,
        /// Generator seed.
        seed: u64,
    },
}

impl FileBody {
    /// An empty mutable file.
    #[must_use]
    pub fn empty() -> Self {
        FileBody::Bytes {
            cached: Blocks::default(),
            durable: Blocks::default(),
        }
    }

    /// A mutable file whose cached and durable copies are both `content`,
    /// held once: the two share every block.
    #[must_use]
    pub fn bytes(content: &[u8]) -> Self {
        let durable = Blocks::from(content);
        FileBody::Bytes {
            cached: durable.clone(),
            durable,
        }
    }

    /// Current (page-cache-visible) length.
    #[must_use]
    pub fn len(&self) -> u64 {
        match self {
            FileBody::Bytes { cached, .. } => cached.len() as u64,
            FileBody::Synthetic { len, .. } => *len,
        }
    }

    /// Whether the file is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read up to `dst.len()` bytes at `offset`; returns bytes read.
    pub fn read_at(&self, offset: u64, dst: &mut [u8]) -> usize {
        let len = self.len();
        if offset >= len {
            return 0;
        }
        let n = dst.len().min((len - offset) as usize);
        match self {
            FileBody::Bytes { cached, .. } => {
                cached.read_at(offset as usize, &mut dst[..n]);
            }
            FileBody::Synthetic { seed, .. } => {
                synth_fill(*seed, offset, &mut dst[..n]);
            }
        }
        n
    }

    /// Write `src` at `offset` into the cached copy, extending the file
    /// (zero-filling any gap). Returns `false` for synthetic files, which
    /// are immutable.
    #[must_use]
    pub fn write_at(&mut self, offset: u64, src: &[u8]) -> bool {
        match self {
            FileBody::Bytes { cached, .. } => {
                cached.write_at(offset as usize, src);
                true
            }
            FileBody::Synthetic { .. } => false,
        }
    }

    /// Persist the cached copy (fsync): the durable copy takes the cached
    /// one's blocks by pointer. Returns the number of bytes that differed,
    /// as a proxy for the write-back volume. For synthetic files this is
    /// always 0.
    pub fn sync(&mut self) -> u64 {
        match self {
            FileBody::Bytes { cached, durable } => {
                let delta = cached.len().max(durable.len()) as u64;
                if durable.assign(cached) {
                    delta
                } else {
                    0
                }
            }
            FileBody::Synthetic { .. } => 0,
        }
    }

    /// Discard non-persisted writes (crash): the cached copy takes the
    /// durable one's blocks by pointer. Returns bytes rolled back.
    pub fn roll_back(&mut self) -> u64 {
        match self {
            FileBody::Bytes { cached, durable } => {
                let delta = cached.len().max(durable.len()) as u64;
                if cached.assign(durable) {
                    delta
                } else {
                    0
                }
            }
            FileBody::Synthetic { .. } => 0,
        }
    }

    /// Blocks of the cached copy that the durable copy does not share:
    /// the host memory that writes since the last sync hold. 0 for a
    /// synthetic file.
    #[must_use]
    pub(crate) fn unshared_blocks(&self) -> usize {
        match self {
            FileBody::Bytes { cached, durable } => {
                cached.blocks.len() - cached.shared_with(durable)
            }
            FileBody::Synthetic { .. } => 0,
        }
    }

    /// Truncate (or extend with zeros) the cached copy to `size`.
    /// Returns `false` for synthetic files.
    #[must_use]
    pub fn truncate(&mut self, size: u64) -> bool {
        match self {
            FileBody::Bytes { cached, .. } => {
                cached.truncate(size as usize);
                true
            }
            FileBody::Synthetic { .. } => false,
        }
    }
}

/// Fill `dst` with the deterministic synthetic content of the file with
/// `seed` starting at byte `offset`.
///
/// Content is defined per 8-byte word: word `i` is `splitmix64(seed ^ i)`
/// in little-endian byte order, so any byte range reads the same
/// regardless of access pattern. Every aligned word of `dst` is written
/// whole; only a partial word at either end is copied in part.
fn synth_fill(seed: u64, offset: u64, dst: &mut [u8]) {
    let word = |i: u64| splitmix64(seed ^ i).to_le_bytes();
    let mut index = offset / 8;
    let skip = (offset % 8) as usize;
    let head = ((8 - skip) % 8).min(dst.len());
    let (head_dst, body) = dst.split_at_mut(head);
    if head > 0 {
        head_dst.copy_from_slice(&word(index)[skip..skip + head]);
        index += 1;
    }
    let mut words = body.chunks_exact_mut(8);
    for chunk in &mut words {
        chunk.copy_from_slice(&word(index));
        index += 1;
    }
    let tail = words.into_remainder();
    if !tail.is_empty() {
        let n = tail.len();
        tail.copy_from_slice(&word(index)[..n]);
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The content contract one byte at a time, the reference the tests hold
/// [`synth_fill`] to: byte `p` of a synthetic file is byte `p % 8` of
/// `splitmix64(seed ^ p / 8)`, little-endian.
#[cfg(test)]
pub(crate) fn synth_byte(seed: u64, pos: u64) -> u8 {
    splitmix64(seed ^ (pos / 8)).to_le_bytes()[(pos % 8) as usize]
}

/// The mutable body as two plain vectors, the reference the tests hold
/// the block body of [`FileBody::Bytes`] to.
#[cfg(test)]
#[derive(Debug, Default, Clone)]
struct VecBody {
    cached: Vec<u8>,
    durable: Vec<u8>,
}

#[cfg(test)]
impl VecBody {
    fn read_at(&self, offset: usize, dst: &mut [u8]) -> usize {
        if offset >= self.cached.len() {
            return 0;
        }
        let n = dst.len().min(self.cached.len() - offset);
        dst[..n].copy_from_slice(&self.cached[offset..offset + n]);
        n
    }

    fn write_at(&mut self, offset: usize, src: &[u8]) {
        let end = offset + src.len();
        if self.cached.len() < end {
            self.cached.resize(end, 0);
        }
        self.cached[offset..end].copy_from_slice(src);
    }

    fn truncate(&mut self, size: usize) {
        self.cached.resize(size, 0);
    }

    fn sync(&mut self) -> u64 {
        if self.cached == self.durable {
            return 0;
        }
        let delta = self.cached.len().max(self.durable.len()) as u64;
        self.durable = self.cached.clone();
        delta
    }

    fn roll_back(&mut self) -> u64 {
        if self.cached == self.durable {
            return 0;
        }
        let delta = self.cached.len().max(self.durable.len()) as u64;
        self.cached = self.durable.clone();
        delta
    }
}

/// One inode: kind, body, and link metadata.
#[derive(Debug, Clone)]
pub struct Inode {
    /// Inode number.
    pub ino: Ino,
    /// File or directory.
    pub kind: FileKind,
    /// File content (unused for directories).
    pub body: FileBody,
    /// Directory entries (unused for files).
    pub entries: BTreeMap<String, Ino>,
    /// Number of directory entries referring to this inode. An unlinked
    /// file with open descriptors survives until the last close.
    pub nlink: u32,
    /// Whether the file may be written at all (host-level protection).
    pub writable: bool,
}

impl Inode {
    /// A new regular file inode.
    #[must_use]
    pub fn new_file(ino: Ino, body: FileBody, writable: bool) -> Self {
        Self {
            ino,
            kind: FileKind::File,
            body,
            entries: BTreeMap::new(),
            nlink: 1,
            writable,
        }
    }

    /// A new directory inode.
    #[must_use]
    pub fn new_dir(ino: Ino) -> Self {
        Self {
            ino,
            kind: FileKind::Dir,
            body: FileBody::empty(),
            entries: BTreeMap::new(),
            nlink: 1,
            writable: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bytes_body_read_write_roundtrip() {
        let mut b = FileBody::empty();
        assert!(b.write_at(4, &[1, 2, 3]));
        assert_eq!(b.len(), 7);
        let mut out = [9u8; 7];
        assert_eq!(b.read_at(0, &mut out), 7);
        assert_eq!(out, [0, 0, 0, 0, 1, 2, 3]);
    }

    #[test]
    fn read_past_eof_is_short() {
        let b = FileBody::bytes(&[1, 2, 3]);
        let mut out = [0u8; 8];
        assert_eq!(b.read_at(2, &mut out), 1);
        assert_eq!(b.read_at(3, &mut out), 0);
        assert_eq!(b.read_at(100, &mut out), 0);
    }

    #[test]
    fn synthetic_reads_are_offset_stable() {
        let b = FileBody::Synthetic {
            len: 1 << 20,
            seed: 7,
        };
        let mut a = vec![0u8; 64];
        let mut c = vec![0u8; 16];
        assert_eq!(b.read_at(100, &mut a), 64);
        assert_eq!(b.read_at(116, &mut c), 16);
        assert_eq!(&a[16..32], &c[..]);
    }

    #[test]
    fn synthetic_is_immutable() {
        let mut b = FileBody::Synthetic { len: 100, seed: 1 };
        assert!(!b.write_at(0, &[1]));
        assert!(!b.truncate(10));
        assert_eq!(b.len(), 100);
    }

    #[test]
    fn sync_and_rollback() {
        let mut b = FileBody::empty();
        assert!(b.write_at(0, b"hello"));
        assert!(b.sync() > 0);
        assert!(b.write_at(0, b"HELLO"));
        assert!(b.roll_back() > 0);
        let mut out = [0u8; 5];
        b.read_at(0, &mut out);
        assert_eq!(&out, b"hello");
        // Nothing dirty: both are no-ops now.
        assert_eq!(b.sync(), 0);
        assert_eq!(b.roll_back(), 0);
    }

    #[test]
    fn truncate_extends_with_zeros() {
        let mut b = FileBody::empty();
        assert!(b.write_at(0, &[9, 9]));
        assert!(b.truncate(4));
        let mut out = [7u8; 4];
        b.read_at(0, &mut out);
        assert_eq!(out, [9, 9, 0, 0]);
        assert!(b.truncate(1));
        assert_eq!(b.len(), 1);
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn synth_fill_matches_the_per_byte_reference() {
        for offset in 0..16u64 {
            for len in 0..=40usize {
                let mut got = vec![0xa5u8; len];
                synth_fill(42, offset, &mut got);
                let want: Vec<u8> = (offset..offset + len as u64)
                    .map(|p| synth_byte(42, p))
                    .collect();
                assert_eq!(got, want, "offset {offset} len {len}");
            }
        }
        // A 64 KB read at an odd offset, and one cut short by end of file:
        // the bytes past what was read stay untouched.
        let file_len = 1u64 << 20;
        let body = FileBody::Synthetic {
            len: file_len,
            seed: 9,
        };
        for (offset, want_n) in [(12_345u64, 64 << 10), (file_len - 40_001, 40_001)] {
            let mut got = vec![0xa5u8; 64 << 10];
            assert_eq!(body.read_at(offset, &mut got), want_n, "at {offset}");
            for (i, &b) in got.iter().enumerate() {
                let want = if i < want_n {
                    synth_byte(9, offset + i as u64)
                } else {
                    0xa5
                };
                assert_eq!(b, want, "byte {i} of the read at {offset}");
            }
        }
    }

    #[test]
    fn synthetic_content_is_pinned() {
        // Every recorded experiment read these bytes: a faster generator
        // must produce exactly them.
        let body = FileBody::Synthetic {
            len: 1 << 20,
            seed: 7,
        };
        let mut page = vec![0u8; 64 << 10];
        let mut short = [0u8; 13];
        assert_eq!(body.read_at(0, &mut page), 64 << 10);
        assert_eq!(body.read_at(5, &mut short), 13);
        assert_eq!(
            (fnv1a(&page), fnv1a(&short)),
            (0xb0c3_92eb_5f31_dd83, 0xb906_c1f1_b52e_15d8)
        );
    }

    /// One step of a body's life.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// Write `len` bytes of a pattern seeded by the third field.
        Write(usize, usize, u8),
        Truncate(usize),
        Sync,
        RollBack,
        Read(usize, usize),
        /// Make the twin a clone of the body.
        Clone,
        /// Write into the twin, as `Write` does into the body.
        WriteTwin(usize, usize, u8),
    }

    /// Offsets anywhere in five blocks, half of them within a few bytes
    /// of a block boundary.
    fn offset() -> impl Strategy<Value = usize> {
        prop_oneof![
            0usize..5 * BLOCK_BYTES,
            (0usize..6, 0usize..9).prop_map(|(b, d)| (b * BLOCK_BYTES + d).saturating_sub(4)),
        ]
    }

    fn op() -> impl Strategy<Value = Op> {
        // A write is drawn twice as often as any other step.
        prop_oneof![
            (offset(), 0usize..2 * BLOCK_BYTES + 9, any::<u8>())
                .prop_map(|(at, len, seed)| Op::Write(at, len, seed)),
            (offset(), 0usize..2 * BLOCK_BYTES + 9, any::<u8>())
                .prop_map(|(at, len, seed)| Op::Write(at, len, seed)),
            offset().prop_map(Op::Truncate),
            (0usize..1).prop_map(|_| Op::Sync),
            (0usize..1).prop_map(|_| Op::RollBack),
            (offset(), 0usize..3 * BLOCK_BYTES).prop_map(|(at, len)| Op::Read(at, len)),
            (0usize..1).prop_map(|_| Op::Clone),
            (offset(), 0usize..2 * BLOCK_BYTES + 9, any::<u8>())
                .prop_map(|(at, len, seed)| Op::WriteTwin(at, len, seed)),
        ]
    }

    /// `len` bytes of the pattern seeded by `seed`, none of them zero.
    fn pattern(len: usize, seed: u8) -> Vec<u8> {
        (0..len).map(|i| seed.wrapping_add(i as u8) | 1).collect()
    }

    /// Whether `body`'s cached copy reads as `reference`'s and its
    /// durable copy equals `reference`'s.
    fn holds(body: &FileBody, reference: &VecBody) -> bool {
        let FileBody::Bytes { cached, durable } = body else {
            return false;
        };
        let mut whole = vec![0x5a; cached.len()];
        cached.read_at(0, &mut whole);
        whole == reference.cached && *durable == Blocks::from(&reference.durable[..])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn block_body_matches_the_two_vector_reference(
            ops in prop::collection::vec(op(), 1..40),
        ) {
            // Park blocks full of non-zero bytes first, so growth takes
            // blocks whose old content must not show through.
            // The twin is a clone of the body taken at a `Clone` step: a
            // write through either must never show in the other.
            drop(Blocks::from(&[0xee; 6 * BLOCK_BYTES][..]));
            let (mut body, mut reference) = (FileBody::empty(), VecBody::default());
            let (mut twin, mut twin_reference) = (FileBody::empty(), VecBody::default());
            for (step, &op) in ops.iter().enumerate() {
                match op {
                    Op::Write(at, len, seed) => {
                        let src = pattern(len, seed);
                        prop_assert!(body.write_at(at as u64, &src));
                        reference.write_at(at, &src);
                    }
                    Op::Truncate(size) => {
                        prop_assert!(body.truncate(size as u64));
                        reference.truncate(size);
                    }
                    Op::Sync => prop_assert_eq!(body.sync(), reference.sync(), "step {}", step),
                    Op::RollBack => {
                        prop_assert_eq!(body.roll_back(), reference.roll_back(), "step {}", step);
                    }
                    Op::Read(at, len) => {
                        let (mut got, mut want) = (vec![0x5a; len], vec![0x5a; len]);
                        prop_assert_eq!(
                            body.read_at(at as u64, &mut got),
                            reference.read_at(at, &mut want),
                            "step {}", step
                        );
                        prop_assert!(got == want, "step {step}: {op:?} read differs");
                    }
                    Op::Clone => (twin, twin_reference) = (body.clone(), reference.clone()),
                    Op::WriteTwin(at, len, seed) => {
                        let src = pattern(len, seed);
                        prop_assert!(twin.write_at(at as u64, &src));
                        twin_reference.write_at(at, &src);
                    }
                }
                if matches!(op, Op::Sync | Op::RollBack) {
                    let FileBody::Bytes { cached, durable } = &body else { unreachable!() };
                    let n = cached.blocks.len();
                    prop_assert_eq!(durable.blocks.len(), n, "step {}", step);
                    prop_assert_eq!(cached.shared_with(durable), n, "step {}: {:?}", step, op);
                }
                prop_assert!(holds(&body, &reference), "step {step}: body differs after {op:?}");
                prop_assert!(holds(&twin, &twin_reference), "step {step}: twin differs after {op:?}");
            }
        }
    }

    #[test]
    fn synth_fill_word_boundaries() {
        let mut whole = vec![0u8; 32];
        synth_fill(42, 0, &mut whole);
        for split in 1..31 {
            let mut a = vec![0u8; split];
            let mut b = vec![0u8; 32 - split];
            synth_fill(42, 0, &mut a);
            synth_fill(42, split as u64, &mut b);
            let mut joined = a;
            joined.extend_from_slice(&b);
            assert_eq!(joined, whole, "split at {split}");
        }
    }
}

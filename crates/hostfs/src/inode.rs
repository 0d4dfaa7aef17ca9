//! Inodes: files, directories, and file bodies.
//!
//! A synthetic body's content is a contract, not an implementation: byte
//! `p` of the file with seed `s` is byte `p % 8`, little-endian, of the
//! 64-bit word `splitmix64(s ^ p / 8)`. Every recorded experiment read
//! these bytes, and a test pins two checksums of them.

use std::collections::BTreeMap;

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
    /// additionally reflects writes that have not been fsynced yet.
    Bytes {
        /// Content as visible through the page cache (latest writes).
        cached: Vec<u8>,
        /// Content as persisted on disk (what survives a crash).
        durable: Vec<u8>,
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
            cached: Vec::new(),
            durable: Vec::new(),
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
                dst[..n].copy_from_slice(&cached[offset as usize..offset as usize + n]);
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
                let end = offset as usize + src.len();
                if cached.len() < end {
                    cached.resize(end, 0);
                }
                cached[offset as usize..end].copy_from_slice(src);
                true
            }
            FileBody::Synthetic { .. } => false,
        }
    }

    /// Persist the cached copy (fsync). Returns the number of bytes that
    /// differed, as a proxy for the write-back volume. For synthetic files
    /// this is always 0.
    pub fn sync(&mut self) -> u64 {
        match self {
            FileBody::Bytes { cached, durable } => {
                if cached == durable {
                    0
                } else {
                    let delta = cached.len().max(durable.len()) as u64;
                    *durable = cached.clone();
                    delta
                }
            }
            FileBody::Synthetic { .. } => 0,
        }
    }

    /// Discard non-persisted writes (crash). Returns bytes rolled back.
    pub fn roll_back(&mut self) -> u64 {
        match self {
            FileBody::Bytes { cached, durable } => {
                if cached == durable {
                    0
                } else {
                    let delta = cached.len().max(durable.len()) as u64;
                    *cached = durable.clone();
                    delta
                }
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
                cached.resize(size as usize, 0);
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
pub(crate) fn synth_fill(seed: u64, offset: u64, dst: &mut [u8]) {
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
        let b = FileBody::Bytes {
            cached: vec![1, 2, 3],
            durable: vec![1, 2, 3],
        };
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

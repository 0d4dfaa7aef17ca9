//! The hand-rolled wire format of the host↔storage-server boundary.
//!
//! The cross-host split serializes the daemon's request/response surface
//! ([`crate::rpc::Request`] / [`crate::rpc::RespOk`]) into explicit
//! length-prefixed frames — no serde, no derive magic, every byte written
//! and checked by hand like the repo's shims. What travels is the
//! *storage* half of each request: a metadata operation goes as the hub
//! carries it (a [`MetaOp`] out, a [`MetaOk`] back, one frame kind per op
//! and per answer shape), page reads carry `(offset, len)` descriptors
//! (the GPU frame addresses stay host-side, DMA is the proxy's job), and
//! page writes carry the gathered dirty-extent bytes.
//!
//! ## Frame layout (version 2)
//!
//! ```text
//! +------+---------+------+-------+-------------+-----------+---------...
//! | GFSW | version | kind | flags | payload len | trace ctx | payload
//! | 4 B  | u16 LE  | u8   | u8    | u32 LE      | 0 or 16 B |
//! +------+---------+------+-------+-------------+-----------+---------...
//! ```
//!
//! The flags byte's only defined bit, [`FLAG_TRACE_CTX`], declares a
//! 16-byte trace context (trace id + parent span id, both u64 LE) between
//! the header and the payload, so a storage server can parent its spans
//! under the host-side RPC that shipped the frame. A frame without it
//! carries [`obs::TraceCtx::NONE`].
//!
//! Decoding *rejects* — it never panics: truncated buffers, bad magic,
//! unknown versions or kinds, non-UTF-8 paths, undeclared trailing bytes
//! and out-of-spec flag bits all come back as a [`ProtoError`]. A server
//! fed garbage answers with an error, it does not fall over.

use hostfs::{FsError, HostFd};
use obs::TraceCtx;

use crate::rpc::{MetaOk, MetaOp};

/// Frame magic: the first four bytes of every well-formed frame.
pub const MAGIC: [u8; 4] = *b"GFSW";

/// Wire-format version this build speaks. Decoders reject every other
/// version (`ProtoError::BadVersion`) instead of guessing.
pub const VERSION: u16 = 2;

/// Fixed frame header size: magic + version + kind + flags + payload
/// length. The optional trace context rides *after* this header.
pub const HEADER_LEN: usize = 4 + 2 + 1 + 1 + 4;

/// Frame flag: a 16-byte trace context (trace id + span id, u64 LE
/// each) sits between the header and the payload.
pub const FLAG_TRACE_CTX: u8 = 1;

/// Bytes of the optional trace context.
const CTX_LEN: usize = 8 + 8;

/// Why a frame failed to decode. Every variant is a *rejection* — the
/// decoders return these, they never panic on hostile input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// Buffer ends before the declared structure does.
    Truncated,
    /// The first four bytes are not [`MAGIC`].
    BadMagic,
    /// Frame speaks a version this build does not (the version found).
    BadVersion(u16),
    /// Structurally invalid payload (unknown kind, bad UTF-8, stray
    /// flag bits, trailing bytes, ...).
    Corrupt(&'static str),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "frame truncated"),
            ProtoError::BadMagic => write!(f, "bad frame magic"),
            ProtoError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            ProtoError::Corrupt(what) => write!(f, "corrupt frame: {what}"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// A storage request on the wire — the server-relevant half of
/// [`crate::rpc::Request`], with GPU-memory addresses stripped (reads)
/// or already resolved to bytes by the proxy's D2H gather (writes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireRequest {
    /// A metadata operation, as the hub carries it.
    Meta(MetaOp),
    /// Read a batch of page extents: `(file offset, length)` pairs in
    /// ascending file order. One frame per pipeline chunk, so the
    /// server's file I/O of chunk *k+1* overlaps the proxy-side DMA of
    /// chunk *k* exactly as the local engine overlaps pread with DMA.
    ReadPages {
        /// Server-side descriptor.
        fd: HostFd,
        /// Pages to read, as `(offset, len)`.
        pages: Vec<(u64, u32)>,
    },
    /// Write gathered dirty-extent bytes: `(file offset, bytes)` pairs.
    /// An empty batch is legal and asks only for the file's current
    /// consistency generation (the local engine's no-dirty-bytes path).
    WritePages {
        /// Server-side descriptor.
        fd: HostFd,
        /// Extents to write, as `(offset, bytes)`.
        extents: Vec<(u64, Vec<u8>)>,
    },
}

/// A storage response on the wire — [`crate::rpc::RespOk`] with read
/// payloads carried as bytes, plus the server-side error channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireResponse {
    /// The answer to a [`WireRequest::Meta`].
    Meta(MetaOk),
    /// Bytes read per requested page, in request order (short at EOF,
    /// empty past it).
    Read {
        /// One byte vector per requested `(offset, len)` pair.
        pages: Vec<Vec<u8>>,
    },
    /// Bytes written plus the generation after the writes.
    Wrote {
        /// Bytes written.
        n: u64,
        /// Consistency generation after the writes.
        generation: u64,
    },
    /// The server's file system rejected the request.
    Err(FsError),
}

// ---------------------------------------------------------------------
// Primitive writers/readers. The reader half threads a cursor and
// returns `Truncated` the moment the buffer runs short.
// ---------------------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        let end = self.pos.checked_add(n).ok_or(ProtoError::Truncated)?;
        if end > self.buf.len() {
            return Err(ProtoError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn bytes(&mut self) -> Result<Vec<u8>, ProtoError> {
        let n = self.u32()? as usize;
        Ok(self.take(n)?.to_vec())
    }

    fn string(&mut self) -> Result<String, ProtoError> {
        String::from_utf8(self.bytes()?).map_err(|_| ProtoError::Corrupt("non-UTF-8 string"))
    }

    /// Every payload must be consumed exactly: trailing bytes mean the
    /// sender and receiver disagree about the layout.
    fn finish(self) -> Result<(), ProtoError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ProtoError::Corrupt("trailing bytes"))
        }
    }
}

/// Wrap `kind` + `payload` in the versioned frame header, carrying
/// `ctx` in the optional trace-context field when it is not
/// [`TraceCtx::NONE`].
fn frame(kind: u8, ctx: TraceCtx, payload: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + CTX_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    put_u16(&mut out, VERSION);
    out.push(kind);
    out.push(if ctx.is_none() { 0 } else { FLAG_TRACE_CTX });
    put_u32(&mut out, payload.len() as u32);
    if !ctx.is_none() {
        put_u64(&mut out, ctx.trace);
        put_u64(&mut out, ctx.span);
    }
    out.extend_from_slice(&payload);
    out
}

/// The frame's length as charged to the link cost model. The optional
/// trace context is observability metadata and rides outside the model:
/// excluding it keeps virtual times and wire-byte counters bit-identical
/// with tracing on or off — the `trace_equiv` guarantee.
#[must_use]
pub fn charged_len(frame: &[u8]) -> usize {
    let traced = frame.len() >= HEADER_LEN
        && u16::from_le_bytes([frame[4], frame[5]]) == VERSION
        && frame[7] & FLAG_TRACE_CTX != 0;
    frame.len() - if traced { CTX_LEN } else { 0 }
}

/// Validate the header and return `(kind, ctx, payload)`.
fn open_frame(buf: &[u8]) -> Result<(u8, TraceCtx, &[u8]), ProtoError> {
    // Magic + version first: a frame of another version may be laid out
    // differently from here on.
    if buf.len() < 6 {
        return Err(ProtoError::Truncated);
    }
    if buf[..4] != MAGIC {
        return Err(ProtoError::BadMagic);
    }
    match u16::from_le_bytes([buf[4], buf[5]]) {
        VERSION => {}
        v => return Err(ProtoError::BadVersion(v)),
    }
    if buf.len() < HEADER_LEN {
        return Err(ProtoError::Truncated);
    }
    let flags = buf[7];
    if flags & !FLAG_TRACE_CTX != 0 {
        return Err(ProtoError::Corrupt("unknown frame flag bits"));
    }
    let len = u32::from_le_bytes([buf[8], buf[9], buf[10], buf[11]]) as usize;
    let mut body = &buf[HEADER_LEN..];
    let ctx = if flags & FLAG_TRACE_CTX != 0 {
        if body.len() < CTX_LEN {
            return Err(ProtoError::Truncated);
        }
        let mut a = [0u8; 8];
        a.copy_from_slice(&body[..8]);
        let trace = u64::from_le_bytes(a);
        a.copy_from_slice(&body[8..CTX_LEN]);
        let span = u64::from_le_bytes(a);
        body = &body[CTX_LEN..];
        TraceCtx { trace, span }
    } else {
        TraceCtx::NONE
    };
    let kind = buf[6];
    if body.len() < len {
        return Err(ProtoError::Truncated);
    }
    if body.len() > len {
        return Err(ProtoError::Corrupt("frame longer than declared"));
    }
    Ok((kind, ctx, body))
}

// Request kinds.
const REQ_OPEN: u8 = 0;
const REQ_CLOSE: u8 = 1;
const REQ_READ: u8 = 2;
const REQ_WRITE: u8 = 3;
const REQ_FSYNC: u8 = 4;
const REQ_UNLINK: u8 = 5;
const REQ_TRUNCATE: u8 = 6;
const REQ_STAT: u8 = 7;

// Response kinds.
const RESP_OPENED: u8 = 0;
const RESP_READ: u8 = 1;
const RESP_WROTE: u8 = 2;
const RESP_STAT: u8 = 3;
const RESP_DONE: u8 = 4;
const RESP_ERR: u8 = 5;

// Error tags inside a RESP_ERR payload.
const ERR_NOT_FOUND: u8 = 0;
const ERR_ALREADY_EXISTS: u8 = 1;
const ERR_IS_A_DIRECTORY: u8 = 2;
const ERR_NOT_A_DIRECTORY: u8 = 3;
const ERR_DIRECTORY_NOT_EMPTY: u8 = 4;
const ERR_PERMISSION_DENIED: u8 = 5;
const ERR_BAD_DESCRIPTOR: u8 = 6;
const ERR_INVALID_PATH: u8 = 7;
const ERR_IMMUTABLE_FILE: u8 = 8;
const ERR_PROTOCOL: u8 = 9;

const FLAG_WRITE: u8 = 1;
const FLAG_CREATE: u8 = 1 << 1;
const FLAG_TRUNCATE: u8 = 1 << 2;

/// Serialize one request into a framed byte vector with no trace
/// context — shorthand for [`encode_request_ctx`] with
/// [`TraceCtx::NONE`].
#[must_use]
pub fn encode_request(req: &WireRequest) -> Vec<u8> {
    encode_request_ctx(req, TraceCtx::NONE)
}

/// Serialize one request into a framed byte vector, carrying `ctx` in
/// the optional trace-context field when it is not [`TraceCtx::NONE`].
#[must_use]
pub fn encode_request_ctx(req: &WireRequest, ctx: TraceCtx) -> Vec<u8> {
    let mut p = Vec::new();
    let kind = match req {
        WireRequest::Meta(MetaOp::Open {
            path,
            write,
            create,
            truncate,
        }) => {
            put_str(&mut p, path);
            let mut flags = 0u8;
            if *write {
                flags |= FLAG_WRITE;
            }
            if *create {
                flags |= FLAG_CREATE;
            }
            if *truncate {
                flags |= FLAG_TRUNCATE;
            }
            p.push(flags);
            REQ_OPEN
        }
        WireRequest::Meta(MetaOp::Close { fd }) => {
            put_u64(&mut p, *fd);
            REQ_CLOSE
        }
        WireRequest::ReadPages { fd, pages } => {
            put_u64(&mut p, *fd);
            put_u32(&mut p, pages.len() as u32);
            for &(off, len) in pages {
                put_u64(&mut p, off);
                put_u32(&mut p, len);
            }
            REQ_READ
        }
        WireRequest::WritePages { fd, extents } => {
            put_u64(&mut p, *fd);
            put_u32(&mut p, extents.len() as u32);
            for (off, data) in extents {
                put_u64(&mut p, *off);
                put_bytes(&mut p, data);
            }
            REQ_WRITE
        }
        WireRequest::Meta(MetaOp::Fsync { fd }) => {
            put_u64(&mut p, *fd);
            REQ_FSYNC
        }
        WireRequest::Meta(MetaOp::Unlink { path }) => {
            put_str(&mut p, path);
            REQ_UNLINK
        }
        WireRequest::Meta(MetaOp::Truncate { fd, size }) => {
            put_u64(&mut p, *fd);
            put_u64(&mut p, *size);
            REQ_TRUNCATE
        }
        WireRequest::Meta(MetaOp::Stat { path }) => {
            put_str(&mut p, path);
            REQ_STAT
        }
    };
    frame(kind, ctx, p)
}

/// Decode one framed request, discarding any trace context — shorthand
/// for [`decode_request_ctx`].
///
/// # Errors
///
/// Rejects (never panics on) truncated buffers, wrong magic, version
/// mismatches, unknown kinds, and structurally corrupt payloads.
pub fn decode_request(buf: &[u8]) -> Result<WireRequest, ProtoError> {
    decode_request_ctx(buf).map(|(req, _)| req)
}

/// Decode one framed request along with its trace context
/// ([`TraceCtx::NONE`] for version-1 frames and untraced senders).
///
/// # Errors
///
/// Rejects (never panics on) the same malformations as
/// [`decode_request`].
pub fn decode_request_ctx(buf: &[u8]) -> Result<(WireRequest, TraceCtx), ProtoError> {
    let (kind, ctx, payload) = open_frame(buf)?;
    let mut r = Reader::new(payload);
    let req = match kind {
        REQ_OPEN => {
            let path = r.string()?;
            let flags = r.u8()?;
            if flags & !(FLAG_WRITE | FLAG_CREATE | FLAG_TRUNCATE) != 0 {
                return Err(ProtoError::Corrupt("unknown open flag bits"));
            }
            WireRequest::Meta(MetaOp::Open {
                path,
                write: flags & FLAG_WRITE != 0,
                create: flags & FLAG_CREATE != 0,
                truncate: flags & FLAG_TRUNCATE != 0,
            })
        }
        REQ_CLOSE => WireRequest::Meta(MetaOp::Close { fd: r.u64()? }),
        REQ_READ => {
            let fd = r.u64()?;
            let n = r.u32()? as usize;
            let mut pages = Vec::new();
            for _ in 0..n {
                let off = r.u64()?;
                let len = r.u32()?;
                pages.push((off, len));
            }
            WireRequest::ReadPages { fd, pages }
        }
        REQ_WRITE => {
            let fd = r.u64()?;
            let n = r.u32()? as usize;
            let mut extents = Vec::new();
            for _ in 0..n {
                let off = r.u64()?;
                let data = r.bytes()?;
                extents.push((off, data));
            }
            WireRequest::WritePages { fd, extents }
        }
        REQ_FSYNC => WireRequest::Meta(MetaOp::Fsync { fd: r.u64()? }),
        REQ_UNLINK => WireRequest::Meta(MetaOp::Unlink { path: r.string()? }),
        REQ_TRUNCATE => WireRequest::Meta(MetaOp::Truncate {
            fd: r.u64()?,
            size: r.u64()?,
        }),
        REQ_STAT => WireRequest::Meta(MetaOp::Stat { path: r.string()? }),
        _ => return Err(ProtoError::Corrupt("unknown request kind")),
    };
    r.finish()?;
    Ok((req, ctx))
}

/// Serialize one response into a framed byte vector.
#[must_use]
pub fn encode_response(resp: &WireResponse) -> Vec<u8> {
    let mut p = Vec::new();
    let kind = match resp {
        WireResponse::Meta(MetaOk::Opened {
            fd,
            ino,
            size,
            generation,
        }) => {
            put_u64(&mut p, *fd);
            put_u64(&mut p, *ino);
            put_u64(&mut p, *size);
            put_u64(&mut p, *generation);
            RESP_OPENED
        }
        WireResponse::Read { pages } => {
            put_u32(&mut p, pages.len() as u32);
            for data in pages {
                put_bytes(&mut p, data);
            }
            RESP_READ
        }
        WireResponse::Wrote { n, generation } => {
            put_u64(&mut p, *n);
            put_u64(&mut p, *generation);
            RESP_WROTE
        }
        WireResponse::Meta(MetaOk::Stat {
            ino,
            size,
            writable,
            generation,
        }) => {
            put_u64(&mut p, *ino);
            put_u64(&mut p, *size);
            p.push(u8::from(*writable));
            put_u64(&mut p, *generation);
            RESP_STAT
        }
        WireResponse::Meta(MetaOk::Done) => RESP_DONE,
        WireResponse::Err(e) => {
            encode_fs_error(&mut p, e);
            RESP_ERR
        }
    };
    // Responses never carry a context: the caller that decodes them is
    // already inside the span that shipped the request.
    frame(kind, TraceCtx::NONE, p)
}

/// Decode one framed response.
///
/// # Errors
///
/// Rejects (never panics on) the same malformations as
/// [`decode_request`].
pub fn decode_response(buf: &[u8]) -> Result<WireResponse, ProtoError> {
    let (kind, _ctx, payload) = open_frame(buf)?;
    let mut r = Reader::new(payload);
    let resp = match kind {
        RESP_OPENED => WireResponse::Meta(MetaOk::Opened {
            fd: r.u64()?,
            ino: r.u64()?,
            size: r.u64()?,
            generation: r.u64()?,
        }),
        RESP_READ => {
            let n = r.u32()? as usize;
            let mut pages = Vec::new();
            for _ in 0..n {
                pages.push(r.bytes()?);
            }
            WireResponse::Read { pages }
        }
        RESP_WROTE => WireResponse::Wrote {
            n: r.u64()?,
            generation: r.u64()?,
        },
        RESP_STAT => {
            let ino = r.u64()?;
            let size = r.u64()?;
            let writable = match r.u8()? {
                0 => false,
                1 => true,
                _ => return Err(ProtoError::Corrupt("writable is not a bool")),
            };
            WireResponse::Meta(MetaOk::Stat {
                ino,
                size,
                writable,
                generation: r.u64()?,
            })
        }
        RESP_DONE => WireResponse::Meta(MetaOk::Done),
        RESP_ERR => WireResponse::Err(decode_fs_error(&mut r)?),
        _ => return Err(ProtoError::Corrupt("unknown response kind")),
    };
    r.finish()?;
    Ok(resp)
}

fn encode_fs_error(p: &mut Vec<u8>, e: &FsError) {
    match e {
        FsError::NotFound(s) => {
            p.push(ERR_NOT_FOUND);
            put_str(p, s);
        }
        FsError::AlreadyExists(s) => {
            p.push(ERR_ALREADY_EXISTS);
            put_str(p, s);
        }
        FsError::IsADirectory(s) => {
            p.push(ERR_IS_A_DIRECTORY);
            put_str(p, s);
        }
        FsError::NotADirectory(s) => {
            p.push(ERR_NOT_A_DIRECTORY);
            put_str(p, s);
        }
        FsError::DirectoryNotEmpty(s) => {
            p.push(ERR_DIRECTORY_NOT_EMPTY);
            put_str(p, s);
        }
        FsError::PermissionDenied(s) => {
            p.push(ERR_PERMISSION_DENIED);
            put_str(p, s);
        }
        FsError::BadDescriptor(fd) => {
            p.push(ERR_BAD_DESCRIPTOR);
            put_u64(p, *fd);
        }
        FsError::InvalidPath(s) => {
            p.push(ERR_INVALID_PATH);
            put_str(p, s);
        }
        FsError::ImmutableFile(s) => {
            p.push(ERR_IMMUTABLE_FILE);
            put_str(p, s);
        }
        FsError::Protocol(s) => {
            p.push(ERR_PROTOCOL);
            put_str(p, s);
        }
    }
}

fn decode_fs_error(r: &mut Reader<'_>) -> Result<FsError, ProtoError> {
    Ok(match r.u8()? {
        ERR_NOT_FOUND => FsError::NotFound(r.string()?),
        ERR_ALREADY_EXISTS => FsError::AlreadyExists(r.string()?),
        ERR_IS_A_DIRECTORY => FsError::IsADirectory(r.string()?),
        ERR_NOT_A_DIRECTORY => FsError::NotADirectory(r.string()?),
        ERR_DIRECTORY_NOT_EMPTY => FsError::DirectoryNotEmpty(r.string()?),
        ERR_PERMISSION_DENIED => FsError::PermissionDenied(r.string()?),
        ERR_BAD_DESCRIPTOR => FsError::BadDescriptor(r.u64()?),
        ERR_INVALID_PATH => FsError::InvalidPath(r.string()?),
        ERR_IMMUTABLE_FILE => FsError::ImmutableFile(r.string()?),
        ERR_PROTOCOL => FsError::Protocol(r.string()?),
        _ => return Err(ProtoError::Corrupt("unknown error tag")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_requests() -> Vec<WireRequest> {
        vec![
            WireRequest::Meta(MetaOp::Open {
                path: "/data/file.bin".into(),
                write: true,
                create: false,
                truncate: true,
            }),
            WireRequest::Meta(MetaOp::Open {
                path: String::new(),
                write: false,
                create: true,
                truncate: false,
            }),
            WireRequest::Meta(MetaOp::Close { fd: u64::MAX }),
            WireRequest::ReadPages {
                fd: 3,
                pages: vec![(0, 65536), (65536, 65536), (1 << 40, 7)],
            },
            WireRequest::ReadPages {
                fd: 0,
                pages: vec![],
            },
            WireRequest::WritePages {
                fd: 9,
                extents: vec![(12, vec![1, 2, 3]), (1 << 33, vec![0u8; 64 << 10])],
            },
            WireRequest::WritePages {
                fd: 9,
                extents: vec![],
            },
            WireRequest::Meta(MetaOp::Fsync { fd: 1 }),
            WireRequest::Meta(MetaOp::Unlink {
                path: "/gone".into(),
            }),
            WireRequest::Meta(MetaOp::Truncate { fd: 4, size: 1234 }),
            WireRequest::Meta(MetaOp::Stat {
                path: "/π/utf8 ✓".into(),
            }),
        ]
    }

    fn all_responses() -> Vec<WireResponse> {
        vec![
            WireResponse::Meta(MetaOk::Opened {
                fd: 7,
                ino: 42,
                size: u64::MAX,
                generation: 3,
            }),
            WireResponse::Read {
                pages: vec![vec![0u8; 64 << 10], vec![], vec![9, 9]],
            },
            WireResponse::Read { pages: vec![] },
            WireResponse::Wrote {
                n: 100,
                generation: 8,
            },
            WireResponse::Meta(MetaOk::Stat {
                ino: 1,
                size: 2,
                writable: true,
                generation: 0,
            }),
            WireResponse::Meta(MetaOk::Done),
            WireResponse::Err(FsError::NotFound("/missing".into())),
            WireResponse::Err(FsError::AlreadyExists("/dup".into())),
            WireResponse::Err(FsError::IsADirectory("/d".into())),
            WireResponse::Err(FsError::NotADirectory("/f".into())),
            WireResponse::Err(FsError::DirectoryNotEmpty("/d".into())),
            WireResponse::Err(FsError::PermissionDenied("/ro".into())),
            WireResponse::Err(FsError::BadDescriptor(77)),
            WireResponse::Err(FsError::InvalidPath("rel".into())),
            WireResponse::Err(FsError::ImmutableFile("/syn".into())),
        ]
    }

    #[test]
    fn every_request_round_trips() {
        for req in all_requests() {
            let frame = encode_request(&req);
            assert_eq!(decode_request(&frame), Ok(req.clone()), "req {req:?}");
        }
    }

    #[test]
    fn every_response_round_trips() {
        for resp in all_responses() {
            let frame = encode_response(&resp);
            assert_eq!(decode_response(&frame), Ok(resp.clone()), "resp {resp:?}");
        }
    }

    #[test]
    fn truncation_at_every_length_rejects_not_panics() {
        let frame = encode_request(&WireRequest::ReadPages {
            fd: 3,
            pages: vec![(0, 4096), (4096, 4096)],
        });
        for cut in 0..frame.len() {
            assert!(
                decode_request(&frame[..cut]).is_err(),
                "prefix of {cut} bytes must be rejected"
            );
        }
        let frame = encode_response(&WireResponse::Read {
            pages: vec![vec![1, 2, 3]],
        });
        for cut in 0..frame.len() {
            assert!(decode_response(&frame[..cut]).is_err());
        }
    }

    #[test]
    fn bad_magic_and_version_are_distinguished() {
        let mut frame = encode_request(&WireRequest::Meta(MetaOp::Fsync { fd: 1 }));
        frame[0] = b'X';
        assert_eq!(decode_request(&frame), Err(ProtoError::BadMagic));
        let mut frame = encode_request(&WireRequest::Meta(MetaOp::Fsync { fd: 1 }));
        frame[4] = 0xff;
        frame[5] = 0xff;
        assert_eq!(decode_request(&frame), Err(ProtoError::BadVersion(0xffff)));
        // Version 1 (an 11-byte header without the flags byte) is no
        // longer spoken either.
        let mut frame = encode_request(&WireRequest::Meta(MetaOp::Fsync { fd: 1 }));
        frame[4] = 1;
        frame[5] = 0;
        assert_eq!(decode_request(&frame), Err(ProtoError::BadVersion(1)));
    }

    #[test]
    fn unknown_kinds_flags_and_tags_reject() {
        let mut frame = encode_request(&WireRequest::Meta(MetaOp::Fsync { fd: 1 }));
        frame[6] = 200;
        assert!(matches!(
            decode_request(&frame),
            Err(ProtoError::Corrupt(_))
        ));
        let mut frame = encode_response(&WireResponse::Meta(MetaOk::Done));
        frame[6] = 200;
        assert!(matches!(
            decode_response(&frame),
            Err(ProtoError::Corrupt(_))
        ));
        // Out-of-spec open flag bits (last payload byte).
        let mut frame = encode_request(&WireRequest::Meta(MetaOp::Open {
            path: "/f".into(),
            write: false,
            create: false,
            truncate: false,
        }));
        let last = frame.len() - 1;
        frame[last] = 0x80;
        assert!(matches!(
            decode_request(&frame),
            Err(ProtoError::Corrupt(_))
        ));
        // Unknown error tag.
        let mut frame = encode_response(&WireResponse::Err(FsError::BadDescriptor(1)));
        frame[HEADER_LEN] = 99;
        assert!(matches!(
            decode_response(&frame),
            Err(ProtoError::Corrupt(_))
        ));
    }

    #[test]
    fn trailing_and_oversized_frames_reject() {
        let mut frame = encode_request(&WireRequest::Meta(MetaOp::Close { fd: 1 }));
        frame.push(0);
        assert!(matches!(
            decode_request(&frame),
            Err(ProtoError::Corrupt(_))
        ));
        // Declared payload length longer than the buffer (offset 8 is
        // the low byte of the v2 length field).
        let mut frame = encode_request(&WireRequest::Meta(MetaOp::Close { fd: 1 }));
        frame[8] = 0xff;
        assert_eq!(decode_request(&frame), Err(ProtoError::Truncated));
        // Out-of-spec frame flag bits reject.
        let mut frame = encode_request(&WireRequest::Meta(MetaOp::Close { fd: 1 }));
        frame[7] = 0x80;
        assert_eq!(
            decode_request(&frame),
            Err(ProtoError::Corrupt("unknown frame flag bits"))
        );
    }

    #[test]
    fn non_utf8_paths_reject() {
        let mut frame = encode_request(&WireRequest::Meta(MetaOp::Unlink { path: "/ab".into() }));
        // Payload: u32 len 3, then "/ab" — stomp a continuation byte.
        frame[HEADER_LEN + 4 + 1] = 0xff;
        assert_eq!(
            decode_request(&frame),
            Err(ProtoError::Corrupt("non-UTF-8 string"))
        );
    }

    #[test]
    fn empty_and_garbage_buffers_reject() {
        assert_eq!(decode_request(&[]), Err(ProtoError::Truncated));
        assert_eq!(decode_response(&[0u8; 5]), Err(ProtoError::Truncated));
        assert_eq!(
            decode_request(&[0xaa; 64]),
            Err(ProtoError::BadMagic),
            "garbage never panics"
        );
    }

    #[test]
    fn trace_ctx_rides_the_frame_and_round_trips() {
        let req = WireRequest::ReadPages {
            fd: 3,
            pages: vec![(0, 4096)],
        };
        let ctx = TraceCtx { trace: 7, span: 9 };
        let frame = encode_request_ctx(&req, ctx);
        assert_eq!(frame[7], FLAG_TRACE_CTX);
        assert_eq!(decode_request_ctx(&frame), Ok((req.clone(), ctx)));
        // The ctx-blind decoder still reads the same request.
        assert_eq!(decode_request(&frame), Ok(req.clone()));
        // An untraced sender emits no ctx field at all.
        let bare = encode_request(&req);
        assert_eq!(bare.len() + CTX_LEN, frame.len());
        assert_eq!(decode_request_ctx(&bare), Ok((req, TraceCtx::NONE)));
    }

    /// Lower-case hex of `bytes`, for comparing frames to the golden
    /// strings below (whose spaces only separate fields).
    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The exact version-2 frame of every request and response kind:
    /// header (magic, version, kind, flags, payload length), then the
    /// payload. The link model charges these lengths, so a change here
    /// moves every remote virtual time.
    #[test]
    fn golden_v2_frames_are_pinned_byte_for_byte() {
        let requests = [
            (
                WireRequest::Meta(MetaOp::Open {
                    path: "/a".into(),
                    write: true,
                    create: true,
                    truncate: false,
                }),
                "47465357 0200 00 00 07000000 02000000 2f61 03",
            ),
            (
                WireRequest::Meta(MetaOp::Close { fd: 3 }),
                "47465357 0200 01 00 08000000 0300000000000000",
            ),
            (
                WireRequest::ReadPages {
                    fd: 3,
                    pages: vec![(4096, 4096)],
                },
                "47465357 0200 02 00 18000000 0300000000000000 01000000 0010000000000000 00100000",
            ),
            (
                WireRequest::WritePages {
                    fd: 3,
                    extents: vec![(8, vec![1, 2])],
                },
                "47465357 0200 03 00 1a000000 0300000000000000 01000000 0800000000000000 02000000 0102",
            ),
            (
                WireRequest::Meta(MetaOp::Fsync { fd: 3 }),
                "47465357 0200 04 00 08000000 0300000000000000",
            ),
            (
                WireRequest::Meta(MetaOp::Unlink { path: "/a".into() }),
                "47465357 0200 05 00 06000000 02000000 2f61",
            ),
            (
                WireRequest::Meta(MetaOp::Truncate { fd: 3, size: 10 }),
                "47465357 0200 06 00 10000000 0300000000000000 0a00000000000000",
            ),
            (
                WireRequest::Meta(MetaOp::Stat { path: "/a".into() }),
                "47465357 0200 07 00 06000000 02000000 2f61",
            ),
        ];
        let responses = [
            (
                WireResponse::Meta(MetaOk::Opened {
                    fd: 3,
                    ino: 7,
                    size: 10,
                    generation: 2,
                }),
                "47465357 0200 00 00 20000000 0300000000000000 0700000000000000 0a00000000000000 0200000000000000",
            ),
            (
                WireResponse::Read {
                    pages: vec![vec![5, 6]],
                },
                "47465357 0200 01 00 0a000000 01000000 02000000 0506",
            ),
            (
                WireResponse::Wrote {
                    n: 2,
                    generation: 3,
                },
                "47465357 0200 02 00 10000000 0200000000000000 0300000000000000",
            ),
            (
                WireResponse::Meta(MetaOk::Stat {
                    ino: 7,
                    size: 10,
                    writable: true,
                    generation: 2,
                }),
                "47465357 0200 03 00 19000000 0700000000000000 0a00000000000000 01 0200000000000000",
            ),
            (WireResponse::Meta(MetaOk::Done), "47465357 0200 04 00 00000000"),
            (
                WireResponse::Err(FsError::NotFound("/a".into())),
                "47465357 0200 05 00 07000000 00 02000000 2f61",
            ),
        ];
        for (req, golden) in requests {
            let frame = encode_request(&req);
            assert_eq!(hex(&frame), golden.replace(' ', ""), "{req:?}");
            assert_eq!(decode_request(&frame), Ok(req));
        }
        for (resp, golden) in responses {
            let frame = encode_response(&resp);
            assert_eq!(hex(&frame), golden.replace(' ', ""), "{resp:?}");
            assert_eq!(decode_response(&frame), Ok(resp));
        }
    }

    // Property coverage of the trace-ctx frame field: arbitrary contexts
    // round-trip and every truncation rejects.
    use proptest::prelude::*;

    fn any_request() -> impl Strategy<Value = WireRequest> {
        prop_oneof![
            (0usize..12, any::<bool>(), any::<bool>(), any::<bool>()).prop_map(
                |(n, write, create, truncate)| WireRequest::Meta(MetaOp::Open {
                    path: format!("/{}", "a".repeat(n)),
                    write,
                    create,
                    truncate,
                })
            ),
            any::<u64>().prop_map(|fd| WireRequest::Meta(MetaOp::Close { fd })),
            (
                any::<u64>(),
                proptest::collection::vec((any::<u64>(), 0u32..1 << 20), 0..8)
            )
                .prop_map(|(fd, pages)| WireRequest::ReadPages { fd, pages }),
            (
                any::<u64>(),
                proptest::collection::vec(
                    (any::<u64>(), proptest::collection::vec(any::<u8>(), 0..64)),
                    0..4
                )
            )
                .prop_map(|(fd, extents)| WireRequest::WritePages { fd, extents }),
            any::<u64>().prop_map(|fd| WireRequest::Meta(MetaOp::Fsync { fd })),
            (any::<u64>(), any::<u64>())
                .prop_map(|(fd, size)| WireRequest::Meta(MetaOp::Truncate { fd, size })),
        ]
    }

    fn any_ctx() -> impl Strategy<Value = TraceCtx> {
        // `trace | 1` keeps the ctx live: a zero trace id means "no
        // context" and would legitimately encode to a flag-less frame.
        (any::<u64>(), any::<u64>()).prop_map(|(trace, span)| TraceCtx {
            trace: trace | 1,
            span,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_ctx_frames_round_trip(req in any_request(), ctx in any_ctx()) {
            let frame = encode_request_ctx(&req, ctx);
            prop_assert_eq!(decode_request_ctx(&frame), Ok((req, ctx)));
        }

        #[test]
        fn prop_every_truncation_rejects(req in any_request(), ctx in any_ctx()) {
            let frame = encode_request_ctx(&req, ctx);
            for cut in 0..frame.len() {
                prop_assert!(decode_request_ctx(&frame[..cut]).is_err());
            }
        }
    }
}

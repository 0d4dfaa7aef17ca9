//! Property-based tests (proptest) on the core data structures and
//! invariants: the radix tree against a model, the host file system
//! against a byte-vector model, diff-and-merge equivalence, and
//! virtual-time resource laws.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;

use gpufs::cache::{diff_extents, nonzero_extents, PageState, RadixTree};
use hostfs::{HostFs, HostFsConfig, OpenFlags, PageCache};
use simtime::ByteLedger;
use simtime::{BandwidthResource, Clock, Nanos};

/// Reference LRU used to model the page cache.
#[derive(Default)]
struct ModelLru {
    order: Vec<(u64, u64)>, // most-recent last
}

impl ModelLru {
    fn touch(&mut self, key: (u64, u64), cap: usize) -> bool {
        let hit = if let Some(pos) = self.order.iter().position(|&k| k == key) {
            self.order.remove(pos);
            true
        } else {
            false
        };
        self.order.push(key);
        while self.order.len() > cap {
            self.order.remove(0);
        }
        hit
    }
}

// ---------------------------------------------------------------------
// Radix tree vs. a HashMap model.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum TreeOp {
    Insert(u64),
    Lookup(u64),
    SetReady(u64, u32),
    Evict(u64),
}

fn tree_op() -> impl Strategy<Value = TreeOp> {
    // Cluster indices so leaves are shared and revisited.
    let idx = prop_oneof![0u64..64, 64u64..4096, (1u64 << 20)..(1u64 << 20) + 64];
    prop_oneof![
        idx.clone().prop_map(TreeOp::Insert),
        idx.clone().prop_map(TreeOp::Lookup),
        (idx.clone(), 0u32..1000).prop_map(|(i, f)| TreeOp::SetReady(i, f)),
        idx.prop_map(TreeOp::Evict),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn radix_tree_matches_model(ops in proptest::collection::vec(tree_op(), 1..200)) {
        let tree = RadixTree::new();
        // Model: page index -> Some(frame) if Ready, None if Empty slot.
        let mut model: HashMap<u64, Option<u32>> = HashMap::new();
        for op in ops {
            match op {
                TreeOp::Insert(i) => {
                    tree.get_or_insert(i);
                    model.entry(i).or_insert(None);
                }
                TreeOp::Lookup(i) => {
                    match tree.lookup(i) {
                        Some(fp) => {
                            // The whole leaf materializes at once, so a
                            // hit is allowed even if the model never
                            // touched this exact index; but a Ready state
                            // must match the model's frame.
                            if let Some(Some(frame)) = model.get(&i) {
                                prop_assert_eq!(fp.state(), PageState::Ready);
                                prop_assert_eq!(fp.frame(), Some(*frame));
                            }
                        }
                        None => {
                            prop_assert!(
                                !model.contains_key(&i),
                                "model has {} but tree lost it", i
                            );
                        }
                    }
                }
                TreeOp::SetReady(i, frame) => {
                    let fp = tree.get_or_insert(i);
                    fp.lock();
                    fp.begin_update();
                    fp.set_frame(Some(frame));
                    fp.set_state(PageState::Ready);
                    fp.end_update();
                    fp.unlock();
                    model.insert(i, Some(frame));
                }
                TreeOp::Evict(i) => {
                    if let Some(fp) = tree.lookup(i) {
                        if fp.state() == PageState::Ready && fp.refs() == 0 {
                            fp.lock();
                            fp.begin_update();
                            fp.set_frame(None);
                            fp.set_state(PageState::Empty);
                            fp.end_update();
                            fp.unlock();
                            model.insert(i, None);
                        }
                    }
                }
            }
        }
        // Final sweep: every Ready page in the model is found lock-free.
        for (&i, entry) in &model {
            if let Some(frame) = entry {
                let fp = tree.lookup(i).expect("model page present");
                prop_assert_eq!(fp.frame(), Some(*frame));
            }
        }
    }

    // -----------------------------------------------------------------
    // Host FS vs. a byte-vector model.
    // -----------------------------------------------------------------

    #[test]
    fn hostfs_read_your_writes(
        writes in proptest::collection::vec(
            (0u64..8192, proptest::collection::vec(any::<u8>(), 1..256)),
            1..24
        )
    ) {
        let fs = HostFs::new(HostFsConfig::default());
        fs.create("/f", b"").unwrap();
        let (fd, mut t) = fs.open("/f", OpenFlags::read_write(), 0).unwrap();
        let mut model: Vec<u8> = Vec::new();
        for (off, data) in writes {
            let (_, t2) = fs.pwrite(fd, off, &data, t).unwrap();
            t = t2;
            let end = off as usize + data.len();
            if model.len() < end {
                model.resize(end, 0);
            }
            model[off as usize..end].copy_from_slice(&data);
        }
        let mut buf = vec![0u8; model.len() + 10];
        let (n, _) = fs.pread(fd, 0, &mut buf, t).unwrap();
        prop_assert_eq!(n, model.len());
        prop_assert_eq!(&buf[..n], &model[..]);
        fs.close(fd).unwrap();
    }

    #[test]
    fn hostfs_crash_preserves_exactly_the_synced_state(
        pre in proptest::collection::vec(any::<u8>(), 0..512),
        post in proptest::collection::vec(any::<u8>(), 1..512)
    ) {
        let fs = HostFs::new(HostFsConfig::default());
        fs.create("/f", b"").unwrap();
        let (fd, t) = fs.open("/f", OpenFlags::read_write(), 0).unwrap();
        let (_, t) = fs.pwrite(fd, 0, &pre, t).unwrap();
        let t = fs.fsync(fd, t).unwrap();
        let (_, _t) = fs.pwrite(fd, pre.len() as u64, &post, t).unwrap();
        fs.crash();
        let (data, _) = fs.read_whole("/f", 0).unwrap();
        prop_assert_eq!(data, pre, "crash must roll back to the fsync point");
    }

    // -----------------------------------------------------------------
    // Diff-and-merge laws.
    // -----------------------------------------------------------------

    #[test]
    fn diff_extents_reconstruct_working_copy(
        pristine in proptest::collection::vec(any::<u8>(), 1..512),
        edits in proptest::collection::vec((any::<prop::sample::Index>(), any::<u8>()), 0..32),
        gap in 0usize..16
    ) {
        let mut working = pristine.clone();
        for (idx, byte) in edits {
            let i = idx.index(working.len());
            working[i] = byte;
        }
        let extents = diff_extents(&working, &pristine, gap);
        // Applying the extents to the pristine copy yields the working
        // copy: nothing modified is lost, nothing unmodified is claimed
        // that would change the merge result.
        let mut merged = pristine.clone();
        for (off, len) in &extents {
            let (off, len) = (*off as usize, *len as usize);
            merged[off..off + len].copy_from_slice(&working[off..off + len]);
        }
        prop_assert_eq!(&merged, &working);
        // Extents are sorted, non-overlapping, and separated by > gap.
        for pair in extents.windows(2) {
            let end = pair[0].0 as usize + pair[0].1 as usize;
            prop_assert!(end + gap < pair[1].0 as usize + 1,
                "extents {:?} not separated by more than {}", pair, gap);
        }
    }

    #[test]
    fn nonzero_extents_cover_every_nonzero_byte(
        page in proptest::collection::vec(any::<u8>(), 1..512),
        gap in 0usize..16
    ) {
        let extents = nonzero_extents(&page, gap);
        let mut covered = vec![false; page.len()];
        for (off, len) in &extents {
            for c in &mut covered[*off as usize..*off as usize + *len as usize] {
                *c = true;
            }
        }
        for (i, &b) in page.iter().enumerate() {
            if b != 0 {
                prop_assert!(covered[i], "nonzero byte {i} not covered");
            }
        }
        // Merging into an all-zero page reproduces exactly `page`.
        let mut merged = vec![0u8; page.len()];
        for (off, len) in &extents {
            let (off, len) = (*off as usize, *len as usize);
            merged[off..off + len].copy_from_slice(&page[off..off + len]);
        }
        prop_assert_eq!(&merged, &page);
    }

    // -----------------------------------------------------------------
    // Page cache vs. a reference LRU.
    // -----------------------------------------------------------------

    #[test]
    fn pagecache_tracks_reference_lru(
        touches in proptest::collection::vec((1u64..4, 0u64..32), 1..200),
        cap in 1usize..16
    ) {
        let ledger = Arc::new(ByteLedger::new(cap as u64 * 4096));
        let mut cache = PageCache::new(4096, ledger);
        let mut model = ModelLru::default();
        for (ino, page) in touches {
            let (hit, _) = cache.touch_read(ino, page);
            let model_hit = model.touch((ino, page), cap);
            prop_assert_eq!(hit, model_hit, "cache/model disagree on ({}, {})", ino, page);
        }
        // Residency agrees exactly at the end.
        for &(ino, page) in &model.order {
            prop_assert!(cache.is_resident(ino, page));
        }
        prop_assert_eq!(cache.resident_bytes(), model.order.len() as u64 * 4096);
    }

    // -----------------------------------------------------------------
    // Virtual-time laws.
    // -----------------------------------------------------------------

    #[test]
    fn bandwidth_resource_enforces_capacity(
        requests in proptest::collection::vec((0u64..1_000_000, 1u64..1_000_000), 1..50)
    ) {
        let bw = BandwidthResource::new(1000.0, 100);
        let mut total_service: Nanos = 0;
        let mut max_end: Nanos = 0;
        for (earliest, bytes) in &requests {
            let r = bw.transfer(*earliest, *bytes);
            prop_assert!(r.start >= *earliest, "transfer cannot start before issue");
            prop_assert_eq!(r.busy(), bw.service_time(*bytes));
            total_service += r.busy();
            max_end = max_end.max(r.end);
        }
        // Work conservation: everything finishes no later than the last
        // issue time plus the total service demand.
        let max_earliest = requests.iter().map(|&(e, _)| e).max().unwrap_or(0);
        prop_assert!(max_end <= max_earliest + total_service);
    }

    #[test]
    fn clock_is_monotone_under_any_op_sequence(
        ops in proptest::collection::vec((any::<bool>(), 0u64..1_000_000), 1..100)
    ) {
        let mut clock = Clock::new();
        let mut last = clock.now();
        for (advance, v) in ops {
            if advance {
                clock.advance(v);
            } else {
                clock.wait_until(v);
            }
            prop_assert!(clock.now() >= last);
            last = clock.now();
        }
    }
}

// ---------------------------------------------------------------------
// Wire protocol: randomized round-trips and hostile-input rejection.
// ---------------------------------------------------------------------

use gpufs::remote::proto::{
    decode_request, decode_response, encode_request, encode_response, ProtoError, VERSION,
};
use gpufs::remote::{WireRequest, WireResponse};
use gpufs::rpc::{MetaOk, MetaOp};
use hostfs::FsError;

/// The largest payload a single page can carry on the wire (one 64 KiB
/// buffer-cache page).
const MAX_WIRE_PAGE: usize = 64 << 10;

/// Paths as they appear on the wire: arbitrary bytes squeezed into UTF-8
/// (lossily), so decoded strings always round-trip byte-identically.
fn wire_path() -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<u8>(), 0..24)
        .prop_map(|b| format!("/{}", String::from_utf8_lossy(&b)))
}

/// Page payloads: mostly small random buffers, with a full max-size
/// (64 KiB) page on half the draws so every batch shape sees the
/// largest frames the cache ever ships.
fn wire_page_bytes() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..48),
        any::<u8>().prop_map(|b| vec![b; MAX_WIRE_PAGE]),
    ]
}

/// Every server-side error variant, with arbitrary diagnostic payloads.
fn wire_fs_error() -> impl Strategy<Value = FsError> {
    prop_oneof![
        wire_path().prop_map(FsError::NotFound),
        wire_path().prop_map(FsError::AlreadyExists),
        wire_path().prop_map(FsError::IsADirectory),
        wire_path().prop_map(FsError::NotADirectory),
        wire_path().prop_map(FsError::DirectoryNotEmpty),
        wire_path().prop_map(FsError::PermissionDenied),
        any::<u64>().prop_map(FsError::BadDescriptor),
        wire_path().prop_map(FsError::InvalidPath),
        wire_path().prop_map(FsError::ImmutableFile),
        wire_path().prop_map(FsError::Protocol),
    ]
}

/// All eight request variants with randomized fields, including
/// max-size page batches.
fn wire_request() -> impl Strategy<Value = WireRequest> {
    prop_oneof![
        (wire_path(), any::<bool>(), any::<bool>(), any::<bool>()).prop_map(
            |(path, write, create, truncate)| WireRequest::Meta(MetaOp::Open {
                path,
                write,
                create,
                truncate,
            })
        ),
        any::<u64>().prop_map(|fd| WireRequest::Meta(MetaOp::Close { fd })),
        (
            any::<u64>(),
            proptest::collection::vec((any::<u64>(), 0u32..(MAX_WIRE_PAGE as u32 + 1)), 0..9),
        )
            .prop_map(|(fd, pages)| WireRequest::ReadPages { fd, pages }),
        (
            any::<u64>(),
            proptest::collection::vec((any::<u64>(), wire_page_bytes()), 0..5),
        )
            .prop_map(|(fd, extents)| WireRequest::WritePages { fd, extents }),
        any::<u64>().prop_map(|fd| WireRequest::Meta(MetaOp::Fsync { fd })),
        wire_path().prop_map(|path| WireRequest::Meta(MetaOp::Unlink { path })),
        (any::<u64>(), any::<u64>())
            .prop_map(|(fd, size)| WireRequest::Meta(MetaOp::Truncate { fd, size })),
        wire_path().prop_map(|path| WireRequest::Meta(MetaOp::Stat { path })),
    ]
}

/// All six response variants, including every [`FsError`] and max-size
/// read payloads.
fn wire_response() -> impl Strategy<Value = WireResponse> {
    prop_oneof![
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
            |(fd, ino, size, generation)| WireResponse::Meta(MetaOk::Opened {
                fd,
                ino,
                size,
                generation,
            })
        ),
        proptest::collection::vec(wire_page_bytes(), 0..5)
            .prop_map(|pages| WireResponse::Read { pages }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(n, generation)| WireResponse::Wrote { n, generation }),
        (any::<u64>(), any::<u64>(), any::<bool>(), any::<u64>()).prop_map(
            |(ino, size, writable, generation)| WireResponse::Meta(MetaOk::Stat {
                ino,
                size,
                writable,
                generation,
            })
        ),
        (0u32..1).prop_map(|_| WireResponse::Meta(MetaOk::Done)),
        wire_fs_error().prop_map(WireResponse::Err),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn wire_requests_round_trip(req in wire_request()) {
        let frame = encode_request(&req);
        prop_assert_eq!(decode_request(&frame), Ok(req));
    }

    #[test]
    fn wire_responses_round_trip(resp in wire_response()) {
        let frame = encode_response(&resp);
        prop_assert_eq!(decode_response(&frame), Ok(resp));
    }

    /// Any strict prefix of a well-formed frame is rejected — the decoder
    /// returns an error, it never panics or invents a value.
    #[test]
    fn truncated_wire_frames_reject(
        req in wire_request(),
        resp in wire_response(),
        cut in any::<prop::sample::Index>()
    ) {
        let frame = encode_request(&req);
        prop_assert!(decode_request(&frame[..cut.index(frame.len())]).is_err());
        let frame = encode_response(&resp);
        prop_assert!(decode_response(&frame[..cut.index(frame.len())]).is_err());
    }

    /// Flipping any single byte never panics the decoder: it either
    /// rejects the frame or yields a value that is itself well-formed
    /// (re-encodes to a decodable frame). Flips inside payload bytes may
    /// legitimately decode to a *different* value; flips that break the
    /// structure must come back as errors, not panics.
    #[test]
    fn corrupted_wire_frames_reject_or_stay_well_formed(
        req in wire_request(),
        resp in wire_response(),
        at in any::<prop::sample::Index>(),
        bit in 0u32..8
    ) {
        let mut frame = encode_request(&req);
        let i = at.index(frame.len());
        frame[i] ^= 1 << bit;
        if let Ok(decoded) = decode_request(&frame) {
            let regenerated = encode_request(&decoded);
            prop_assert_eq!(decode_request(&regenerated), Ok(decoded));
        }
        let mut frame = encode_response(&resp);
        let i = at.index(frame.len());
        frame[i] ^= 1 << bit;
        if let Ok(decoded) = decode_response(&frame) {
            let regenerated = encode_response(&decoded);
            prop_assert_eq!(decode_response(&regenerated), Ok(decoded));
        }
    }

    /// Every version other than the one this build speaks is rejected
    /// with `BadVersion` carrying the offending version.
    #[test]
    fn version_mismatched_wire_frames_reject(req in wire_request(), version in any::<u16>()) {
        let mut frame = encode_request(&req);
        frame[4..6].copy_from_slice(&version.to_le_bytes());
        if version == VERSION {
            prop_assert_eq!(decode_request(&frame), Ok(req));
        } else {
            prop_assert_eq!(decode_request(&frame), Err(ProtoError::BadVersion(version)));
        }
    }
}

// ---------------------------------------------------------------------
// Paging-layer invariants: the lock-free pin protocol against a model.
// ---------------------------------------------------------------------

/// The fpage lifecycle transitions the paging and reclaim layers perform,
/// plus the two pin protocols whose agreement the paper's lock-free
/// design depends on (§4.2).
#[derive(Debug, Clone, Copy)]
enum PageOp {
    /// `Empty -> Initializing`: a miss claims the slot.
    BeginInit,
    /// `Initializing -> Ready(frame)`: the fault publishes a frame.
    Publish(u32),
    /// `Initializing -> Empty`: a failed fault backs out.
    AbortInit,
    /// `Ready -> (detached) -> Empty`: eviction, with the write-back
    /// happening while the fpage is detached, exactly like
    /// `try_evict_page`.
    Evict,
    /// One lock-free pin attempt.
    PinLockfree,
    /// One pin through the fpage lock.
    PinLocked,
    /// Drop one pin.
    Unpin,
}

fn page_op() -> impl Strategy<Value = PageOp> {
    prop_oneof![
        (0u32..1).prop_map(|_| PageOp::BeginInit),
        (0u32..8).prop_map(PageOp::Publish),
        (0u32..1).prop_map(|_| PageOp::AbortInit),
        (0u32..1).prop_map(|_| PageOp::Evict),
        (0u32..1).prop_map(|_| PageOp::PinLockfree),
        (0u32..1).prop_map(|_| PageOp::PinLocked),
        (0u32..1).prop_map(|_| PageOp::Unpin),
    ]
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ModelPage {
    Empty,
    Init,
    Ready(u32),
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any interleaving of initialization, eviction (write-back), and
    /// pinning on one page keeps the two pin protocols in agreement:
    /// `try_pin_lockfree` and `pin_locked` observe the same snapshot, a
    /// pinned frame is always the one the model says is installed, and
    /// the pin count never drifts.
    #[test]
    fn fpage_lockfree_and_locked_pins_agree(
        ops in proptest::collection::vec(page_op(), 1..300)
    ) {
        use gpufs::cache::Snapshot;

        let tree = RadixTree::new();
        let fp = tree.get_or_insert(0);
        let mut model = ModelPage::Empty;
        let mut pins: u32 = 0;
        let lifecycle = |to_init: bool, frame: Option<u32>, to: PageState| {
            fp.lock();
            fp.begin_update();
            if to_init {
                fp.set_state(PageState::Initializing);
            }
            fp.set_frame(frame);
            fp.set_state(to);
            fp.end_update();
            fp.unlock();
        };
        for op in ops {
            match op {
                PageOp::BeginInit => {
                    if model == ModelPage::Empty {
                        lifecycle(true, None, PageState::Initializing);
                        model = ModelPage::Init;
                    }
                }
                PageOp::Publish(frame) => {
                    if model == ModelPage::Init {
                        lifecycle(false, Some(frame), PageState::Ready);
                        model = ModelPage::Ready(frame);
                    }
                }
                PageOp::AbortInit => {
                    if model == ModelPage::Init {
                        lifecycle(false, None, PageState::Empty);
                        model = ModelPage::Empty;
                    }
                }
                PageOp::Evict => {
                    if matches!(model, ModelPage::Ready(_)) && pins == 0 {
                        // Detach (blocks new pins), "write back", free.
                        lifecycle(true, None, PageState::Initializing);
                        lifecycle(false, None, PageState::Empty);
                        model = ModelPage::Empty;
                    }
                }
                PageOp::PinLockfree | PageOp::PinLocked => {
                    let snap = match op {
                        PageOp::PinLockfree => fp
                            .try_pin_lockfree()
                            .expect("sequential schedule has no in-flight update"),
                        _ => fp.pin_locked(),
                    };
                    match snap {
                        Snapshot::Pinned(f) => {
                            prop_assert_eq!(ModelPage::Ready(f), model, "pinned a stale frame");
                            pins += 1;
                        }
                        Snapshot::Empty => prop_assert_eq!(ModelPage::Empty, model),
                        Snapshot::Initializing => prop_assert_eq!(ModelPage::Init, model),
                    }
                }
                PageOp::Unpin => {
                    if pins > 0 {
                        fp.unpin();
                        pins -= 1;
                    }
                }
            }
            // Agreement after every step: both protocols see one truth.
            let lockfree = fp.try_pin_lockfree().expect("quiescent seqlock");
            let locked = fp.pin_locked();
            prop_assert_eq!(lockfree, locked, "protocols disagree");
            if matches!(lockfree, Snapshot::Pinned(_)) {
                fp.unpin();
                fp.unpin();
            }
            prop_assert_eq!(fp.refs(), pins, "pin count drifted");
        }
    }
}

// ---------------------------------------------------------------------
// Sharded frame arena: conservation under concurrent alloc/free/steal.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The sharded free list conserves frames under concurrent traffic:
    /// with `threads` workers hammering alloc/release from different home
    /// shards (so steals and migrations happen constantly), no frame is
    /// ever lost, duplicated, or handed to two owners at once, and after
    /// every worker returns what it took the arena is exactly full again
    /// — regardless of the shard count or the alloc/release schedule.
    #[test]
    fn sharded_frame_arena_conserves_frames(
        shards in 1usize..6,
        threads in 2usize..6,
        // Per-thread op tape: `true` = try to alloc, `false` = release
        // one held frame (if any).
        tapes in proptest::collection::vec(
            proptest::collection::vec(any::<bool>(), 20..120),
            6..7
        )
    ) {
        use std::sync::atomic::{AtomicBool, Ordering};

        use gpufs::cache::FrameArena;
        use gpusim::GlobalMem;

        const FRAMES: usize = 24;
        let mem = GlobalMem::new(1 << 20);
        let arena = FrameArena::new(&mem, 4096, FRAMES, shards).unwrap();
        // One owner flag per frame: set on alloc, cleared on release. A
        // frame handed out twice trips the swap assertion in the worker.
        let owned: Vec<AtomicBool> = (0..FRAMES).map(|_| AtomicBool::new(false)).collect();

        std::thread::scope(|s| {
            for (t, tape) in tapes.iter().take(threads).enumerate() {
                let arena = &arena;
                let owned = &owned;
                s.spawn(move || {
                    let mut held: Vec<u32> = Vec::new();
                    // Distinct home shards force cross-shard steals.
                    for &do_alloc in tape {
                        if do_alloc {
                            if let Some(f) = arena.alloc(t) {
                                assert!(
                                    !owned[f as usize].swap(true, Ordering::AcqRel),
                                    "frame {f} handed to two owners"
                                );
                                held.push(f);
                            }
                        } else if let Some(f) = held.pop() {
                            assert!(
                                owned[f as usize].swap(false, Ordering::AcqRel),
                                "released frame {f} that was not owned"
                            );
                            arena.release(t, f);
                        }
                    }
                    // Drain: every worker returns what it still holds.
                    for f in held {
                        assert!(owned[f as usize].swap(false, Ordering::AcqRel));
                        arena.release(t, f);
                    }
                });
            }
        });

        // Conservation: the arena is exactly full, every frame exactly
        // once across all shards, no owner flag left set.
        prop_assert_eq!(arena.free_frames(), FRAMES);
        let mut seen = [false; FRAMES];
        while let Some(f) = arena.alloc(0) {
            prop_assert!(!seen[f as usize], "frame {} duplicated in the freelists", f);
            seen[f as usize] = true;
        }
        prop_assert!(seen.iter().all(|&s| s), "a frame vanished from the freelists");
        prop_assert!(owned.iter().all(|o| !o.load(std::sync::atomic::Ordering::Acquire)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Per-tenant accounting conserves the arena: with concurrent workers
    /// allocating on behalf of random tenants (`alloc_owned`) and
    /// releasing from arbitrary shards, at every quiescent point
    /// `sum(tenant_held) + free_frames == num_frames` — frames are
    /// charged to exactly one tenant while out and to nobody once back,
    /// regardless of quotas, shard count, or the interleaving. Quotas are
    /// soft: allocation never fails while a free frame exists, even for a
    /// tenant already over its quota, and `over_quota` answers exactly
    /// `held > quota`.
    #[test]
    fn tenant_holdings_conserve_the_arena(
        shards in 1usize..6,
        threads in 2usize..6,
        quota0 in 1usize..32,
        quota1 in 1usize..32,
        // Per-thread op tape: values 0..4 = alloc charged to that tenant
        // (tenant 3 exceeds the sheet count, exercising clamping); 4..8 =
        // release one held frame (if any).
        tapes in proptest::collection::vec(
            proptest::collection::vec(0usize..8, 20..120),
            6..7
        )
    ) {
        use gpufs::cache::FrameArena;
        use gpusim::GlobalMem;

        const FRAMES: usize = 24;
        const TENANTS: usize = 3;
        let mem = GlobalMem::new(1 << 20);
        let arena = FrameArena::with_quotas(
            &mem, 4096, FRAMES, shards, TENANTS, &[quota0, quota1],
        ).unwrap();
        prop_assert_eq!(arena.num_tenants(), TENANTS);
        prop_assert_eq!(arena.tenant_quota(0), quota0);
        prop_assert_eq!(arena.tenant_quota(1), quota1);
        // Unlisted tenants get an unlimited quota.
        prop_assert_eq!(arena.tenant_quota(2), usize::MAX);

        std::thread::scope(|s| {
            for (t, tape) in tapes.iter().take(threads).enumerate() {
                let arena = &arena;
                s.spawn(move || {
                    let mut held: Vec<u32> = Vec::new();
                    for &op in tape {
                        if op < 4 {
                            // Soft quotas: a free frame is never refused,
                            // whoever asks (op 3 charges the last tenant).
                            if let Some(f) = arena.alloc_owned(t, op.min(TENANTS - 1)) {
                                held.push(f);
                            }
                        } else if let Some(f) = held.pop() {
                            arena.release(t, f);
                        }
                    }
                    for f in held {
                        arena.release(t, f);
                    }
                });
            }
        });

        // Conservation at quiescence: everything came back, and no tenant
        // is still charged for anything.
        let held_sum: usize = (0..TENANTS).map(|t| arena.tenant_held(t)).sum();
        prop_assert_eq!(held_sum + arena.free_frames(), FRAMES);
        prop_assert_eq!(arena.free_frames(), FRAMES);
        for t in 0..TENANTS {
            prop_assert_eq!(arena.tenant_held(t), 0);
            prop_assert!(!arena.over_quota(t));
        }

        // Single-threaded replay of the invariant mid-flight: drain the
        // arena charging alternating tenants and check the ledger balances
        // after every step, including while tenants sit over quota.
        let mut held: Vec<u32> = Vec::new();
        let mut charged = 0usize;
        while let Some(f) = arena.alloc_owned(0, charged % TENANTS) {
            held.push(f);
            charged += 1;
            let held_now: usize = (0..TENANTS).map(|t| arena.tenant_held(t)).sum();
            prop_assert_eq!(held_now, charged);
            prop_assert_eq!(held_now + arena.free_frames(), FRAMES);
        }
        prop_assert_eq!(charged, FRAMES);
        // With all 24 frames out across quotas of at most 31, over_quota
        // must answer exactly `held > quota` for every tenant.
        for (t, quota) in [(0, quota0), (1, quota1), (2, usize::MAX)] {
            prop_assert_eq!(arena.over_quota(t), arena.tenant_held(t) > quota);
        }
        for f in held {
            arena.release(0, f);
        }
        prop_assert_eq!(arena.free_frames(), FRAMES);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Mount-level stress on a single shared page: concurrent threadblocks
    /// interleave `pin_page` (reads and writes), `gmsync` write-back, and
    /// eviction pressure. No write may be lost, every pin must be released
    /// (free frames return to capacity once the cache is discarded), and
    /// the access-accounting invariant `hits + misses =
    /// lockfree + locked` must hold — every pin took exactly one of the
    /// two protocols.
    #[test]
    fn one_page_survives_interleaved_pin_evict_writeback(
        burn_pages in proptest::collection::vec(1u64..4, 4..5),
        fill in 1u8..250
    ) {
        use gpufs::{GOpenMode, GpufsConfig, GpufsHost};
        use gpusim::{Gpu, GpuSpec, Grid};

        let fs = Arc::new(HostFs::new(HostFsConfig::default()));
        fs.create("/prop_share", &[0u8; 4096]).unwrap();
        let gpu = Arc::new(Gpu::new(0, GpuSpec::small_test()));
        let host = GpufsHost::new(Arc::clone(&fs), vec![Arc::clone(&gpu)]);
        // 6 frames: the shared page + its pristine copy + little slack, so
        // the burn file's pages constantly evict the shared one.
        let mount = host.mount(0, GpufsConfig::new(4096, 6 * 4096)).unwrap();
        let burn_for_kernel = burn_pages.clone();
        let kernel_mount = Arc::clone(&mount);
        gpu.launch(Grid::new(4, 32), 0, move |blk| {
            let mount = &kernel_mount;
            let b = blk.block_id();
            let fd = mount.open(blk, "/prop_share", GOpenMode::ReadWrite).unwrap();
            let my = fill.wrapping_add(b as u8);
            // Write my disjoint slice of the one page, then propagate it.
            mount.write(blk, &fd, b as u64 * 1024, &[my; 1024]).unwrap();
            mount.msync(blk, &fd, 0).unwrap();
            // Interleave eviction pressure: a temp file large enough to
            // need the shared page's frames.
            let tmp = mount.open(blk, &format!("/burn{b}"), GOpenMode::Temp).unwrap();
            for page in 0..burn_for_kernel[b] {
                mount.write(blk, &tmp, page * 4096, &[9u8; 4096]).unwrap();
            }
            mount.close(blk, tmp).unwrap();
            // Read my slice back through a fresh fault if it was evicted:
            // the msync above makes it durable on the host.
            let mut buf = [0u8; 1024];
            let n = mount.read(blk, &fd, b as u64 * 1024, &mut buf).unwrap();
            assert_eq!(n, 1024);
            assert!(buf.iter().all(|&x| x == my), "block {b} lost its slice");
            mount.close(blk, fd).unwrap();
        });
        // No write lost on the host after the msyncs.
        let (data, _) = fs.read_whole("/prop_share", 0).unwrap();
        for b in 0..4usize {
            let my = fill.wrapping_add(b as u8);
            prop_assert!(
                data[b * 1024..(b + 1) * 1024].iter().all(|&x| x == my),
                "slice {} lost through evict/writeback interleaving", b
            );
        }
        // Every pin took exactly one of the two protocols, and nothing
        // else touched the counters: the accounting identity holds.
        let c = mount.counters();
        prop_assert_eq!(
            c.hits.get() + c.misses.get(),
            c.lockfree_accesses.get() + c.locked_accesses.get(),
            "every access is either lock-free or locked, never both or neither"
        );
    }
}

/// One step of a block's session in the frame-ledger property below.
#[derive(Debug, Clone, Copy)]
enum SessionOp {
    /// Read one page of the shared read-only file (twice: the second read
    /// is a hit, so the page carries a reference when the hand comes by).
    ReadShared(u64),
    /// Read one of the block's own pages of a read-write file and compare
    /// it with what the block last wrote there.
    ReadOwn { file: usize, slot: u64 },
    /// Write `len` bytes of `fill` at `off` inside one of the block's own
    /// pages of a read-write file.
    WriteOwn {
        file: usize,
        slot: u64,
        off: usize,
        len: usize,
        fill: u8,
    },
    /// Close a read-write file and open it again (parks it in the closed
    /// table, first in line for eviction, then revives it).
    Reopen(usize),
}

fn session_op(pages: u64) -> impl Strategy<Value = SessionOp> {
    prop_oneof![
        (0..pages).prop_map(SessionOp::ReadShared),
        (0..pages).prop_map(SessionOp::ReadShared),
        (0usize..2, 0..pages / 4).prop_map(|(file, slot)| SessionOp::ReadOwn { file, slot }),
        (
            (0usize..2, 0..pages / 4),
            (0usize..4096, 1usize..4096, 1u8..255)
        )
            .prop_map(|((file, slot), (off, len, fill))| SessionOp::WriteOwn {
                file,
                slot,
                off,
                len: len.min(4096 - off),
                fill,
            }),
        (0usize..2).prop_map(SessionOp::Reopen),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The frame ledger and the content oracle, together, over tenant
    /// quotas, cache size, readahead window and per-block sessions: four
    /// blocks (two tenants) open, read, write, reopen and close three
    /// files through a cache far smaller than what they touch. Whatever
    /// the schedule — second chances, owner-restricted quota passes,
    /// dirty write-back of victims, parked files drained and revived —
    /// every byte a block reads back is the byte it (or the host) put
    /// there, the host ends up with exactly the model image, and once the
    /// kernel is over every frame is either free or attached to exactly
    /// one page.
    #[test]
    fn frame_ledger_and_contents_hold_under_quotas_and_pressure(
        frames in 20usize..48,
        quotas in (3usize..16, 3usize..16),
        readahead in 1usize..4,
        sessions in proptest::collection::vec(
            proptest::collection::vec(session_op(24), 20..60), 4..5),
    ) {
        use gpufs::{GOpenMode, GpufsConfig, GpufsHost};
        use gpusim::{Gpu, GpuSpec, Grid};
        const PAGE: usize = 4096;
        const PAGES: u64 = 24;
        const BLOCKS: usize = 4;
        const RW: [&str; 2] = ["/ledger_rw0", "/ledger_rw1"];

        let image = |salt: usize| -> Vec<u8> {
            (0..PAGES as usize * PAGE).map(|i| ((i / 7 + salt * 31) % 251) as u8).collect()
        };
        let fs = Arc::new(HostFs::new(HostFsConfig::default()));
        fs.create("/ledger_ro", &image(9)).unwrap();
        for (i, path) in RW.iter().enumerate() {
            fs.create(path, &image(i)).unwrap();
        }
        let cfg = GpufsConfig::new(PAGE, frames * PAGE)
            .with_readahead(readahead)
            .with_tenant_quotas(vec![quotas.0, quotas.1]);
        let gpu = Arc::new(Gpu::new(0, GpuSpec::small_test()));
        let host = GpufsHost::with_config(Arc::clone(&fs), vec![Arc::clone(&gpu)], &cfg);
        let mount = host.mount(0, cfg).unwrap();
        for b in 0..BLOCKS {
            mount.set_tenant(b, b / 2);
        }
        // Block b owns pages b, b + 4, b + 8, … of both read-write files;
        // the model is each block's own view of its pages, merged below.
        let own_page = |b: usize, slot: u64| slot * BLOCKS as u64 + b as u64;
        let shared = image(9);
        let models: Vec<std::sync::OnceLock<[Vec<u8>; 2]>> =
            (0..BLOCKS).map(|_| std::sync::OnceLock::new()).collect();
        gpu.launch(Grid::new(BLOCKS, 32), 0, |blk| {
                let b = blk.block_id();
                let mut model = [image(0), image(1)];
                let ro = mount.open(blk, "/ledger_ro", GOpenMode::ReadOnly).unwrap();
                let mut rw: Vec<_> = RW
                    .iter()
                    .map(|p| Some(mount.open(blk, p, GOpenMode::ReadWrite).unwrap()))
                    .collect();
                let mut buf = vec![0u8; PAGE];
                for &op in &sessions[b] {
                    match op {
                        SessionOp::ReadShared(page) => {
                            let at = page as usize * PAGE;
                            for _ in 0..2 {
                                assert_eq!(mount.read(blk, &ro, at as u64, &mut buf).unwrap(), PAGE);
                                assert_eq!(buf, shared[at..at + PAGE], "shared page {page}");
                            }
                        }
                        SessionOp::ReadOwn { file, slot } => {
                            let at = own_page(b, slot) as usize * PAGE;
                            let fd = rw[file].as_ref().unwrap();
                            assert_eq!(mount.read(blk, fd, at as u64, &mut buf).unwrap(), PAGE);
                            assert_eq!(buf, model[file][at..at + PAGE], "block {b} file {file} slot {slot}");
                        }
                        SessionOp::WriteOwn { file, slot, off, len, fill } => {
                            let at = own_page(b, slot) as usize * PAGE + off;
                            let fd = rw[file].as_ref().unwrap();
                            mount.write(blk, fd, at as u64, &vec![fill; len]).unwrap();
                            model[file][at..at + len].fill(fill);
                        }
                        SessionOp::Reopen(file) => {
                            mount.close(blk, rw[file].take().unwrap()).unwrap();
                            rw[file] = Some(mount.open(blk, RW[file], GOpenMode::ReadWrite).unwrap());
                        }
                    }
                }
                for fd in rw.into_iter().flatten() {
                    mount.fsync(blk, &fd).unwrap();
                    mount.close(blk, fd).unwrap();
                }
                mount.close(blk, ro).unwrap();
                models[b].set(model).unwrap();
            });

        // Content oracle: the host image is the initial image with every
        // block's own pages as that block last left them.
        for (file, path) in RW.iter().enumerate() {
            let (host_image, _) = fs.read_whole(path, 0).unwrap();
            for page in 0..PAGES as usize {
                let span = page * PAGE..(page + 1) * PAGE;
                prop_assert_eq!(
                    &host_image[span.clone()],
                    &models[page % BLOCKS].get().unwrap()[file][span],
                    "{} page {}", path, page
                );
            }
        }
        // Frame ledger: free + attached = arena, nothing attached twice.
        let mut attached = mount.attached_frames();
        let n = attached.len();
        attached.sort_unstable();
        attached.dedup();
        prop_assert_eq!(attached.len(), n, "a frame is attached to two pages");
        prop_assert_eq!(n + mount.free_frames(), frames);
        let c = mount.counters();
        prop_assert!(c.pages_reclaimed.get() > 0, "the sessions must not fit the cache");
        prop_assert!(c.second_chances.get() > 0, "no re-read page met the hand");
        prop_assert_eq!(
            c.hits.get() + c.misses.get(),
            c.lockfree_accesses.get() + c.locked_accesses.get()
        );
    }
}

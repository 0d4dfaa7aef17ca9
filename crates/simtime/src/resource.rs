//! Shared simulated devices arbitrated in virtual time.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::{bw_time_ns, Nanos};

/// Outcome of reserving a device: when the device actually started serving
/// this request and when it finishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reservation {
    /// Virtual time at which the device began serving the request.
    pub start: Nanos,
    /// Virtual time at which the request completes.
    pub end: Nanos,
    /// The request opened no transaction of its own: it was appended to a
    /// descriptor list another stream still had open on the device (see
    /// [`BandwidthResource::transfer_chunk`]) and so paid no setup.
    pub joined: bool,
}

/// Where a chunk sits in its scatter-gather transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkPos {
    /// The whole transaction is this one chunk.
    Only,
    /// The first of several chunks: a successor is known to follow.
    First,
    /// Neither first nor last.
    Middle,
    /// The final chunk of a multi-chunk transaction.
    Last,
}

impl ChunkPos {
    /// The position of a chunk that is (`first`) the first one its
    /// transaction ships and (`last`) the last one it will ship.
    #[must_use]
    pub fn new(first: bool, last: bool) -> Self {
        match (first, last) {
            (true, true) => ChunkPos::Only,
            (true, false) => ChunkPos::First,
            (false, false) => ChunkPos::Middle,
            (false, true) => ChunkPos::Last,
        }
    }

    /// This chunk begins a transaction (and owes setup unless it joins).
    fn begins(self) -> bool {
        matches!(self, ChunkPos::Only | ChunkPos::First)
    }

    /// Another chunk of the same transaction follows this one.
    fn has_successor(self) -> bool {
        matches!(self, ChunkPos::First | ChunkPos::Middle)
    }
}

impl Reservation {
    /// Duration the request occupied the device.
    #[must_use]
    pub fn busy(&self) -> Nanos {
        self.end - self.start
    }
}

fn reserve(next_free: &AtomicU64, earliest_start: Nanos, dur: Nanos) -> Reservation {
    let mut cur = next_free.load(Ordering::Acquire);
    loop {
        let start = cur.max(earliest_start);
        let end = start.saturating_add(dur);
        match next_free.compare_exchange_weak(cur, end, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => {
                return Reservation {
                    start,
                    end,
                    joined: false,
                }
            }
            Err(actual) => cur = actual,
        }
    }
}

/// A device with a fixed streaming bandwidth and a fixed per-operation setup
/// cost. A transfer of `b` bytes occupies the device for
/// `setup + b / bandwidth`.
///
/// Models a PCIe DMA direction, a disk's streaming path, or a DRAM copy
/// engine. Capacity is enforced with a *work-conserving* cumulative-busy
/// model: a transfer completes at `max(its issue time, total work already
/// accepted) + its service time`. At low utilization transfers start when
/// issued; under saturation the accumulated-work term dominates and the
/// device serializes at full bandwidth. The model is deliberately
/// insensitive to the *real-time* order in which simulated actors (whose
/// virtual clocks legitimately diverge) happen to call in — a strict FIFO
/// on arrival order would let a request issued late in real time but
/// early in virtual time queue behind far-future reservations.
#[derive(Debug)]
pub struct BandwidthResource {
    engine: Engine,
    mb_per_s: f64,
    setup_ns: Nanos,
}

/// The two words every reservation writes, on a cache line of their own:
/// neighbouring engines (a link's two directions sit side by side) and the
/// read-only calibration must not share it.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Engine {
    /// Cumulative service time accepted since the last reset.
    busy: AtomicU64,
    /// Latest end of any reserved chunk that has a successor: until then a
    /// streamed transaction's descriptor list is open for appends.
    open_until: AtomicU64,
}

impl BandwidthResource {
    /// A device streaming at `mb_per_s` with `setup_ns` per-operation cost.
    #[must_use]
    pub fn new(mb_per_s: f64, setup_ns: Nanos) -> Self {
        Self {
            engine: Engine::default(),
            mb_per_s,
            setup_ns,
        }
    }

    /// Configured streaming bandwidth in MB/s.
    #[must_use]
    pub fn bandwidth_mb_s(&self) -> f64 {
        self.mb_per_s
    }

    /// Service time — setup included — accepted since the last
    /// [`BandwidthResource::reset`]. Over an interval in which the device
    /// never idles this is the interval's length; divided by any elapsed
    /// time it is the device's occupancy.
    #[must_use]
    pub fn busy_ns(&self) -> Nanos {
        self.engine.busy.load(Ordering::Acquire)
    }

    fn accept(&self, earliest_start: Nanos, dur: Nanos, joined: bool) -> Reservation {
        let prior_work = self.engine.busy.fetch_add(dur, Ordering::AcqRel);
        let start = earliest_start.max(prior_work);
        Reservation {
            start,
            end: start.saturating_add(dur),
            joined,
        }
    }

    /// Reserve the device for a transfer of `bytes`, not starting before
    /// `earliest_start`. Returns the reservation window. A plain transfer
    /// is a transaction of its own: it always pays setup and never joins
    /// an open descriptor list.
    pub fn transfer(&self, earliest_start: Nanos, bytes: u64) -> Reservation {
        self.accept(earliest_start, self.service_time(bytes), false)
    }

    /// Reserve the device for one scatter-gather transaction moving the
    /// given extents back-to-back: a single per-operation setup cost is
    /// paid no matter how many extents the descriptor list names, which is
    /// what makes batched multi-page DMA cheaper than one transfer per
    /// page (the amortization behind GPUfs readahead).
    pub fn transfer_scattered(&self, earliest_start: Nanos, extent_bytes: &[u64]) -> Reservation {
        self.transfer_chunk(earliest_start, extent_bytes, ChunkPos::Only)
    }

    /// Reserve the device for one *chunk* of a scatter-gather transaction
    /// streamed chunk by chunk. The transaction pays the per-operation
    /// setup once — on the chunk that begins it — while later chunks
    /// continue the already-programmed descriptor list and are charged
    /// pure bandwidth. This is what lets a producer overlap generating
    /// chunk *k+1* with the device moving chunk *k* without paying one
    /// setup per chunk.
    ///
    /// The same holds *across* transactions, by one narrow rule. While a
    /// chunk that [has a successor](ChunkPos::First) is on the device, its
    /// descriptor list is **open**: the driver is mid-stream and more
    /// descriptors are known to follow. A chunk that begins another
    /// transaction and whose data is ready (`earliest_start`) before that
    /// reservation ends is appended to the open list instead of opening
    /// its own — no setup, [`Reservation::joined`] set. A transaction of
    /// one chunk never has a successor, so it never opens a list: traffic
    /// made only of such transactions reserves exactly as
    /// [`BandwidthResource::transfer_scattered`] always did. A gap between
    /// a stream's chunks closes the list (nothing raised `open_until` past
    /// the gap). A join needs a reserved, still-running chunk, so it can
    /// never land on an idle device, and no reservation's service time is
    /// longer than it would have been without the rule.
    ///
    /// Chunks of one transaction are serialized *by the caller*: pass the
    /// previous chunk's `end` (max'ed with the data-ready time) as
    /// `earliest_start`. The work-conserving busy model alone orders
    /// requests only under saturation, which would let chunks of one
    /// transaction fictitiously overlap each other on an idle device.
    pub fn transfer_chunk(
        &self,
        earliest_start: Nanos,
        extent_bytes: &[u64],
        pos: ChunkPos,
    ) -> Reservation {
        let total: u64 = extent_bytes.iter().sum();
        let mut dur = bw_time_ns(total, self.mb_per_s);
        // `open_until` publishes nothing but itself; Acquire/AcqRel only
        // keeps it ordered with the `busy` accesses around it.
        let joined =
            pos.begins() && earliest_start < self.engine.open_until.load(Ordering::Acquire);
        if pos.begins() && !joined {
            dur = dur.saturating_add(self.setup_ns);
        }
        let r = self.accept(earliest_start, dur, joined);
        if pos.has_successor() {
            self.engine.open_until.fetch_max(r.end, Ordering::AcqRel);
        }
        r
    }

    /// Time such a transfer would occupy the device, ignoring queueing.
    #[must_use]
    pub fn service_time(&self, bytes: u64) -> Nanos {
        self.setup_ns
            .saturating_add(bw_time_ns(bytes, self.mb_per_s))
    }

    /// Forget all queued work and close any open descriptor list (used
    /// between benchmark phases).
    pub fn reset(&self) {
        self.engine.busy.store(0, Ordering::Release);
        self.engine.open_until.store(0, Ordering::Release);
    }
}

/// A device that serves caller-priced requests strictly one at a time.
///
/// Models the single-threaded RPC daemon on the host CPU or a disk head
/// whose per-request time the file system computes (seek + rotational +
/// transfer).
#[derive(Debug, Default)]
pub struct SerialResource {
    next_free: AtomicU64,
}

impl SerialResource {
    /// A serial device, idle at time zero.
    #[must_use]
    pub fn new() -> Self {
        Self {
            next_free: AtomicU64::new(0),
        }
    }

    /// Reserve the device for `dur` nanoseconds, not starting before
    /// `earliest_start`.
    pub fn acquire(&self, earliest_start: Nanos, dur: Nanos) -> Reservation {
        reserve(&self.next_free, earliest_start, dur)
    }

    /// Next time the device is free.
    #[must_use]
    pub fn next_free(&self) -> Nanos {
        self.next_free.load(Ordering::Acquire)
    }

    /// Forget all queued work (used between benchmark phases).
    pub fn reset(&self) {
        self.next_free.store(0, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_transfers_queue_fifo() {
        let r = BandwidthResource::new(1000.0, 0); // 1000 MB/s => 1 ns/KB... (1 MB/ms)
        let a = r.transfer(0, 1_000_000); // 1 ms
        let b = r.transfer(0, 1_000_000); // queued behind a
        assert_eq!(a.start, 0);
        assert_eq!(a.end, 1_000_000);
        assert_eq!(b.start, 1_000_000);
        assert_eq!(b.end, 2_000_000);
    }

    #[test]
    fn bandwidth_respects_earliest_start() {
        let r = BandwidthResource::new(1000.0, 500);
        let a = r.transfer(10_000, 1_000_000);
        assert_eq!(a.start, 10_000);
        assert_eq!(a.end, 10_000 + 500 + 1_000_000);
    }

    #[test]
    fn setup_cost_dominates_small_transfers() {
        let r = BandwidthResource::new(5731.0, 10_000);
        let a = r.transfer(0, 16 * 1024); // 16 KB
                                          // 16 KiB at 5731 MB/s is ~2.9 us; with the 10 us setup the device is
                                          // mostly paying overhead, which is what makes small pages slow.
        assert!(a.busy() > 12_000);
        assert!(a.busy() < 14_000);
    }

    #[test]
    fn scattered_transfer_pays_setup_once() {
        let r = BandwidthResource::new(1000.0, 10_000);
        let scattered = r.transfer_scattered(0, &[500_000, 250_000, 250_000]);
        r.reset();
        let contiguous = r.transfer(0, 1_000_000);
        assert_eq!(scattered.busy(), contiguous.busy());
        r.reset();
        let mut serial_busy = 0;
        for bytes in [500_000u64, 250_000, 250_000] {
            serial_busy += r.transfer(0, bytes).busy();
        }
        assert_eq!(
            serial_busy - scattered.busy(),
            2 * 10_000,
            "batching saves one setup per extra extent"
        );
    }

    #[test]
    fn chunked_transaction_pays_setup_once_and_serializes_on_caller_order() {
        let r = BandwidthResource::new(1000.0, 10_000);
        // One 1 MB transaction streamed as two 500 KB chunks, with the
        // caller threading prev.end into the next chunk's earliest.
        let c1 = r.transfer_chunk(0, &[500_000], ChunkPos::First);
        let c2 = r.transfer_chunk(c1.end, &[500_000], ChunkPos::Last);
        assert_eq!(c1.busy(), 10_000 + 500_000, "first chunk carries setup");
        assert_eq!(c2.busy(), 500_000, "continuation is pure bandwidth");
        assert_eq!(c2.start, c1.end, "chunks never overlap each other");
        r.reset();
        let whole = r.transfer(0, 1_000_000);
        assert_eq!(
            c2.end - c1.start,
            whole.busy(),
            "chunked transaction costs exactly the contiguous transfer"
        );
    }

    #[test]
    fn a_streamed_transaction_opens_its_list_and_a_ready_chunk_joins() {
        let r = BandwidthResource::new(1000.0, 10_000);
        let a0 = r.transfer_chunk(0, &[500_000], ChunkPos::First);
        assert!(!a0.joined, "nothing was open: the stream pays its setup");
        assert_eq!(a0.busy(), 10_000 + 500_000);
        // Another transaction's first chunk, ready while a0 is on the
        // engine: appended, pure bandwidth. So is a whole one-chunk
        // transaction.
        let b0 = r.transfer_chunk(a0.end - 1, &[500_000], ChunkPos::First);
        assert!(b0.joined);
        assert_eq!(b0.busy(), 500_000);
        assert_eq!(b0.start, a0.end, "it queues behind the open chunk");
        let c = r.transfer_chunk(b0.end - 1, &[100_000], ChunkPos::Only);
        assert!(c.joined, "b0 has a successor too, so the list stayed open");
        assert_eq!(c.busy(), 100_000);
        // Continuations never pay setup and never count as joins.
        let a1 = r.transfer_chunk(a0.end, &[500_000], ChunkPos::Last);
        assert!(!a1.joined);
        assert_eq!(a1.busy(), 500_000);
        assert_eq!(
            r.busy_ns(),
            10_000 + 1_600_000,
            "one setup for three transactions"
        );
    }

    #[test]
    fn a_gap_or_a_final_chunk_closes_the_list() {
        let r = BandwidthResource::new(1000.0, 10_000);
        let a0 = r.transfer_chunk(0, &[500_000], ChunkPos::First);
        // Ready exactly when the open chunk ends: too late, the engine
        // has run dry and the driver must program a new list.
        let late = r.transfer_chunk(a0.end, &[100_000], ChunkPos::Only);
        assert!(!late.joined);
        assert_eq!(late.busy(), 10_000 + 100_000);
        // The stream's own next chunk arrives after a gap and is final:
        // it raises nothing, so a chunk ready while *it* runs pays setup.
        let a1 = r.transfer_chunk(late.end + 50_000, &[500_000], ChunkPos::Last);
        assert_eq!(a1.busy(), 500_000);
        let during_last = r.transfer_chunk(a1.start + 1, &[100_000], ChunkPos::First);
        assert!(!during_last.joined, "a final chunk keeps no list open");
    }

    #[test]
    fn single_chunk_transactions_never_open_or_join() {
        let chunked = BandwidthResource::new(5731.0, 25_000);
        let plain = BandwidthResource::new(5731.0, 25_000);
        for (earliest, bytes) in [(0, 65_536u64), (10, 4096), (90_000, 1 << 20), (5, 1)] {
            let a = chunked.transfer_chunk(earliest, &[bytes], ChunkPos::Only);
            let b = plain.transfer(earliest, bytes);
            assert_eq!(a, b, "Only == transfer, bit for bit");
        }
        assert_eq!(chunked.busy_ns(), plain.busy_ns());
    }

    #[test]
    fn reset_closes_the_open_list() {
        let r = BandwidthResource::new(1000.0, 10_000);
        let a0 = r.transfer_chunk(0, &[500_000], ChunkPos::First);
        r.reset();
        assert_eq!(r.busy_ns(), 0);
        let b = r.transfer_chunk(a0.end / 2, &[100_000], ChunkPos::Only);
        assert!(!b.joined, "reset forgets the open list with the queue");
        assert_eq!(b.busy(), 10_000 + 100_000);
    }

    #[test]
    fn serial_resource_orders_requests() {
        let r = SerialResource::new();
        let a = r.acquire(0, 100);
        let b = r.acquire(0, 50);
        assert_eq!(a.end, 100);
        assert_eq!(b.start, 100);
        assert_eq!(b.end, 150);
        assert_eq!(r.next_free(), 150);
    }

    #[test]
    fn concurrent_reservations_never_overlap() {
        let r = SerialResource::new();
        let windows: Vec<Reservation> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..16).map(|_| s.spawn(|| r.acquire(0, 10))).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut sorted = windows.clone();
        sorted.sort_by_key(|w| w.start);
        for pair in sorted.windows(2) {
            assert!(pair[0].end <= pair[1].start);
        }
        assert_eq!(r.next_free(), 160);
    }

    #[test]
    fn reset_clears_queue() {
        let r = BandwidthResource::new(100.0, 0);
        r.transfer(0, 1_000_000);
        r.reset();
        let a = r.transfer(0, 1_000_000);
        assert_eq!(a.start, 0);
    }

    mod ring_properties {
        use super::*;
        use proptest::prelude::*;

        /// One chunk of a generated schedule: a gap before its data is
        /// ready (relative to the previous chunk's end, or to the previous
        /// transaction's first issue), its size, and its position.
        #[derive(Debug, Clone)]
        struct Step {
            earliest: Nanos,
            bytes: u64,
            pos: ChunkPos,
        }

        /// Transactions of 1–5 chunks, issued one after another with
        /// small or large gaps, chunks of one transaction chained on the
        /// previous chunk's end as the daemon's lanes do.
        fn run(r: &BandwidthResource, txs: &[(u64, Vec<(u64, u64)>)]) -> Vec<(Step, Reservation)> {
            let mut out = Vec::new();
            let mut issue: Nanos = 0;
            for (gap, chunks) in txs {
                issue += gap;
                let mut prev_end = 0;
                for (i, &(lag, bytes)) in chunks.iter().enumerate() {
                    let pos = ChunkPos::new(i == 0, i + 1 == chunks.len());
                    let earliest = (issue + lag).max(prev_end);
                    let res = r.transfer_chunk(earliest, &[bytes], pos);
                    prev_end = res.end;
                    out.push((
                        Step {
                            earliest,
                            bytes,
                            pos,
                        },
                        res,
                    ));
                }
            }
            out
        }

        fn txs() -> impl Strategy<Value = Vec<(u64, Vec<(u64, u64)>)>> {
            prop::collection::vec(
                (
                    0u64..400_000,
                    prop::collection::vec((0u64..60_000, 1u64..300_000), 1..6),
                ),
                1..24,
            )
        }

        proptest! {
            #[test]
            fn engine_time_sits_between_bandwidth_and_per_transaction_setup(txs in txs()) {
                const SETUP: Nanos = 25_000;
                let r = BandwidthResource::new(1000.0, SETUP);
                let log = run(&r, &txs);
                let pure: Nanos = log.iter().map(|(s, _)| bw_time_ns(s.bytes, 1000.0)).sum();
                let begun = log.iter().filter(|(s, _)| s.pos.begins()).count() as u64;
                let paid = log.iter().filter(|(s, r)| s.pos.begins() && !r.joined).count() as u64;
                prop_assert_eq!(r.busy_ns(), pure + paid * SETUP);
                prop_assert!(r.busy_ns() >= pure && r.busy_ns() <= pure + begun * SETUP);
                for (step, res) in &log {
                    prop_assert!(res.start >= step.earliest, "{step:?} started early: {res:?}");
                    prop_assert!(res.joined <= step.pos.begins(), "a continuation joined");
                    let setup = if step.pos.begins() && !res.joined { SETUP } else { 0 };
                    prop_assert_eq!(res.busy(), bw_time_ns(step.bytes, 1000.0) + setup);
                }
                // A join needs an open chunk still running at the joiner's
                // data-ready time: some earlier chunk with a successor
                // whose reservation ends after it.
                for (i, (step, res)) in log.iter().enumerate() {
                    if res.joined {
                        prop_assert!(log[..i].iter().any(|(s, r)| {
                            s.pos.has_successor() && r.end > step.earliest
                        }));
                    }
                }
            }

            #[test]
            fn single_chunk_sequences_reserve_exactly_like_transfer(
                reqs in prop::collection::vec((0u64..2_000_000, 1u64..1_000_000), 1..64),
            ) {
                let ring = BandwidthResource::new(5731.0, 25_000);
                let plain = BandwidthResource::new(5731.0, 25_000);
                for &(earliest, bytes) in &reqs {
                    prop_assert_eq!(
                        ring.transfer_chunk(earliest, &[bytes], ChunkPos::Only),
                        plain.transfer(earliest, bytes)
                    );
                }
                // Threaded: arrival order is real, so compare what does not
                // depend on it — every window's length, and the total.
                ring.reset();
                let windows: Vec<Reservation> = std::thread::scope(|s| {
                    let handles: Vec<_> = reqs
                        .chunks(reqs.len().div_ceil(4))
                        .map(|part| {
                            let ring = &ring;
                            s.spawn(move || {
                                part.iter()
                                    .map(|&(e, b)| ring.transfer_chunk(e, &[b], ChunkPos::Only))
                                    .collect::<Vec<_>>()
                            })
                        })
                        .collect();
                    handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
                });
                prop_assert!(windows.iter().all(|w| !w.joined));
                let mut got: Vec<Nanos> = windows.iter().map(Reservation::busy).collect();
                let mut want: Vec<Nanos> = reqs.iter().map(|&(_, b)| plain.service_time(b)).collect();
                got.sort_unstable();
                want.sort_unstable();
                prop_assert_eq!(got, want);
                prop_assert_eq!(ring.busy_ns(), plain.busy_ns());
            }
        }
    }
}

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
    /// The request opened no transaction of its own: it was appended to the
    /// descriptor ring the device was still working through (see
    /// [`BandwidthResource::transfer_chunk`]) and so paid no setup.
    pub joined: bool,
}

impl Reservation {
    /// Duration the request occupied the device.
    #[must_use]
    pub fn busy(&self) -> Nanos {
        self.end - self.start
    }
}

/// The start rule every simulated device shares: `servers` identical
/// servers behind one queue of caller-priced work.
///
/// Capacity is enforced with a *work-conserving* cumulative-busy model:
/// work of duration `d` issued at `t` runs over
/// `[max(t, accepted / servers), … + d)`, where `accepted` is all the
/// work reserved before it since the last reset. At low utilization work
/// starts when issued; under saturation the accumulated-work term
/// dominates and the device serializes at full capacity. The model is
/// deliberately insensitive to the *real-time* order in which simulated
/// actors (whose virtual clocks legitimately diverge) happen to call in —
/// a strict FIFO on arrival order would let a request issued late in real
/// time but early in virtual time queue behind far-future reservations.
#[derive(Debug)]
pub struct Timeline {
    /// Service time accepted since the last reset, over all servers.
    busy: AtomicU64,
    servers: u64,
}

impl Timeline {
    /// A timeline of `servers` servers (at least one), idle at time zero.
    #[must_use]
    pub fn new(servers: usize) -> Self {
        Self {
            busy: AtomicU64::new(0),
            servers: servers.max(1) as u64,
        }
    }

    /// Reserve `dur` nanoseconds of one server, not starting before
    /// `earliest_start`.
    pub fn reserve(&self, earliest_start: Nanos, dur: Nanos) -> Reservation {
        let prior_work = self.busy.fetch_add(dur, Ordering::AcqRel);
        let start = earliest_start.max(prior_work / self.servers);
        Reservation {
            start,
            end: start.saturating_add(dur),
            joined: false,
        }
    }

    /// Service time accepted since the last [`Timeline::reset`], over all
    /// servers: divided by `elapsed × servers` it is the occupancy.
    #[must_use]
    pub fn busy_ns(&self) -> Nanos {
        self.busy.load(Ordering::Acquire)
    }

    /// Forget all accepted work.
    pub fn reset(&self) {
        self.busy.store(0, Ordering::Release);
    }
}

/// A device with a fixed streaming bandwidth and a fixed per-operation setup
/// cost: a one-server [`Timeline`] on which a transfer of `b` bytes
/// occupies the device for `setup + b / bandwidth`.
///
/// Models a PCIe DMA direction, a network link direction, or a disk
/// (whose setup is its seek, paid only when the head must move — see
/// [`BandwidthResource::transfer_with_setup`]).
#[derive(Debug)]
pub struct BandwidthResource {
    engine: Engine,
    mb_per_s: f64,
    setup_ns: Nanos,
}

/// The two words every reservation writes, on a cache line of their own:
/// neighbouring engines (a link's two directions sit side by side) and the
/// read-only calibration must not share it.
#[derive(Debug)]
#[repr(align(64))]
struct Engine {
    timeline: Timeline,
    /// Latest end of any reserved ring chunk: until then the descriptor
    /// ring is running and open for appends.
    open_until: AtomicU64,
}

impl BandwidthResource {
    /// A device streaming at `mb_per_s` with `setup_ns` per-operation cost.
    #[must_use]
    pub fn new(mb_per_s: f64, setup_ns: Nanos) -> Self {
        Self {
            engine: Engine {
                timeline: Timeline::new(1),
                open_until: AtomicU64::new(0),
            },
            mb_per_s,
            setup_ns,
        }
    }

    /// Service time — setup included — accepted since the last
    /// [`BandwidthResource::reset`] (see [`Timeline::busy_ns`]).
    #[must_use]
    pub fn busy_ns(&self) -> Nanos {
        self.engine.timeline.busy_ns()
    }

    /// Reserve the device for a transfer of `bytes`, not starting before
    /// `earliest_start`: a one-shot transaction, which always pays setup,
    /// never joins the descriptor ring and leaves nothing open behind it.
    /// A scatter-gather list is one transfer of its extents' total, one
    /// setup: why batched multi-page DMA beats a transfer per page.
    pub fn transfer(&self, earliest_start: Nanos, bytes: u64) -> Reservation {
        self.transfer_with_setup(earliest_start, bytes, true)
    }

    /// [`BandwidthResource::transfer`], paying the per-operation setup only
    /// if `setup`: a disk access that continues where the head stopped
    /// needs no seek.
    pub fn transfer_with_setup(
        &self,
        earliest_start: Nanos,
        bytes: u64,
        setup: bool,
    ) -> Reservation {
        let mut dur = bw_time_ns(bytes, self.mb_per_s);
        if setup {
            dur = dur.saturating_add(self.setup_ns);
        }
        self.engine.timeline.reserve(earliest_start, dur)
    }

    /// Reserve the device for one *chunk* of a scatter-gather transaction
    /// fed through the device's descriptor ring. The transaction pays the
    /// per-operation setup once — on its `first` chunk — while later
    /// chunks continue the already-programmed list and are charged pure
    /// bandwidth. This is what lets a producer overlap generating chunk
    /// *k+1* with the device moving chunk *k* without paying one setup per
    /// chunk.
    ///
    /// The same holds *across* transactions, by one rule. While reserved
    /// ring work is still ahead of the device, the ring is **running**: the
    /// driver has a programmed list and its doorbell is live. A `first`
    /// chunk whose data is ready (`earliest_start`) before that work ends
    /// is appended to the running ring instead of programming a list of
    /// its own — no setup, [`Reservation::joined`] set. A chunk ready only
    /// once the ring has run dry finds it stopped and pays setup, so a join
    /// can never land on an idle device, and no reservation's service time
    /// is longer than it would have been without the rule.
    ///
    /// The rule prices the *device*; it says nothing about who submits.
    /// Each append still costs its submitter CPU time, and how many a
    /// driver thread can issue per second is that thread's bound — callers
    /// charge it to a [`WorkerPool`].
    ///
    /// Chunks of one transaction are serialized *by the caller*: pass the
    /// previous chunk's `end` (max'ed with the data-ready time) as
    /// `earliest_start`. The work-conserving busy model alone orders
    /// requests only under saturation, which would let chunks of one
    /// transaction fictitiously overlap each other on an idle device.
    pub fn transfer_chunk(&self, earliest_start: Nanos, bytes: u64, first: bool) -> Reservation {
        // `open_until` publishes nothing but itself; Acquire/AcqRel only
        // keeps it ordered with the busy account around it.
        let joined = first && earliest_start < self.engine.open_until.load(Ordering::Acquire);
        let mut r = self.transfer_with_setup(earliest_start, bytes, first && !joined);
        r.joined = joined;
        self.engine.open_until.fetch_max(r.end, Ordering::AcqRel);
        r
    }

    /// Time such a transfer would occupy the device, ignoring queueing.
    #[must_use]
    pub fn service_time(&self, bytes: u64) -> Nanos {
        self.setup_ns
            .saturating_add(bw_time_ns(bytes, self.mb_per_s))
    }

    /// Forget all queued work and stop the descriptor ring (used between
    /// benchmark phases).
    pub fn reset(&self) {
        self.engine.timeline.reset();
        self.engine.open_until.store(0, Ordering::Release);
    }
}

/// A pool of `k` identical servers sharing one queue of caller-priced
/// work: the daemon's workers, each request drawing the CPU time it
/// costs them. It is a `k`-server [`Timeline`]: while the pool has spare
/// capacity work starts when issued; once more has been accepted than
/// `k` servers could have finished by then, it queues. Only time *on a
/// CPU* is drawn from the pool — a worker blocked on a disk, a link or a
/// DMA engine holds none of it.
///
/// A pool built with [`WorkerPool::weighted`] also shares its servers
/// between tenants by *start-time fair queueing*. Tenant `t` of weight
/// `w_t` is guaranteed `k · w_t / Σw` servers, and its work carries a
/// start tag: the later of its issue time and the time the tenant's
/// earlier work would have drained at that guaranteed rate. Work starts
/// at its start tag if that is sooner than the timeline's start, so a
/// light tenant is not queued behind a heavy one's backlog, while a
/// heavy tenant never starts later than FIFO would start it. Every
/// draw still counts toward the accepted work, which is what pushes
/// later work back.
#[derive(Debug)]
pub struct WorkerPool {
    timeline: Timeline,
    /// One entry per weighted tenant; empty for a plain FIFO pool.
    shares: Vec<Share>,
}

/// One tenant's part of a weighted [`WorkerPool`].
#[derive(Debug)]
struct Share {
    /// Finish tag of the tenant's accepted work: when it would have
    /// drained at the tenant's guaranteed rate.
    frontier: AtomicU64,
    /// `dur` of the tenant's work spans `dur · stretch_num / stretch_den`
    /// of pool time at its guaranteed rate: `Σw / (w_t · k)`.
    stretch_num: u64,
    stretch_den: u64,
}

impl WorkerPool {
    /// A pool of `servers` workers (at least one), idle at time zero.
    #[must_use]
    pub fn new(servers: usize) -> Self {
        Self::weighted(servers, &[])
    }

    /// A pool of `servers` workers shared between `weights.len()` tenants
    /// in proportion to their weights (a weight of `0` counts as `1`);
    /// empty `weights` is [`WorkerPool::new`].
    #[must_use]
    pub fn weighted(servers: usize, weights: &[u32]) -> Self {
        let timeline = Timeline::new(servers);
        let weight = |w: u32| u64::from(w.max(1));
        let total: u64 = weights.iter().copied().map(weight).sum();
        // One tenant shares with nobody: it is the FIFO pool.
        let shares = if weights.len() < 2 { &[][..] } else { weights };
        Self {
            shares: shares
                .iter()
                .map(|&w| Share {
                    frontier: AtomicU64::new(0),
                    stretch_num: total,
                    stretch_den: weight(w) * timeline.servers,
                })
                .collect(),
            timeline,
        }
    }

    /// Reserve `dur` nanoseconds of one worker's time for `tenant`, not
    /// starting before `earliest_start`. On an unweighted pool every
    /// tenant is one FIFO; a weighted pool panics on a tenant it has no
    /// weight for.
    pub fn acquire_for(&self, tenant: usize, earliest_start: Nanos, dur: Nanos) -> Reservation {
        let mut r = self.timeline.reserve(earliest_start, dur);
        if !self.shares.is_empty() {
            let share = &self.shares[tenant];
            let span = dur
                .saturating_mul(share.stretch_num)
                .div_ceil(share.stretch_den);
            let prior_tag = share
                .frontier
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |f| {
                    Some(f.max(earliest_start).saturating_add(span))
                })
                .unwrap_or_else(|f| f);
            r.start = r.start.min(prior_tag.max(earliest_start));
            r.end = r.start.saturating_add(dur);
        }
        r
    }

    /// CPU time accepted so far, summed over all servers (see
    /// [`Timeline::busy_ns`]).
    #[must_use]
    pub fn busy_ns(&self) -> Nanos {
        self.timeline.busy_ns()
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
        // A scatter-gather list is one transfer of its extents' total.
        let extents = [500_000u64, 250_000, 250_000];
        let r = BandwidthResource::new(1000.0, 10_000);
        let scattered = r.transfer(0, extents.iter().sum());
        r.reset();
        let mut serial_busy = 0;
        for bytes in extents {
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
        let c1 = r.transfer_chunk(0, 500_000, true);
        let c2 = r.transfer_chunk(c1.end, 500_000, false);
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
        let a0 = r.transfer_chunk(0, 500_000, true);
        assert!(!a0.joined, "nothing was running: the stream pays its setup");
        assert_eq!(a0.busy(), 10_000 + 500_000);
        // Another transaction's first chunk, ready while a0 is on the
        // engine: appended, pure bandwidth — and it keeps the ring running
        // for the next one in turn.
        let b0 = r.transfer_chunk(a0.end - 1, 500_000, true);
        assert!(b0.joined);
        assert_eq!(b0.busy(), 500_000);
        assert_eq!(b0.start, a0.end, "it queues behind the running chunk");
        let c = r.transfer_chunk(b0.end - 1, 100_000, true);
        assert!(c.joined);
        assert_eq!(c.busy(), 100_000);
        // Continuations never pay setup and never count as joins.
        let a1 = r.transfer_chunk(a0.end, 500_000, false);
        assert!(!a1.joined);
        assert_eq!(a1.busy(), 500_000);
        assert_eq!(
            r.busy_ns(),
            10_000 + 1_600_000,
            "one setup for three transactions"
        );
    }

    #[test]
    fn only_a_gap_closes_the_list() {
        let r = BandwidthResource::new(1000.0, 10_000);
        let a0 = r.transfer_chunk(0, 500_000, true);
        // Ready exactly when the reserved ring work ends: too late, the
        // engine has run dry and the driver must program a new list.
        let late = r.transfer_chunk(a0.end, 100_000, true);
        assert!(!late.joined);
        assert_eq!(late.busy(), 10_000 + 100_000);
        // The stream's own last chunk arrives after a gap. It is ring work
        // like any other: a chunk ready while it runs is appended, one
        // ready a nanosecond after it ends is not.
        let a1 = r.transfer_chunk(late.end + 50_000, 500_000, false);
        assert_eq!(a1.busy(), 500_000);
        let during_last = r.transfer_chunk(a1.end - 1, 100_000, true);
        assert!(during_last.joined, "a final chunk is still a running ring");
        let after = r.transfer_chunk(during_last.end, 100_000, true);
        assert!(!after.joined);
    }

    #[test]
    fn one_shot_transactions_never_open_or_join() {
        let r = BandwidthResource::new(5731.0, 25_000);
        let plain = BandwidthResource::new(5731.0, 25_000);
        for (earliest, bytes) in [(0, 65_536u64), (10, 4096), (90_000, 1 << 20), (5, 1)] {
            let a = r.transfer_with_setup(earliest, bytes, true);
            let b = plain.transfer(earliest, bytes);
            assert_eq!(a, b, "a transfer that sets up == transfer, bit for bit");
        }
        assert_eq!(r.busy_ns(), plain.busy_ns());
        // A ring chunk ready while those one-shots hold the device finds
        // no ring running and pays setup; a one-shot ready while *its*
        // chunk runs pays its own setup all the same.
        let chunk = r.transfer_chunk(1, 4096, true);
        assert!(!chunk.joined);
        assert_eq!(chunk.busy(), plain.service_time(4096));
        let shot = r.transfer(chunk.start + 1, 4096);
        assert!(!shot.joined);
        assert_eq!(shot.busy(), plain.service_time(4096));
    }

    #[test]
    fn every_device_starts_work_by_the_timeline_rule() {
        // A link is a one-server timeline priced by setup + bandwidth.
        let link = BandwidthResource::new(1000.0, 500);
        let one = Timeline::new(1);
        for (earliest, bytes) in [(0, 1_000u64), (0, 5_000), (90_000, 10), (3, 7)] {
            assert_eq!(
                link.transfer(earliest, bytes),
                one.reserve(earliest, link.service_time(bytes))
            );
        }
        assert_eq!(link.busy_ns(), one.busy_ns());
        // Without its setup only the bandwidth term is charged, and a
        // one-shot opens no ring whether it set up or not.
        let bare = link.transfer_with_setup(0, 1_000, false);
        assert_eq!((bare.busy(), bare.joined), (1_000, false));
        assert!(!link.transfer_chunk(link.busy_ns() - 1, 10, true).joined);
        // An unweighted pool is a k-server timeline.
        let pool = WorkerPool::new(3);
        let three = Timeline::new(3);
        for (earliest, dur) in [(0, 70), (0, 70), (0, 70), (0, 70), (10, 5), (400, 1)] {
            assert_eq!(
                pool.acquire_for(0, earliest, dur),
                three.reserve(earliest, dur)
            );
        }
        assert_eq!(pool.busy_ns(), three.busy_ns());
        three.reset();
        assert_eq!((three.busy_ns(), three.reserve(5, 1).start), (0, 5));
        assert_eq!(Timeline::new(0).reserve(0, 4).end, 4, "clamped to 1");
    }

    #[test]
    fn reset_closes_the_open_list() {
        let r = BandwidthResource::new(1000.0, 10_000);
        let a0 = r.transfer_chunk(0, 500_000, true);
        r.reset();
        assert_eq!(r.busy_ns(), 0);
        let b = r.transfer_chunk(a0.end / 2, 100_000, true);
        assert!(!b.joined, "reset forgets the running ring with the queue");
        assert_eq!(b.busy(), 10_000 + 100_000);
    }

    #[test]
    fn a_pool_of_one_orders_requests() {
        let p = WorkerPool::new(1);
        let a = p.acquire_for(0, 0, 100);
        let b = p.acquire_for(0, 0, 50);
        assert_eq!((a.start, a.end), (0, 100));
        assert_eq!((b.start, b.end), (100, 150));
        assert_eq!(p.busy_ns(), 150);
        // Spare capacity: work issued after everything accepted has
        // drained starts when issued.
        let c = p.acquire_for(0, 1_000, 10);
        assert_eq!((c.start, c.end), (1_000, 1_010));
    }

    #[test]
    fn a_pool_of_k_runs_k_at_a_time() {
        let p = WorkerPool::new(4);
        let ends: Vec<Nanos> = (0..8).map(|_| p.acquire_for(0, 0, 100).end).collect();
        // Accepted work spreads over four servers: the eighth request
        // starts once 700 ns of work has been shared out four ways.
        assert_eq!(ends, [100, 125, 150, 175, 200, 225, 250, 275]);
        assert_eq!(p.busy_ns(), 800);
        assert_eq!(
            WorkerPool::new(0).acquire_for(0, 7, 1).start,
            7,
            "clamped to 1"
        );
    }

    #[test]
    fn a_light_tenant_starts_on_time_behind_a_heavy_backlog() {
        let fifo = WorkerPool::new(1);
        let fair = WorkerPool::weighted(1, &[8, 1]);
        for _ in 0..10 {
            fifo.acquire_for(1, 0, 100);
            fair.acquire_for(1, 0, 100);
        }
        assert_eq!(
            fifo.acquire_for(0, 50, 100).start,
            1_000,
            "FIFO: behind it all"
        );
        assert_eq!(
            fair.acquire_for(0, 50, 100).start,
            50,
            "its own tag: on time"
        );
        // The heavy tenant's next draw still queues behind everything
        // accepted, the light tenant's work included.
        assert_eq!(fair.acquire_for(1, 0, 100).start, 1_100);
        assert_eq!(fair.busy_ns(), fifo.busy_ns() + 100);
        // One weight is no sharing at all.
        let one = WorkerPool::weighted(3, &[5]);
        let plain = WorkerPool::new(3);
        for (e, d) in [(0, 70), (0, 70), (10, 5), (400, 1)] {
            assert_eq!(one.acquire_for(2, e, d), plain.acquire_for(0, e, d));
        }
    }

    #[test]
    fn concurrent_reservations_never_overlap() {
        let p = WorkerPool::new(1);
        let windows: Vec<Reservation> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..16)
                .map(|_| s.spawn(|| p.acquire_for(0, 0, 10)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut sorted = windows.clone();
        sorted.sort_by_key(|w| w.start);
        for pair in sorted.windows(2) {
            assert!(pair[0].end <= pair[1].start);
        }
        assert_eq!(p.busy_ns(), 160);
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

        /// One chunk of a generated schedule: when its data was ready, its
        /// size, and whether it begins its transaction.
        #[derive(Debug, Clone)]
        struct Step {
            earliest: Nanos,
            bytes: u64,
            first: bool,
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
                    let first = i == 0;
                    let earliest = (issue + lag).max(prev_end);
                    let res = r.transfer_chunk(earliest, bytes, first);
                    prev_end = res.end;
                    out.push((
                        Step {
                            earliest,
                            bytes,
                            first,
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
                let begun = log.iter().filter(|(s, _)| s.first).count() as u64;
                let paid = log.iter().filter(|(s, r)| s.first && !r.joined).count() as u64;
                prop_assert_eq!(r.busy_ns(), pure + paid * SETUP);
                prop_assert!(r.busy_ns() >= pure && r.busy_ns() <= pure + begun * SETUP);
                prop_assert!(paid >= 1, "the first transaction finds the device idle");
                for (step, res) in &log {
                    prop_assert!(res.start >= step.earliest, "{step:?} started early: {res:?}");
                    prop_assert!(res.joined <= step.first, "a continuation joined");
                    let setup = if step.first && !res.joined { SETUP } else { 0 };
                    prop_assert_eq!(res.busy(), bw_time_ns(step.bytes, 1000.0) + setup);
                }
                // A join needs reserved ring work still ahead of the engine
                // at the joiner's data-ready time — and, single-threaded,
                // the converse holds too: with such work ahead, a first
                // chunk always joins.
                for (i, (step, res)) in log.iter().enumerate() {
                    let running = log[..i].iter().any(|(_, r)| r.end > step.earliest);
                    if step.first {
                        prop_assert_eq!(res.joined, running, "{:?}", step);
                    }
                }
            }

            #[test]
            fn one_shot_sequences_reserve_exactly_like_transfer(
                reqs in prop::collection::vec((0u64..2_000_000, 1u64..1_000_000), 1..64),
            ) {
                let ring = BandwidthResource::new(5731.0, 25_000);
                let plain = BandwidthResource::new(5731.0, 25_000);
                for &(earliest, bytes) in &reqs {
                    prop_assert_eq!(
                        ring.transfer_with_setup(earliest, bytes, true),
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
                                    .map(|&(e, b)| ring.transfer_with_setup(e, b, true))
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
                // And they leave no ring behind them: a chunk ready in the
                // thick of all that traffic still pays its own setup.
                prop_assert!(!ring.transfer_chunk(1, 4096, true).joined);
            }

            #[test]
            fn pool_starts_on_time_when_idle_and_never_outruns_its_servers(
                k in 1usize..6,
                reqs in prop::collection::vec((0u64..50_000, 0u64..20_000), 1..64),
            ) {
                let pool = WorkerPool::new(k);
                let (mut accepted, mut last_end) = (0u64, 0u64);
                for &(earliest, dur) in &reqs {
                    let r = pool.acquire_for(0, earliest, dur);
                    prop_assert_eq!(r.busy(), dur);
                    // Unsaturated — no more accepted than k servers could
                    // have finished by `earliest` — it starts on time;
                    // otherwise when the backlog's share has drained.
                    prop_assert_eq!(r.start, earliest.max(accepted / k as u64));
                    accepted += dur;
                    last_end = last_end.max(r.end);
                    prop_assert_eq!(pool.busy_ns(), accepted);
                    prop_assert!(accepted <= k as u64 * last_end);
                }
                // A weighted pool never starts work later than FIFO would,
                // and a tenant with the pool to itself is served FIFO.
                let fair = WorkerPool::weighted(k, &[3, 1, 2]);
                let lone = WorkerPool::weighted(k, &[3, 1, 2]);
                let fifo = WorkerPool::new(k);
                for (i, &(earliest, dur)) in reqs.iter().enumerate() {
                    let plain = fifo.acquire_for(0, earliest, dur);
                    let r = fair.acquire_for(i % 3, earliest, dur);
                    prop_assert!(r.start >= earliest && r.start <= plain.start);
                    prop_assert_eq!(r.busy(), dur);
                    prop_assert_eq!(lone.acquire_for(1, earliest, dur), plain);
                }
                prop_assert_eq!(fair.busy_ns(), fifo.busy_ns());
                // k = 1 serialises: issued together, no two windows overlap.
                let one = WorkerPool::new(1);
                let mut prev_end = 0;
                for &(_, dur) in &reqs {
                    let r = one.acquire_for(0, 0, dur);
                    prop_assert_eq!(r.start, prev_end);
                    prev_end = r.end;
                }
            }
        }
    }
}

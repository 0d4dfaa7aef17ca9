//! Evaluation applications from the GPUfs paper (§5), with baselines.
//!
//! Three I/O-intensive applications, each in the variants the paper
//! compares:
//!
//! * [`matvec`] — large matrix–vector product (Figure 8): a GPUfs version
//!   that is oblivious to whether the matrix fits in GPU memory, versus
//!   the hand-written CUDA double-buffering pipelines ("naïve" 4-chunk and
//!   "optimized" 70 MB × 16-chunk).
//! * [`imgmatch`] — approximate image matching against prioritized
//!   databases (Tables 2 and 3): dynamically chooses which database pages
//!   to load based on earlier results, scaling across up to 4 GPUs, with
//!   an OpenMP-style multicore CPU baseline.
//! * [`grep`] — exact dictionary word matching, a constrained `grep -w`
//!   (Table 4): per-threadblock file loop over a source-tree-like corpus,
//!   with a "vanilla" prefetch-everything GPU baseline and a CPU baseline.
//!
//! [`cluster`] scales the image search out: the §6 distributed search
//! over a `gpufs::cluster::GpuFleet`, sharding the database files across
//! N GPUs through the fleet's work-distribution queue (static or
//! work-stealing). It, [`traffic`] and the multi-GPU image match launch
//! through `gpusim::launch_fleet`, one kernel per GPU on one clock board.
//!
//! [`traffic`] drives a fleet with synthesized production traffic —
//! Zipf-popular files, bursty arrivals, mixed tenant classes — and
//! measures each tenant's p99 request latency and the fleet's throughput,
//! the harness behind the multi-tenant dispatch/quota knobs in `gpufs`.
//!
//! Supporting modules: [`corpus`] generates the deterministic synthetic
//! datasets standing in for the paper's inputs (Linux source tree,
//! Shakespeare, image databases); [`compute`] holds the calibrated
//! compute-throughput model shared by GPU and CPU variants; [`cpu`] is the
//! modeled multicore executor; [`gpustr`] reimplements the limited GPU
//! versions of the `strtok`/`sprintf`-style helpers the paper had to
//! write for GPU code (§5.2.2).

pub mod cluster;
pub mod compute;
pub mod corpus;
pub mod cpu;
pub mod gpustr;
pub mod grep;
pub mod imgmatch;
pub mod matvec;
pub mod traffic;

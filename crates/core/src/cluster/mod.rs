//! The multi-GPU cluster layer: running N GPUfs mounts as one fleet
//! (paper §4.4 and §6).
//!
//! The paper's headline experiment is not a single GPU: the exhaustive
//! image search shards one shared file set across up to 8 GPUs, each
//! running its own buffer cache against a common host file system, kept
//! coherent by the close-to-open consistency model of §4.4. Everything
//! below this module composes *one* mount; this layer owns the fleet:
//!
//! * **[`fleet`]** — [`GpuFleet`]: N [`crate::GpuFsMount`]s over one
//!   shared [`hostfs::HostFs`] and consistency registry, each GPU with
//!   its own simulated PCIe link and buffer cache, built by a
//!   [`FleetBuilder`] that mirrors [`crate::GpufsConfig`] (per-GPU
//!   overrides of the GPU-side knobs, one shared daemon) and is
//!   validated at mount like the existing concurrency knobs.
//! * **[`sched`]** — work distribution for file-grained jobs:
//!   [`WorkQueue`] gives static sharding plus a dynamic work-stealing
//!   mode where an idle GPU steals file chunks from the slowest shard —
//!   the mechanism the paper's image search needs to balance skewed
//!   match costs across devices.
//! * **[`coherence`]** — the types of fleet-level close-to-open
//!   enforcement and stress: an audit of which GPU caches which file at
//!   which generation (via the registry snapshot), and the ops and
//!   report of a schedule that interleaves open→write→close→reopen
//!   across K GPUs and checks every reopen observes the latest closed
//!   generation.
//! * **[`hosts`]** — [`HostFleet`]: fleets of fleets. M hosts, each a
//!   [`GpuFleet`] served through a [`crate::HostProxy`] over a simulated
//!   network link, sharing one [`crate::StorageServer`] and registry;
//!   coherence ids are host-qualified so audits and schedules span
//!   hosts.
//! * **[`view`]** — [`FleetView`]: the common driver surface both fleet
//!   types implement, so workloads run unchanged over either; the audits
//!   and the schedule runner are its provided methods.

pub mod coherence;
pub mod fleet;
pub mod hosts;
pub mod sched;
pub mod view;

pub use coherence::{CoherenceOp, FileCoherence, ScheduleReport};
pub use fleet::{FleetBuilder, GpuFleet};
pub use hosts::{HostFleet, HostFleetBuilder};
pub use sched::{ShardStrategy, WorkItem, WorkQueue};
pub use view::FleetView;

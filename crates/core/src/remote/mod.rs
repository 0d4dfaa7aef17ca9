//! The cross-host storage tier: proxy/server split over a wire format.
//!
//! The paper's design puts a narrow RPC boundary between GPU file
//! clients and the host daemon (§4.3); this module extends that boundary
//! across hosts. The single-host daemon owned its `HostFs` directly —
//! here that ownership moves behind an explicit, versioned,
//! length-prefixed wire format:
//!
//! * [`proto`] — the hand-rolled frame encoding of the request/response
//!   surface (no serde; rejected-never-panicked decoding).
//! * [`StorageServer`] — sole owner of the shared [`hostfs::HostFs`] and
//!   its close-to-open consistency registry; answers each decoded frame
//!   through that file system's `Backing` implementation
//!   (`daemon/backing.rs`), the calls a local daemon worker makes.
//! * [`HostProxy`] — the per-host gateway: serializes requests, moves
//!   frames over a simulated network link (per-direction
//!   [`simtime::BandwidthResource`] + fixed RTT, the PCIe model's
//!   shape, calibrated by [`simtime::Timings::net_rtt_ns`] /
//!   [`simtime::Timings::net_mb_s`]), and keeps the [`HostPageCache`] so
//!   repeat faults across a host's GPUs never cross the network.
//! * [`client`](self) — `Backing` implemented on [`HostProxy`] (crate
//!   internal): what the daemon's one dispatch and one staged engine
//!   serve against on a proxied host — host cache, then one frame per
//!   metadata call or chunk.
//!
//! Under [`simtime::Timings::without_net`] with the host cache disabled
//! the whole tier is virtually-time-transparent: a proxy-backed daemon
//! answers a request script with the local daemon's results, completion
//! times and counters, exactly (`client`'s transcript-equality tests).

pub(crate) mod cache;
pub(crate) mod client;
pub mod proto;
pub(crate) mod proxy;
pub(crate) mod server;

pub use cache::{HostCacheStats, HostPageCache};
pub use proto::{ProtoError, WireRequest, WireResponse};
pub use proxy::{HostProxy, WireStats};
pub use server::{ServerStats, StorageServer};

//! The metrics registry: named counters and read-through probes under
//! hierarchical labels, with one cheap snapshot.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::Counter;

/// Hierarchical metric labels. Every field is optional: an aggregate
/// sheet carries none, a per-GPU sheet carries `gpu`, a daemon leaf
/// carries `gpu` + `tenant`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Labels {
    /// GPU index within a host.
    pub gpu: Option<u32>,
    /// Tenant class.
    pub tenant: Option<u32>,
}

impl Labels {
    /// No labels: the aggregate scope.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Labels for one GPU.
    #[must_use]
    pub fn gpu(gpu: u32) -> Self {
        Self {
            gpu: Some(gpu),
            ..Self::default()
        }
    }

    /// Add a tenant class.
    #[must_use]
    pub fn with_tenant(mut self, tenant: u32) -> Self {
        self.tenant = Some(tenant);
        self
    }

    /// Render as `gpu=1,tenant=2` (present fields only, always in
    /// hierarchy order — the stable snapshot key).
    #[must_use]
    pub fn render(&self) -> String {
        let mut parts = Vec::new();
        if let Some(g) = self.gpu {
            parts.push(format!("gpu={g}"));
        }
        if let Some(t) = self.tenant {
            parts.push(format!("tenant={t}"));
        }
        parts.join(",")
    }
}

/// A value some other component already keeps (a device's accepted busy
/// time, say), read through at snapshot time rather than mirrored into a
/// counter that could drift from it.
#[derive(Clone)]
struct Probe(Arc<dyn Fn() -> u64 + Send + Sync>);

impl std::fmt::Debug for Probe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Probe")
    }
}

/// One typed home for a subsystem's metrics. Counters registered here
/// are the same `Arc`-backed cells the owning structs hold — the
/// registry adds names and labels, it never forks the value.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<Vec<(&'static str, Labels, Counter)>>,
    probes: Mutex<Vec<(&'static str, Labels, Probe)>>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Mint and register a fresh leaf counter.
    pub fn counter(&self, name: &'static str, labels: Labels) -> Counter {
        let c = Counter::new();
        self.register(name, labels, &c);
        c
    }

    /// Register an existing counter (leaf or view) under `name`/`labels`.
    pub fn register(&self, name: &'static str, labels: Labels, counter: &Counter) {
        self.counters.lock().push((name, labels, counter.clone()));
    }

    /// Publish a value owned elsewhere: `read` is called at every
    /// snapshot. It must be cheap and must not touch this registry.
    pub fn probe(
        &self,
        name: &'static str,
        labels: Labels,
        read: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        self.probes
            .lock()
            .push((name, labels, Probe(Arc::new(read))));
    }

    /// Every registered counter, then every probe, as a
    /// `(name{labels}, value)` row, each in registration order.
    #[must_use]
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        let mut rows: Vec<(String, u64)> = self
            .counters
            .lock()
            .iter()
            .map(|(name, labels, c)| (keyed(name, labels), c.get()))
            .collect();
        // Cloned out so no probe runs under the registry's lock.
        let probes = self.probes.lock().clone();
        rows.extend(
            probes
                .iter()
                .map(|(name, labels, p)| (keyed(name, labels), (p.0)())),
        );
        rows
    }
}

fn keyed(name: &str, labels: &Labels) -> String {
    let l = labels.render();
    if l.is_empty() {
        name.to_owned()
    } else {
        format!("{name}{{{l}}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_keys_and_values() {
        let r = Registry::new();
        let a = r.counter("requests", Labels::gpu(1).with_tenant(2));
        let agg = Counter::sum([&a]);
        r.register("requests", Labels::none(), &agg);
        a.add(7);
        let snap = r.snapshot();
        assert_eq!(
            snap,
            vec![
                ("requests{gpu=1,tenant=2}".to_owned(), 7),
                ("requests".to_owned(), 7),
            ]
        );
    }

    #[test]
    fn probes_read_through_at_snapshot_time() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let r = Registry::new();
        let c = r.counter("requests", Labels::none());
        let device = Arc::new(AtomicU64::new(5));
        let seen = Arc::clone(&device);
        r.probe("busy_ns", Labels::gpu(0), move || {
            seen.load(Ordering::Relaxed)
        });
        c.incr();
        device.store(9, Ordering::Relaxed);
        assert_eq!(
            r.snapshot(),
            vec![("requests".to_owned(), 1), ("busy_ns{gpu=0}".to_owned(), 9),]
        );
    }

    #[test]
    fn labels_render_in_hierarchy_order() {
        let l = Labels::gpu(4).with_tenant(9);
        assert_eq!(l.render(), "gpu=4,tenant=9");
        assert_eq!(Labels::none().render(), "");
    }
}

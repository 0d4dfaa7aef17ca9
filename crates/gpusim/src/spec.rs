//! GPU hardware descriptions.

/// Static description of one GPU's hardware resources.
///
/// The defaults mirror the paper's NVIDIA TESLA C2075 (Fermi): 14
/// multiprocessors, 32-wide warps, 6 GB of GDDR5. Tests and scaled-down
/// benchmarks use [`GpuSpec::small_test`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GpuSpec {
    /// Human-readable device name.
    pub name: String,
    /// Number of multiprocessors (MPs). The C2075 has 14.
    pub num_mps: usize,
    /// Threads per warp; 32 on all NVIDIA hardware.
    pub warp_size: usize,
    /// How many threadblocks one MP keeps resident concurrently. The
    /// paper's experiments launch `2 × active MPs` blocks, i.e. 2.
    pub resident_blocks_per_mp: usize,
    /// Global device memory in bytes.
    pub memory_bytes: usize,
    /// Per-block scratchpad ("shared") memory in bytes; 48 KB on Fermi.
    pub scratchpad_bytes: usize,
}

impl GpuSpec {
    /// The paper's TESLA C2075: 14 MPs, 6 GB GDDR5, 48 KB scratchpad.
    #[must_use]
    pub fn tesla_c2075() -> Self {
        Self {
            name: "TESLA C2075 (simulated)".to_owned(),
            num_mps: 14,
            warp_size: 32,
            resident_blocks_per_mp: 2,
            memory_bytes: 6 << 30,
            scratchpad_bytes: 48 << 10,
        }
    }

    /// A small device for unit tests: 4 MPs, 64 MB memory.
    #[must_use]
    pub fn small_test() -> Self {
        Self {
            name: "test GPU".to_owned(),
            num_mps: 4,
            warp_size: 32,
            resident_blocks_per_mp: 2,
            memory_bytes: 64 << 20,
            scratchpad_bytes: 48 << 10,
        }
    }

    /// Number of threadblocks that can execute simultaneously:
    /// `num_mps * resident_blocks_per_mp`. This bounds the simulator's
    /// worker-thread pool, exactly as MP slots bound real concurrency.
    #[must_use]
    pub fn concurrent_blocks(&self) -> usize {
        self.num_mps * self.resident_blocks_per_mp
    }
}

impl Default for GpuSpec {
    fn default() -> Self {
        Self::tesla_c2075()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn c2075_matches_paper() {
        let spec = GpuSpec::tesla_c2075();
        assert_eq!(spec.num_mps, 14);
        assert_eq!(spec.warp_size, 32);
        assert_eq!(spec.memory_bytes, 6 << 30);
        // The paper launches 28 blocks = "twice the number of active MPs".
        assert_eq!(spec.concurrent_blocks(), 28);
    }
}

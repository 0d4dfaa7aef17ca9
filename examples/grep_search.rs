//! Exact string search over a source-tree-like corpus (paper §5.2.2).
//!
//! Generates a synthetic many-small-files corpus and a 32-byte-aligned
//! dictionary, then runs the paper's three implementations — GPUfs,
//! vanilla GPU (prefetch everything), and an 8-core CPU baseline — and
//! prints their virtual times and agreement.
//!
//! Write-path audit: the GPUfs kernel buffers formatted matches
//! per-block and flushes them with `gwrite` into the shared `O_GWRONCE`
//! output file, syncing with **one `gfsync` per block at the very end**
//! — never a per-region `gmsync` — so batched write-back gathers each
//! block's dirty output pages into capped `WritePages` round-trips.
//! Measured here (4 MB corpus, ~2.5 MB of formatted output, 64 KB
//! pages, default batch): **68 dirty output pages ship in 28 write
//! RPCs** — one batch per flushing block — where per-page write-back
//! (one RPC a page, the old behaviour) would issue all 68.
//! The example prints the live counters so the ratio stays visible.
//!
//! Run with: `cargo run --release --example grep_search`

use std::sync::Arc;

use gpufs::{GpufsConfig, GpufsHost};
use gpusim::{Gpu, GpuSpec, Grid};
use hostfs::{HostFs, HostFsConfig};
use workloads::corpus::{gen_text_corpus, TextCorpusConfig};
use workloads::grep::{grep_cpu, grep_gpufs, grep_vanilla_gpu};

fn main() {
    let fs = Arc::new(HostFs::new(HostFsConfig::default()));
    let corpus = gen_text_corpus(
        &fs,
        &TextCorpusConfig {
            dir: "/src-tree".into(),
            n_files: 400,
            total_bytes: 4 << 20,
            vocab_size: 5_000,
            dict_words: 2_000,
            seed: 2024,
        },
    );
    println!(
        "corpus: {} files, {} bytes; dictionary: {} words",
        corpus.files.len(),
        corpus.total_bytes,
        corpus.dict_words.len()
    );

    let gpu = Arc::new(Gpu::new(0, GpuSpec::tesla_c2075_scaled(32)));
    let host = GpufsHost::new(Arc::clone(&fs), vec![Arc::clone(&gpu)]);
    let mount = host
        .mount(0, GpufsConfig::new(64 << 10, 64 << 20))
        .expect("mount");

    let g = grep_gpufs(
        &mount,
        &gpu,
        &corpus.file_list_path,
        &corpus.dict_path,
        "/matches.txt",
    )
    .expect("gpufs grep");
    let v = grep_vanilla_gpu(&fs, &gpu, &corpus.file_list_path, &corpus.dict_path)
        .expect("vanilla grep");
    let c = grep_cpu(&fs, 8, &corpus.file_list_path, &corpus.dict_path).expect("cpu grep");

    assert_eq!(g.word_totals, c.word_totals, "GPU and CPU must agree");
    assert_eq!(g.word_totals, v.word_totals, "vanilla must agree");
    println!(
        "GPUfs:   {:>8.2} ms, {} (word,file) matches, {} bytes of output",
        g.elapsed as f64 / 1e6,
        g.match_records,
        g.output_bytes
    );
    println!("vanilla: {:>8.2} ms", v.elapsed as f64 / 1e6);
    println!("CPU x8:  {:>8.2} ms", c.elapsed as f64 / 1e6);
    println!(
        "write-back: {} dirty pages shipped in {} WritePages RPC(s) \
         (per-page write-back would have issued {})",
        mount.counters().pages_per_write_rpc.get(),
        mount.counters().write_rpcs.get(),
        mount.counters().writebacks.get(),
    );

    // The formatted output really is in the host file system.
    let (out, _) = fs.read_whole("/matches.txt", 0).expect("output exists");
    let first = String::from_utf8_lossy(&out);
    println!(
        "first output line: {}",
        first.lines().next().unwrap_or("<empty>")
    );

    // Keep the kernel-launch plumbing visible: this is all the CPU code a
    // GPUfs application actually needs.
    let _ = Grid::new(1, 1);
}

//! Exact string matching in text files — a constrained `grep -w`
//! (paper §5.2.2, Table 4).
//!
//! Given a 32-byte-aligned dictionary and a list of text files, count how
//! many times and in which files each dictionary word appears. Three
//! implementations:
//!
//! * [`grep_gpufs`] — threadblocks pull files from a shared work list,
//!   `gopen`/`gread`/`gclose` each one (the many-small-files case puts
//!   "extremely high pressure" on GPUfs), match, and flush formatted
//!   results from a per-block buffer into a shared `O_GWRONCE` output
//!   file, coordinating offsets with an explicit shared seek pointer as
//!   the paper describes.
//! * [`grep_vanilla_gpu`] — the non-GPUfs baseline: the CPU prefetches
//!   every input into one big buffer, ships it across PCIe once, and the
//!   kernel writes matches to a pre-allocated GPU output buffer that the
//!   CPU post-processes. Conservatively assumes everything fits in GPU
//!   memory, as the paper notes.
//! * [`grep_cpu`] — the 8-core OpenMP-style baseline.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gpufs::{GOpenMode, GpuFsMount, GpufsResult};
use gpusim::{Gpu, Grid};
use hostfs::HostFs;
use parking_lot::Mutex;
use simtime::Nanos;

use crate::compute::MatchModel;
use crate::corpus::parse_dictionary;
use crate::cpu::CpuExecutor;
use crate::gpustr::{format_match_line, WordTokenizer};

/// Per-threadblock output buffer size; flushed to the output file when a
/// formatted line no longer fits.
const BLOCK_OUT_BUF: usize = 16 << 10;

/// Outcome of one grep run.
#[derive(Debug, Clone)]
pub struct GrepResult {
    /// Virtual elapsed time.
    pub elapsed: Nanos,
    /// Total `(word, file)` matches found.
    pub match_records: u64,
    /// Total occurrences across all words and files.
    pub total_occurrences: u64,
    /// Occurrences per dictionary word, summed over files (used to check
    /// implementations against each other).
    pub word_totals: HashMap<Vec<u8>, u64>,
    /// Bytes of formatted output produced (GPUfs version only).
    pub output_bytes: u64,
}

/// Count the occurrences of each dictionary word in `text`.
/// `dict` must be sorted for binary search.
fn count_matches(text: &[u8], dict: &[Vec<u8>]) -> HashMap<usize, u64> {
    let mut counts: HashMap<usize, u64> = HashMap::new();
    for word in WordTokenizer::new(text) {
        if let Ok(i) = dict.binary_search_by(|d| d.as_slice().cmp(word)) {
            *counts.entry(i).or_insert(0) += 1;
        }
    }
    counts
}

fn merge_result(
    word_totals: &Mutex<HashMap<Vec<u8>, u64>>,
    dict: &[Vec<u8>],
    counts: &HashMap<usize, u64>,
) {
    let mut totals = word_totals.lock();
    for (&w, &c) in counts {
        *totals.entry(dict[w].clone()).or_insert(0) += c;
    }
}

/// The GPUfs implementation (see module docs).
///
/// # Errors
///
/// Propagates GPUfs errors raised inside the kernel.
pub fn grep_gpufs(
    mount: &Arc<GpuFsMount>,
    gpu: &Arc<Gpu>,
    file_list_path: &str,
    dict_path: &str,
    out_path: &str,
) -> GpufsResult<GrepResult> {
    let model = MatchModel::grep();
    // "Application threads can maintain their own explicit seek pointers
    // if required, as we demonstrate in our experiments" (§3.2): blocks
    // reserve output ranges from a shared atomic offset.
    let out_cursor = AtomicU64::new(0);
    let match_records = AtomicU64::new(0);
    let total_occurrences = AtomicU64::new(0);
    let word_totals: Mutex<HashMap<Vec<u8>, u64>> = Mutex::new(HashMap::new());

    let blocks = gpu.spec().concurrent_blocks();
    let result = gpu.try_launch(Grid::new(blocks, 512), 0, |blk| -> GpufsResult<()> {
        // Read the file list and the dictionary through GPUfs; both
        // are cached after the first block pulls them.
        let fd_list = mount.open(blk, file_list_path, GOpenMode::ReadOnly)?;
        let list_size = mount.fstat(blk, &fd_list).size as usize;
        let mut list_bytes = vec![0u8; list_size];
        mount.read(blk, &fd_list, 0, &mut list_bytes)?;
        mount.close(blk, fd_list)?;
        let files: Vec<&str> = std::str::from_utf8(&list_bytes)
            .expect("file list is utf-8")
            .lines()
            .collect();

        let fd_dict = mount.open(blk, dict_path, GOpenMode::ReadOnly)?;
        let dict_size = mount.fstat(blk, &fd_dict).size as usize;
        let mut dict_bytes = vec![0u8; dict_size];
        mount.read(blk, &fd_dict, 0, &mut dict_bytes)?;
        mount.close(blk, fd_dict)?;
        let dict = parse_dictionary(&dict_bytes);
        debug_assert!(dict.windows(2).all(|w| w[0] <= w[1]), "dictionary sorted");

        let fd_out = mount.open(blk, out_path, GOpenMode::WriteOnce)?;
        let mut out_buf = vec![0u8; BLOCK_OUT_BUF];
        let mut out_len = 0usize;

        // Work split: with many files, blocks stride over the file
        // list, each matching the whole dictionary. With fewer files
        // than blocks (the Shakespeare case), every block scans every
        // file but only its shard of the dictionary — the paper's
        // one-word-per-thread parallelization.
        let nb = blk.grid().blocks;
        let (my_files, my_dict): (Vec<usize>, &[Vec<u8>]) = if files.len() >= nb {
            (
                (blk.block_id()..files.len()).step_by(nb).collect(),
                &dict[..],
            )
        } else {
            let span = dict.len().div_ceil(nb);
            let d0 = (blk.block_id() * span).min(dict.len());
            let d1 = (d0 + span).min(dict.len());
            ((0..files.len()).collect(), &dict[d0..d1])
        };
        for i in my_files {
            let fd = mount.open(blk, files[i], GOpenMode::ReadOnly)?;
            let size = mount.fstat(blk, &fd).size as usize;
            let mut text = vec![0u8; size];
            let n = mount.read(blk, &fd, 0, &mut text)?;
            debug_assert_eq!(n, size);
            // Matching cost: text bytes x this block's dictionary
            // words, at the block's share of the GPU rate.
            blk.advance(model.gpu_block_time(
                size as u64,
                my_dict.len() as u64,
                nb.min(blk.gpu().spec().concurrent_blocks()),
            ));
            let counts = count_matches(&text, my_dict);
            for (&w, &c) in &counts {
                match_records.fetch_add(1, Ordering::Relaxed);
                total_occurrences.fetch_add(c, Ordering::Relaxed);
                loop {
                    if let Some(len) = format_match_line(
                        &mut out_buf[out_len..],
                        &my_dict[w],
                        files[i].as_bytes(),
                        c,
                    ) {
                        out_len += len;
                        break;
                    }
                    // Buffer full: flush to a freshly reserved range.
                    let off = out_cursor.fetch_add(out_len as u64, Ordering::Relaxed);
                    mount.write(blk, &fd_out, off, &out_buf[..out_len])?;
                    out_len = 0;
                }
            }
            merge_result(&word_totals, my_dict, &counts);
            mount.close(blk, fd)?;
        }
        if out_len > 0 {
            let off = out_cursor.fetch_add(out_len as u64, Ordering::Relaxed);
            mount.write(blk, &fd_out, off, &out_buf[..out_len])?;
        }
        mount.fsync(blk, &fd_out)?;
        mount.close(blk, fd_out)
    })?;
    Ok(GrepResult {
        elapsed: result.elapsed(),
        match_records: match_records.load(Ordering::Relaxed),
        total_occurrences: total_occurrences.load(Ordering::Relaxed),
        word_totals: word_totals.into_inner(),
        output_bytes: out_cursor.load(Ordering::Relaxed),
    })
}

/// The non-GPUfs GPU baseline: prefetch everything, one transfer, one
/// kernel, post-process on the CPU.
///
/// # Errors
///
/// Propagates host file-system errors.
pub fn grep_vanilla_gpu(
    fs: &HostFs,
    gpu: &Arc<Gpu>,
    file_list_path: &str,
    dict_path: &str,
) -> Result<GrepResult, hostfs::FsError> {
    let model = MatchModel::grep();
    let mut cpu = simtime::Clock::new();

    // Phase 1 (CPU): prefetch all inputs into one big buffer.
    let (list_bytes, t) = fs.read_whole(file_list_path, cpu.now())?;
    cpu.wait_until(t);
    let files: Vec<String> = std::str::from_utf8(&list_bytes)
        .expect("file list is utf-8")
        .lines()
        .map(str::to_owned)
        .collect();
    let (dict_bytes, t) = fs.read_whole(dict_path, cpu.now())?;
    cpu.wait_until(t);
    let dict = parse_dictionary(&dict_bytes);

    let mut texts: Vec<Vec<u8>> = Vec::with_capacity(files.len());
    let mut total_bytes = 0u64;
    for f in &files {
        let (bytes, t) = fs.read_whole(f, cpu.now())?;
        cpu.wait_until(t);
        total_bytes += bytes.len() as u64;
        texts.push(bytes);
    }

    // Phase 2: one bulk PCIe transfer of inputs + dictionary.
    let xfer = gpu
        .dma()
        .h2d()
        .transfer(cpu.now(), total_bytes + dict_bytes.len() as u64);

    // Phase 3 (GPU kernel): blocks split files (or, with few files, the
    // dictionary); kernel time is the slowest block's matching work at
    // the per-block share of the GPU rate.
    let blocks = gpu.spec().concurrent_blocks();
    let kernel_time = if texts.len() >= blocks {
        let mut block_bytes = vec![0u64; blocks];
        for (i, t) in texts.iter().enumerate() {
            block_bytes[i % blocks] += t.len() as u64;
        }
        block_bytes
            .iter()
            .map(|&b| model.gpu_block_time(b, dict.len() as u64, blocks))
            .max()
            .unwrap_or(0)
    } else {
        let span = dict.len().div_ceil(blocks) as u64;
        model.gpu_block_time(total_bytes, span, blocks)
    };
    let kernel_end = xfer.end + gpu.timings().kernel_launch_ns + kernel_time;

    // Real matching for result correctness.
    let mut match_records = 0u64;
    let mut total_occurrences = 0u64;
    let mut word_totals: HashMap<Vec<u8>, u64> = HashMap::new();
    let mut out_volume = 0u64;
    for text in &texts {
        let counts = count_matches(text, &dict);
        for (&w, &c) in &counts {
            match_records += 1;
            total_occurrences += c;
            out_volume += dict[w].len() as u64 + 24;
            *word_totals.entry(dict[w].clone()).or_insert(0) += c;
        }
    }

    // Phase 4: results come back and the CPU formats them
    // (post-processing, outside the kernel in the vanilla version).
    let back = gpu.dma().d2h().transfer(kernel_end, out_volume.max(1));
    let end = back.end;

    Ok(GrepResult {
        elapsed: end,
        match_records,
        total_occurrences,
        word_totals,
        output_bytes: out_volume,
    })
}

/// The multicore CPU baseline: cores pull files from a shared cursor,
/// prefetch and match.
///
/// # Errors
///
/// Propagates host file-system errors.
pub fn grep_cpu(
    fs: &HostFs,
    cores: usize,
    file_list_path: &str,
    dict_path: &str,
) -> Result<GrepResult, hostfs::FsError> {
    let model = MatchModel::grep();
    let (list_bytes, _) = fs.read_whole(file_list_path, 0)?;
    let files: Vec<String> = std::str::from_utf8(&list_bytes)
        .expect("file list is utf-8")
        .lines()
        .map(str::to_owned)
        .collect();
    let (dict_bytes, _) = fs.read_whole(dict_path, 0)?;
    let dict = parse_dictionary(&dict_bytes);

    let cpu = CpuExecutor::new(cores);
    let match_records = AtomicU64::new(0);
    let total_occurrences = AtomicU64::new(0);
    let word_totals: Mutex<HashMap<Vec<u8>, u64>> = Mutex::new(HashMap::new());
    let err: Mutex<Option<hostfs::FsError>> = Mutex::new(None);

    let end = cpu.parallel(0, |core| {
        let mut work = || -> Result<(), hostfs::FsError> {
            // Same split as the GPU version: stride files across cores,
            // or shard the dictionary when files are scarce.
            let (my_files, my_dict): (Vec<usize>, &[Vec<u8>]) = if files.len() >= cores {
                (
                    (core.core_id()..files.len()).step_by(cores).collect(),
                    &dict[..],
                )
            } else {
                let span = dict.len().div_ceil(cores);
                let d0 = (core.core_id() * span).min(dict.len());
                let d1 = (d0 + span).min(dict.len());
                ((0..files.len()).collect(), &dict[d0..d1])
            };
            for i in my_files {
                let (text, t) = fs.read_whole(&files[i], core.now())?;
                core.wait_until(t);
                core.advance(model.cpu_core_time(text.len() as u64, my_dict.len() as u64));
                let counts = count_matches(&text, my_dict);
                for &c in counts.values() {
                    match_records.fetch_add(1, Ordering::Relaxed);
                    total_occurrences.fetch_add(c, Ordering::Relaxed);
                }
                merge_result(&word_totals, my_dict, &counts);
            }
            Ok(())
        };
        if let Err(e) = work() {
            err.lock().get_or_insert(e);
        }
    });
    if let Some(e) = err.into_inner() {
        return Err(e);
    }
    Ok(GrepResult {
        elapsed: end,
        match_records: match_records.load(Ordering::Relaxed),
        total_occurrences: total_occurrences.load(Ordering::Relaxed),
        word_totals: word_totals.into_inner(),
        output_bytes: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{gen_text_corpus, TextCorpusConfig};
    use gpufs::{GpufsConfig, GpufsHost};
    use gpusim::GpuSpec;
    use hostfs::HostFsConfig;

    fn rig() -> (Arc<HostFs>, GpufsHost, Arc<Gpu>, crate::corpus::TextCorpus) {
        let fs = Arc::new(HostFs::new(HostFsConfig::default()));
        let corpus = gen_text_corpus(
            &fs,
            &TextCorpusConfig {
                dir: "/corpus".into(),
                n_files: 30,
                total_bytes: 48 << 10,
                vocab_size: 300,
                dict_words: 80,
                seed: 5,
            },
        );
        let gpu = Arc::new(Gpu::new(0, GpuSpec::small_test()));
        let host = GpufsHost::new(Arc::clone(&fs), vec![Arc::clone(&gpu)]);
        (fs, host, gpu, corpus)
    }

    #[test]
    fn gpufs_and_cpu_find_identical_counts() {
        let (fs, host, gpu, corpus) = rig();
        let mount = host.mount(0, GpufsConfig::new(4 << 10, 2 << 20)).unwrap();
        let g = grep_gpufs(
            &mount,
            &gpu,
            &corpus.file_list_path,
            &corpus.dict_path,
            "/out",
        )
        .unwrap();
        let c = grep_cpu(&fs, 8, &corpus.file_list_path, &corpus.dict_path).unwrap();
        assert_eq!(g.word_totals, c.word_totals);
        assert_eq!(g.total_occurrences, c.total_occurrences);
        assert!(
            g.total_occurrences > 0,
            "corpus must contain dictionary words"
        );
    }

    #[test]
    fn vanilla_gpu_agrees_too() {
        let (fs, host, gpu, corpus) = rig();
        let mount = host.mount(0, GpufsConfig::new(4 << 10, 2 << 20)).unwrap();
        let g = grep_gpufs(
            &mount,
            &gpu,
            &corpus.file_list_path,
            &corpus.dict_path,
            "/out",
        )
        .unwrap();
        let v = grep_vanilla_gpu(&fs, &gpu, &corpus.file_list_path, &corpus.dict_path).unwrap();
        assert_eq!(g.word_totals, v.word_totals);
    }

    #[test]
    fn output_file_contains_formatted_lines() {
        let (fs, host, gpu, corpus) = rig();
        let mount = host.mount(0, GpufsConfig::new(4 << 10, 2 << 20)).unwrap();
        let g = grep_gpufs(
            &mount,
            &gpu,
            &corpus.file_list_path,
            &corpus.dict_path,
            "/out",
        )
        .unwrap();
        assert!(g.output_bytes > 0);
        let (out, _) = fs.read_whole("/out", 0).unwrap();
        assert_eq!(out.len() as u64, g.output_bytes);
        let text = String::from_utf8(out).unwrap();
        let mut lines = 0u64;
        for line in text.lines() {
            if line.is_empty() {
                continue;
            }
            let parts: Vec<&str> = line.split(' ').collect();
            assert_eq!(parts.len(), 3, "line format 'word file count': {line}");
            assert!(parts[1].starts_with('/'));
            assert!(parts[2].parse::<u64>().is_ok());
            lines += 1;
        }
        assert_eq!(lines, g.match_records);
    }

    #[test]
    fn absent_words_never_match() {
        let (fs, _host, _gpu, corpus) = rig();
        let c = grep_cpu(&fs, 4, &corpus.file_list_path, &corpus.dict_path).unwrap();
        for w in c.word_totals.keys() {
            assert!(
                !String::from_utf8_lossy(w).contains("absent"),
                "planted-absent word matched: {:?}",
                String::from_utf8_lossy(w)
            );
        }
    }
}

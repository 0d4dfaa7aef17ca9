//! Byte diffs for write-back (paper §3.1).
//!
//! GPUfs must "determine which specific portions of a given page were
//! modified on a given GPU when propagating those modifications to the
//! host, to avoid accidentally reverting other portions of the same page
//! that have been modified concurrently by other GPUs." For read-write
//! files that means diffing the working copy against a pristine copy
//! preserved at first read; for `O_GWRONCE` files the pristine copy is
//! implicitly all zeros and the diff degenerates to a scan for nonzero
//! runs.
//!
//! Both scans run over a page eight bytes at a time: the XOR of the two
//! copies' words (or the working copy's word alone, against zeros) has a
//! nonzero byte exactly where a byte was modified. Outside a run a word
//! with no modified byte is passed over, inside one a word with no clean
//! byte is; only a word that holds a run boundary, and the last
//! `len % 8` bytes, are looked at byte by byte. The byte-at-a-time scan
//! it replaces is kept in the tests as the reference, with identical
//! extents and merge-gap semantics.

/// Byte extents `(offset, len)` within one page.
pub type Extents = Vec<(u32, u32)>;

/// Extents where `working` differs from `pristine`. Runs separated by
/// fewer than `merge_gap` identical bytes are merged, trading a few
/// redundant bytes on the wire for fewer host `pwrite`s.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[must_use]
pub fn diff_extents(working: &[u8], pristine: &[u8], merge_gap: usize) -> Extents {
    assert_eq!(
        working.len(),
        pristine.len(),
        "diff requires equal-length copies"
    );
    let (w, w_tail) = working.as_chunks::<8>();
    let (p, p_tail) = pristine.as_chunks::<8>();
    let p = &p[..w.len()];
    walk(
        merge_gap,
        w.len(),
        |i| u64::from_le_bytes(w[i]) ^ u64::from_le_bytes(p[i]),
        w_tail.iter().zip(p_tail).map(|(w, p)| w ^ p),
    )
}

/// Extents of nonzero bytes — the "diff against zeros" of write-once
/// pages. A genuinely written zero byte is indistinguishable from an
/// untouched byte, which is exactly the `O_GWRONCE` contract ("if data is
/// overwritten, partial updates may occur").
#[must_use]
pub fn nonzero_extents(working: &[u8], merge_gap: usize) -> Extents {
    let (w, tail) = working.as_chunks::<8>();
    walk(
        merge_gap,
        w.len(),
        |i| u64::from_le_bytes(w[i]),
        tail.iter().copied(),
    )
}

/// The runs of modified bytes of a page given as its `words` aligned
/// 8-byte words (`word(i)`), then its last `len % 8` bytes, where a
/// nonzero byte is a modified one. Words that cannot end or start a run —
/// all clean outside a run, all modified inside one — are passed over
/// whole, four at a time where they can be; only a word that holds a run
/// boundary is walked byte by byte.
fn walk(
    merge_gap: usize,
    words: usize,
    word: impl Fn(usize) -> u64,
    tail: impl Iterator<Item = u8>,
) -> Extents {
    let mut runs = Runs {
        out: Vec::new(),
        start: None,
        merge_gap,
    };
    let mut i = 0;
    while i < words {
        if runs.start.is_none() {
            // Only a modified byte can start a run.
            while i + 4 <= words && (word(i) | word(i + 1) | word(i + 2) | word(i + 3)) == 0 {
                i += 4;
            }
            while i < words && word(i) == 0 {
                i += 1;
            }
        } else {
            // Only a clean byte can end one.
            while i + 4 <= words
                && (zero_bytes(word(i))
                    | zero_bytes(word(i + 1))
                    | zero_bytes(word(i + 2))
                    | zero_bytes(word(i + 3)))
                    == 0
            {
                i += 4;
            }
            while i < words && zero_bytes(word(i)) == 0 {
                i += 1;
            }
        }
        if i < words {
            let w = word(i);
            for b in 0..8 {
                runs.step(8 * i + b, (w >> (8 * b)) as u8 != 0);
            }
            i += 1;
        }
    }
    let mut pos = 8 * words;
    for byte in tail {
        runs.step(pos, byte != 0);
        pos += 1;
    }
    runs.finish(pos)
}

/// Nonzero exactly when some byte of `word` is zero (the borrow of
/// `word - 0x01…01` reaches a byte's high bit through a zero byte first).
fn zero_bytes(word: u64) -> u64 {
    const LOW: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    word.wrapping_sub(LOW) & !word & HIGH
}

/// The extents found so far and the run still open, if any.
struct Runs {
    out: Extents,
    start: Option<usize>,
    merge_gap: usize,
}

impl Runs {
    fn step(&mut self, i: usize, modified: bool) {
        match (modified, self.start) {
            (true, None) => self.start = Some(i),
            (false, Some(start)) => {
                push_or_merge(&mut self.out, start, i - start, self.merge_gap);
                self.start = None;
            }
            _ => {}
        }
    }

    fn finish(mut self, len: usize) -> Extents {
        if let Some(start) = self.start {
            push_or_merge(&mut self.out, start, len - start, self.merge_gap);
        }
        self.out
    }
}

/// The byte-at-a-time scan [`walk`] replaces, kept as its reference.
#[cfg(test)]
fn extents_where(len: usize, merge_gap: usize, modified: impl Fn(usize) -> bool) -> Extents {
    let mut out: Extents = Vec::new();
    let mut run_start: Option<usize> = None;
    for i in 0..len {
        match (modified(i), run_start) {
            (true, None) => run_start = Some(i),
            (false, Some(start)) => {
                push_or_merge(&mut out, start, i - start, merge_gap);
                run_start = None;
            }
            _ => {}
        }
    }
    if let Some(start) = run_start {
        push_or_merge(&mut out, start, len - start, merge_gap);
    }
    out
}

fn push_or_merge(out: &mut Extents, start: usize, len: usize, merge_gap: usize) {
    if let Some(&mut (ref mut last_off, ref mut last_len)) = out.last_mut() {
        let last_end = *last_off as usize + *last_len as usize;
        if start - last_end <= merge_gap {
            *last_len = (start + len - *last_off as usize) as u32;
            return;
        }
    }
    out.push((start as u32, len as u32));
}

/// Total bytes covered by `extents`.
#[must_use]
pub fn extent_bytes(extents: &[(u32, u32)]) -> u64 {
    extents.iter().map(|&(_, l)| u64::from(l)).sum()
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn identical_pages_diff_to_nothing() {
        let a = [7u8; 64];
        assert!(diff_extents(&a, &a, 0).is_empty());
    }

    #[test]
    fn single_byte_change() {
        let pristine = [0u8; 16];
        let mut working = pristine;
        working[5] = 1;
        assert_eq!(diff_extents(&working, &pristine, 0), vec![(5, 1)]);
    }

    #[test]
    fn disjoint_runs_stay_disjoint_without_merging() {
        let pristine = [0u8; 32];
        let mut working = pristine;
        working[2] = 1;
        working[3] = 1;
        working[20] = 1;
        assert_eq!(diff_extents(&working, &pristine, 0), vec![(2, 2), (20, 1)]);
    }

    #[test]
    fn small_gaps_merge() {
        let pristine = [0u8; 32];
        let mut working = pristine;
        working[2] = 1;
        working[6] = 1; // gap of 3 clean bytes
        assert_eq!(diff_extents(&working, &pristine, 4), vec![(2, 5)]);
        assert_eq!(diff_extents(&working, &pristine, 2), vec![(2, 1), (6, 1)]);
    }

    #[test]
    fn run_reaching_end_is_closed() {
        let pristine = [0u8; 8];
        let mut working = pristine;
        working[6] = 1;
        working[7] = 1;
        assert_eq!(diff_extents(&working, &pristine, 0), vec![(6, 2)]);
    }

    #[test]
    fn nonzero_extents_ignore_written_zeros() {
        let mut page = [0u8; 16];
        page[1] = 5;
        page[2] = 0; // "written" zero: invisible, per O_GWRONCE semantics
        page[3] = 5;
        assert_eq!(nonzero_extents(&page, 0), vec![(1, 1), (3, 1)]);
        assert_eq!(nonzero_extents(&page, 1), vec![(1, 3)]);
    }

    #[test]
    fn empty_input_yields_no_extents() {
        assert!(nonzero_extents(&[], 8).is_empty());
        assert!(diff_extents(&[], &[], 8).is_empty());
    }

    #[test]
    fn extent_bytes_sums_lengths() {
        assert_eq!(extent_bytes(&[(0, 4), (10, 6)]), 10);
        assert_eq!(extent_bytes(&[]), 0);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn mismatched_lengths_panic() {
        let _ = diff_extents(&[0], &[0, 1], 0);
    }

    /// The merge gaps the word walk must agree on: either side of a word,
    /// and what write-back uses.
    const GAPS: [usize; 6] = [0, 1, 7, 8, 9, super::super::writeback::DIFF_MERGE_GAP];

    /// Both public scans against the byte-at-a-time reference.
    fn agree_with_reference(working: &[u8], pristine: &[u8], gap: usize) -> Result<(), String> {
        let n = working.len();
        let want = extents_where(n, gap, |i| working[i] != pristine[i]);
        let got = diff_extents(working, pristine, gap);
        if got != want {
            return Err(format!("diff_extents gap {gap}: {got:?} != {want:?}"));
        }
        for page in [working, pristine] {
            let want = extents_where(n, gap, |i| page[i] != 0);
            let got = nonzero_extents(page, gap);
            if got != want {
                return Err(format!("nonzero_extents gap {gap}: {got:?} != {want:?}"));
            }
        }
        Ok(())
    }

    #[test]
    fn every_short_run_agrees_with_the_reference() {
        for gap in GAPS {
            agree_with_reference(&[], &[], gap).unwrap();
        }
        // One run of every start and length in a 33-byte page (four words
        // and a one-byte tail), over zeros and over a nonzero background.
        for background in [0u8, 0x5a] {
            let pristine = [background; 33];
            for start in 0..33 {
                for len in 0..=33 - start {
                    let mut working = pristine;
                    for b in &mut working[start..start + len] {
                        *b ^= 0x81;
                    }
                    for gap in GAPS {
                        agree_with_reference(&working, &pristine, gap).unwrap();
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn word_walk_agrees_with_the_byte_walk(
            pristine in proptest::collection::vec(any::<u8>(), 0..300),
            runs in proptest::collection::vec((0usize..40, 0usize..3, 0usize..24, any::<u8>()), 0..6),
            gap in 0usize..GAPS.len()
        ) {
            // Runs start one byte before, on, or one byte after a word
            // boundary and end anywhere. An even `style` flips every byte
            // of its run; an odd one leaves holes, so runs break inside
            // words too.
            let mut working = pristine.clone();
            for (word, side, len, style) in runs {
                let start = (8 * word + side).saturating_sub(1).min(working.len());
                let end = (start + len).min(working.len());
                for (i, b) in working[start..end].iter_mut().enumerate() {
                    *b ^= match style & 1 {
                        0 => style | 1,
                        _ if (i + usize::from(style)) % 5 == 0 => 0,
                        _ => style,
                    };
                }
            }
            let flips: Vec<u8> = working.iter().zip(&pristine).map(|(w, p)| w ^ p).collect();
            agree_with_reference(&working, &pristine, GAPS[gap])?;
            agree_with_reference(&flips, &working, GAPS[gap])?;
        }
    }
}

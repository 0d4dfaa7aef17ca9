//! Limited GPU string routines.
//!
//! "Various text parsing and formatted output tasks required us to
//! implement limited GPU versions of the `sprintf`, `strtok`, `strlen`,
//! `strcat` functions not normally available to GPU code" (paper §5.2.2).
//! These operate on byte slices without allocation, as GPU code would.
//! No workload here concatenates strings or measures a NUL-terminated
//! one, so there is no `strcat` and no `strlen`.

/// Whether `b` separates words (whitespace and punctuation, matching the
/// `grep -w` notion of a word boundary).
#[must_use]
fn is_word_boundary(b: u8) -> bool {
    !(b.is_ascii_alphanumeric() || b == b'_' || b == b'\'')
}

/// An iterator over the words of a byte text (`strtok` over word
/// boundaries). Words are maximal runs of non-boundary bytes.
#[derive(Debug, Clone)]
pub struct WordTokenizer<'a> {
    text: &'a [u8],
    pos: usize,
}

impl<'a> WordTokenizer<'a> {
    /// Tokenize `text`.
    #[must_use]
    pub fn new(text: &'a [u8]) -> Self {
        Self { text, pos: 0 }
    }
}

impl<'a> Iterator for WordTokenizer<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        while self.pos < self.text.len() && is_word_boundary(self.text[self.pos]) {
            self.pos += 1;
        }
        if self.pos >= self.text.len() {
            return None;
        }
        let start = self.pos;
        while self.pos < self.text.len() && !is_word_boundary(self.text[self.pos]) {
            self.pos += 1;
        }
        Some(&self.text[start..self.pos])
    }
}

/// Write decimal `value` into `dst`, returning the byte length used, or
/// `None` if it does not fit (the integer arm of the paper's limited
/// `sprintf`).
fn format_u64(dst: &mut [u8], value: u64) -> Option<usize> {
    let mut tmp = [0u8; 20];
    let mut v = value;
    let mut i = tmp.len();
    loop {
        i -= 1;
        tmp[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    let n = tmp.len() - i;
    if n > dst.len() {
        return None;
    }
    dst[..n].copy_from_slice(&tmp[i..]);
    Some(n)
}

/// Format one grep match line — `word file count\n` — into `dst`,
/// returning the length used, or `None` if it does not fit (the paper's
/// per-threadblock output buffering flushes when this fails).
pub fn format_match_line(dst: &mut [u8], word: &[u8], file: &[u8], count: u64) -> Option<usize> {
    let mut pos = 0usize;
    for part in [word, b" ".as_slice(), file, b" ".as_slice()] {
        if pos + part.len() > dst.len() {
            return None;
        }
        dst[pos..pos + part.len()].copy_from_slice(part);
        pos += part.len();
    }
    pos += format_u64(&mut dst[pos..], count)?;
    if pos + 1 > dst.len() {
        return None;
    }
    dst[pos] = b'\n';
    Some(pos + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizer_splits_on_punctuation_and_whitespace() {
        let words: Vec<&[u8]> = WordTokenizer::new(b"the quick-brown_fox, isn't (it)?").collect();
        assert_eq!(
            words,
            vec![b"the".as_slice(), b"quick", b"brown_fox", b"isn't", b"it"]
        );
    }

    #[test]
    fn tokenizer_handles_edges() {
        assert_eq!(WordTokenizer::new(b"").count(), 0);
        assert_eq!(WordTokenizer::new(b"  ,.;  ").count(), 0);
        let one: Vec<&[u8]> = WordTokenizer::new(b"word").collect();
        assert_eq!(one, vec![b"word".as_slice()]);
    }

    #[test]
    fn format_u64_digits() {
        let mut buf = [0u8; 20];
        assert_eq!(format_u64(&mut buf, 0), Some(1));
        assert_eq!(&buf[..1], b"0");
        assert_eq!(format_u64(&mut buf, 987_654), Some(6));
        assert_eq!(&buf[..6], b"987654");
        let mut tiny = [0u8; 2];
        assert_eq!(format_u64(&mut tiny, 123), None);
    }

    #[test]
    fn format_match_line_layout() {
        let mut buf = [0u8; 64];
        let n = format_match_line(&mut buf, b"kernel", b"/src/main.c", 42).unwrap();
        assert_eq!(&buf[..n], b"kernel /src/main.c 42\n");
        let mut tiny = [0u8; 8];
        assert_eq!(
            format_match_line(&mut tiny, b"kernel", b"/src/main.c", 42),
            None
        );
    }
}

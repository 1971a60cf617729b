//! The line layer under both record readers: one reused, bounded buffer.

use crate::error::SeqError;
use std::io::{self, BufRead, Read as _};

/// The longest line, its `\n` included, that the FASTA and FASTQ readers
/// accept: 64 MiB. The longest legitimate line is a reference genome
/// written unwrapped into FASTA (`focus classify --references`); the
/// largest bacterial chromosomes are ≈ 16 Mbp, so this keeps a 4× margin.
/// It is a constant, not an option, because it is what stops a
/// newline-free stream (`/dev/zero`, a corrupt upload) from growing a
/// buffer without limit, and a flag could reopen that trust boundary.
pub const MAX_LINE_BYTES: usize = 1 << 26;

/// Reads a stream one line at a time into a buffer it reuses, whose
/// capacity never exceeds [`MAX_LINE_BYTES`]. `line` is the 1-based number
/// of the last line read; `done` is set once the record reader is.
pub(crate) struct LineReader<R> {
    input: R,
    buf: Vec<u8>,
    pub(crate) line: usize,
    done: bool,
}

impl<R: BufRead> LineReader<R> {
    pub(crate) fn new(input: R) -> LineReader<R> {
        LineReader {
            input,
            buf: Vec::new(),
            line: 0,
            done: false,
        }
    }

    /// Passes a record reader's outcome through — `true` for a record —
    /// and ends the stream at anything else, so nothing follows an error.
    pub(crate) fn fuse(&mut self, found: Result<bool, SeqError>) -> Result<bool, SeqError> {
        self.done |= !matches!(found, Ok(true));
        found
    }

    /// The next line without its terminator and trailing whitespace —
    /// what `BufRead::lines` then `str::trim_end` yield, the I/O error for
    /// a line that is not UTF-8 included — or `None` at the end.
    pub(crate) fn next_line(&mut self) -> Result<Option<&str>, SeqError> {
        self.buf.clear();
        while !self.done {
            // Double (from 8 KiB) up to the bound; `read_until` fills at
            // most the spare capacity, so it never reallocates.
            if self.buf.len() == self.buf.capacity() {
                if self.input.fill_buf()?.is_empty() {
                    break;
                }
                if self.buf.capacity() == MAX_LINE_BYTES {
                    return Err(SeqError::LineTooLong {
                        line: self.line + 1,
                        limit: MAX_LINE_BYTES,
                    });
                }
                let grown = (2 * self.buf.capacity()).clamp(8 << 10, MAX_LINE_BYTES);
                self.buf.reserve_exact(grown - self.buf.len());
            }
            let room = (self.buf.capacity() - self.buf.len()) as u64;
            let read = (&mut self.input)
                .take(room)
                .read_until(b'\n', &mut self.buf)?;
            if read == 0 || self.buf.ends_with(b"\n") {
                break;
            }
        }
        if self.buf.is_empty() {
            return Ok(None);
        }
        self.line += 1;
        let line = self.buf.strip_suffix(b"\n").unwrap_or(&self.buf);
        let text = std::str::from_utf8(line).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                "stream did not contain valid UTF-8",
            )
        })?;
        Ok(Some(text.trim_end()))
    }

    /// Capacity of the line buffer, for the bound's tests.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.buf.capacity()
    }
}

/// The error for a byte that is not a base, `column` 1-based.
pub(crate) fn invalid_base(line: usize, column: usize, byte: u8) -> SeqError {
    SeqError::Format {
        line,
        message: format!("invalid base {:?} at column {column}", byte as char),
    }
}

/// What the differential tests share: input mutation, and the rule that a
/// reader's outcome must match its reference parser's.
#[cfg(test)]
pub(crate) mod oracle {
    use crate::error::SeqError;
    use crate::read::Read;

    /// One mutation of a byte buffer, drawn from `rng`.
    pub(crate) fn mutilate(text: &mut Vec<u8>, rng: &mut fc_rng::Rng) {
        let (op, pos, byte) = (
            rng.range(0u8..5),
            rng.range(0usize..65536),
            rng.range(0u8..255),
        );
        if text.is_empty() {
            return;
        }
        let pos = pos % text.len();
        match op {
            0 => text.truncate(pos),
            1 => text[pos] = byte,
            2 => text.insert(pos, byte),
            3 => {
                text.remove(pos);
            }
            _ => {
                // Convert every LF to CRLF.
                let mut out = Vec::with_capacity(text.len() + 8);
                for &b in text.iter() {
                    if b == b'\n' {
                        out.push(b'\r');
                    }
                    out.push(b);
                }
                *text = out;
            }
        }
    }

    /// An error as the comparison sees it: variant, line and message.
    fn shape(e: &SeqError) -> String {
        match e {
            SeqError::Io(io) => format!("Io({:?})", io.kind()),
            other => format!("{other:?}"),
        }
    }

    /// Panics unless `ours` is what `reference` returned on `text`: equal
    /// reads, or errors of the same variant, line and message. The one
    /// difference allowed is a bad quality byte, which the reference
    /// reports as an `InvalidBase` without a line.
    pub(crate) fn assert_agrees(
        text: &[u8],
        ours: Result<Vec<Read>, SeqError>,
        reference: Result<Vec<Read>, SeqError>,
    ) {
        match (&ours, &reference) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "{text:?}"),
            (
                Err(SeqError::Format { message, .. }),
                Err(SeqError::InvalidBase { position, byte }),
            ) => assert_eq!(
                message,
                &format!(
                    "invalid quality byte {:?} at column {}",
                    *byte as char,
                    position + 1
                ),
                "{text:?}"
            ),
            (Err(a), Err(b)) => assert_eq!(shape(a), shape(b), "{text:?}"),
            _ => panic!("reader {ours:?} but reference {reference:?} on {text:?}"),
        }
    }
}

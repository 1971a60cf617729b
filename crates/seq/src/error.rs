//! Error type for sequence parsing and I/O.

use std::fmt;
use std::io;

/// Errors produced while parsing or writing sequence data.
#[derive(Debug)]
pub enum SeqError {
    /// A byte that is not one of `ACGTacgt` appeared in sequence data.
    InvalidBase {
        /// Offset of the offending byte within its sequence line/record.
        position: usize,
        /// The offending byte.
        byte: u8,
    },
    /// A structural problem in a FASTA/FASTQ stream.
    Format {
        /// 1-based line number where the problem was detected.
        line: usize,
        /// Human-readable description.
        message: String,
    },
    /// The stream ended in the middle of a record (e.g. a FASTQ file cut
    /// off before its quality line).
    Truncated {
        /// 1-based line number of the last line that was read.
        line: usize,
        /// Which line of the record is missing (`sequence`, `separator`,
        /// `quality`).
        missing: &'static str,
    },
    /// A line longer than the readers accept ([`crate::MAX_LINE_BYTES`]).
    LineTooLong {
        /// 1-based number of the over-long line.
        line: usize,
        /// The bound, in bytes, terminator included.
        limit: usize,
    },
    /// Quality string length does not match sequence length.
    QualityLengthMismatch {
        /// Record name.
        record: String,
        /// Sequence length.
        seq_len: usize,
        /// Quality-string length.
        qual_len: usize,
    },
    /// An invalid preprocessing parameter (see [`crate::TrimConfig`]).
    Config {
        /// Offending parameter name (e.g. `window_len`).
        parameter: &'static str,
        /// What a valid value looks like.
        message: &'static str,
    },
    /// A file name whose extension names no format the readers know
    /// ([`crate::format::open`]).
    UnknownExtension,
    /// Underlying I/O failure.
    Io(io::Error),
}

impl fmt::Display for SeqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SeqError::InvalidBase { position, byte } => {
                write!(f, "invalid base {:?} at position {position}", *byte as char)
            }
            SeqError::Format { line, message } => write!(f, "format error at line {line}: {message}"),
            SeqError::Truncated { line, missing } => write!(
                f,
                "truncated record after line {line}: missing {missing} line"
            ),
            SeqError::LineTooLong { line, limit } => {
                write!(f, "line {line} is longer than the {limit}-byte line limit")
            }
            SeqError::QualityLengthMismatch { record, seq_len, qual_len } => write!(
                f,
                "record {record}: quality length {qual_len} does not match sequence length {seq_len}"
            ),
            SeqError::Config { parameter, message } => {
                write!(f, "invalid {parameter}: {message}")
            }
            SeqError::UnknownExtension => {
                write!(f, "unknown extension (expected .fasta/.fa/.fna/.fastq/.fq)")
            }
            SeqError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for SeqError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SeqError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SeqError {
    fn from(e: io::Error) -> SeqError {
        SeqError::Io(e)
    }
}

//! FASTA parsing and writing.

use crate::dna::DnaString;
use crate::error::SeqError;
use crate::read::Read;
use std::io::{BufRead, Write};

/// Parses a FASTA stream into reads.
///
/// Multi-line sequences are supported; blank lines between records are
/// ignored. Sequence characters outside `ACGTacgt` are an error — the
/// assembler's 2-bit alphabet has no ambiguity codes, and the simulator never
/// produces them (see DESIGN.md).
pub fn parse<R: BufRead>(input: R) -> Result<Vec<Read>, SeqError> {
    let mut reads = Vec::new();
    let mut name: Option<String> = None;
    let mut seq = DnaString::new();
    let mut line_no = 0usize;

    for line in input.lines() {
        line_no += 1;
        let line = line?;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix('>') {
            if let Some(prev) = name.take() {
                reads.push(Read::new(prev, std::mem::take(&mut seq)));
            }
            name = Some(header.trim().to_string());
        } else {
            if name.is_none() {
                return Err(SeqError::Format {
                    line: line_no,
                    message: "sequence data before first '>' header".to_string(),
                });
            }
            append_bases(&mut seq, line.as_bytes(), line_no)?;
        }
    }
    if let Some(prev) = name {
        reads.push(Read::new(prev, seq));
    }
    Ok(reads)
}

fn append_bases(seq: &mut DnaString, bytes: &[u8], line_no: usize) -> Result<(), SeqError> {
    for (i, &c) in bytes.iter().enumerate() {
        match crate::alphabet::Base::from_ascii(c) {
            Some(b) => seq.push(b),
            None => {
                return Err(SeqError::Format {
                    line: line_no,
                    message: format!("invalid base {:?} at column {}", c as char, i + 1),
                })
            }
        }
    }
    Ok(())
}

/// Writes reads as FASTA with lines wrapped at `width` bases (0 = no wrap).
pub fn write<W: Write>(mut out: W, reads: &[Read], width: usize) -> Result<(), SeqError> {
    for read in reads {
        writeln!(out, ">{}", read.name)?;
        let ascii = read.seq.to_ascii();
        if width == 0 {
            out.write_all(&ascii)?;
            writeln!(out)?;
        } else {
            for chunk in ascii.chunks(width) {
                out.write_all(chunk)?;
                writeln!(out)?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parses_multi_record_multi_line() {
        let text = ">r1 first\nACGT\nACGT\n\n>r2\nTTTT\n";
        let reads = parse(Cursor::new(text)).unwrap();
        assert_eq!(reads.len(), 2);
        assert_eq!(reads[0].name, "r1 first");
        assert_eq!(reads[0].seq.to_string(), "ACGTACGT");
        assert_eq!(reads[1].seq.to_string(), "TTTT");
    }

    #[test]
    fn rejects_leading_sequence() {
        let err = parse(Cursor::new("ACGT\n>r1\nACGT\n")).unwrap_err();
        assert!(matches!(err, SeqError::Format { line: 1, .. }));
    }

    #[test]
    fn rejects_invalid_base_with_line_number() {
        let err = parse(Cursor::new(">r1\nACGT\nACNT\n")).unwrap_err();
        assert!(matches!(err, SeqError::Format { line: 3, .. }));
    }

    #[test]
    fn write_parse_round_trip_wrapped() {
        let reads = vec![
            Read::new("a", "ACGTACGTACGT".parse().unwrap()),
            Read::new("b", "TT".parse().unwrap()),
        ];
        let mut buf = Vec::new();
        write(&mut buf, &reads, 5).unwrap();
        let parsed = parse(Cursor::new(buf)).unwrap();
        assert_eq!(parsed, reads);
    }

    #[test]
    fn write_unwrapped() {
        let reads = vec![Read::new("a", "ACGT".parse().unwrap())];
        let mut buf = Vec::new();
        write(&mut buf, &reads, 0).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), ">a\nACGT\n");
    }

    #[test]
    fn empty_input_yields_no_reads() {
        assert!(parse(Cursor::new("")).unwrap().is_empty());
    }
}

/// A streaming FASTA reader yielding one [`Read`] at a time — constant
/// memory regardless of file size, for production-sized inputs where
/// [`parse`] (which collects) is inappropriate.
pub struct Reader<R: BufRead> {
    lines: std::iter::Enumerate<std::io::Lines<R>>,
    pending_header: Option<(usize, String)>,
    done: bool,
}

impl<R: BufRead> Reader<R> {
    /// Wraps a buffered source.
    pub fn new(input: R) -> Reader<R> {
        Reader {
            lines: input.lines().enumerate(),
            pending_header: None,
            done: false,
        }
    }
}

impl<R: BufRead> Iterator for Reader<R> {
    type Item = Result<Read, SeqError>;

    fn next(&mut self) -> Option<Result<Read, SeqError>> {
        if self.done {
            return None;
        }
        // Find this record's header (either pending from the previous
        // record or the next '>' line).
        let header = match self.pending_header.take() {
            Some(h) => h,
            None => loop {
                match self.lines.next() {
                    None => {
                        self.done = true;
                        return None;
                    }
                    Some((i, Err(e))) => {
                        let _ = i;
                        self.done = true;
                        return Some(Err(e.into()));
                    }
                    Some((i, Ok(line))) => {
                        let line = line.trim_end().to_string();
                        if line.is_empty() {
                            continue;
                        }
                        match line.strip_prefix('>') {
                            Some(h) => break (i + 1, h.trim().to_string()),
                            None => {
                                self.done = true;
                                return Some(Err(SeqError::Format {
                                    line: i + 1,
                                    message: "sequence data before first '>' header".to_string(),
                                }));
                            }
                        }
                    }
                }
            },
        };
        // Accumulate sequence lines until the next header or EOF.
        let mut seq = DnaString::new();
        loop {
            match self.lines.next() {
                None => {
                    self.done = true;
                    return Some(Ok(Read::new(header.1, seq)));
                }
                Some((_, Err(e))) => {
                    self.done = true;
                    return Some(Err(e.into()));
                }
                Some((i, Ok(line))) => {
                    let line = line.trim_end();
                    if line.is_empty() {
                        continue;
                    }
                    if let Some(next_header) = line.strip_prefix('>') {
                        self.pending_header = Some((i + 1, next_header.trim().to_string()));
                        return Some(Ok(Read::new(header.1, seq)));
                    }
                    if let Err(e) = append_bases(&mut seq, line.as_bytes(), i + 1) {
                        self.done = true;
                        return Some(Err(e));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use crate::alphabet::Base;
    use fc_rng::cases;
    use std::io::Cursor;

    /// A syntactically valid FASTA byte stream with line-wrapped sequences.
    fn render(records: &[Vec<u8>]) -> Vec<u8> {
        let mut text = Vec::new();
        for (i, bases) in records.iter().enumerate() {
            text.extend_from_slice(format!(">r{i}\n").as_bytes());
            for chunk in bases.chunks(7) {
                for &b in chunk {
                    text.push(Base::from_code(b % 4).to_ascii());
                }
                text.push(b'\n');
            }
        }
        text
    }

    /// Corpus of mutilated FASTA inputs: parsing must never panic, and
    /// the collecting parser and streaming reader must agree.
    #[test]
    fn mutilated_input_never_panics_and_streaming_agrees() {
        cases(256, |rng| {
            let records = rng.vec(0..5, |r| r.vec(0..30, |r| r.range(0u8..4)));
            let mut text = render(&records);
            for _ in 0..rng.range(0..4) {
                crate::fastq::mutilate(&mut text, rng);
            }
            let parsed = parse(Cursor::new(text.clone()));
            let streamed: Result<Vec<Read>, SeqError> = Reader::new(Cursor::new(text)).collect();
            match (&parsed, &streamed) {
                (Ok(a), Ok(b)) => assert_eq!(a, b),
                (Err(_), Err(_)) => {}
                _ => panic!(
                    "parse/stream disagree: {:?} vs {:?}",
                    parsed.is_ok(),
                    streamed.is_ok()
                ),
            }
        });
    }
}

#[cfg(test)]
mod streaming_tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn streams_records_lazily_and_matches_parse() {
        let text = ">r1\nACGT\nACGT\n>r2\nTTTT\n>r3\nGG\n";
        let collected: Result<Vec<Read>, SeqError> = Reader::new(Cursor::new(text)).collect();
        assert_eq!(collected.unwrap(), parse(Cursor::new(text)).unwrap());
    }

    #[test]
    fn streaming_surfaces_mid_stream_errors() {
        let text = ">r1\nACGT\n>r2\nACXT\n";
        let mut reader = Reader::new(Cursor::new(text));
        assert!(reader.next().unwrap().is_ok());
        assert!(reader.next().unwrap().is_err());
        assert!(
            reader.next().is_none(),
            "iteration must stop after an error"
        );
    }

    #[test]
    fn empty_stream_yields_nothing() {
        assert!(Reader::new(Cursor::new("")).next().is_none());
    }
}

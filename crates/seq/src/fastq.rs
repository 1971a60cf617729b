//! FASTQ parsing and writing.

use crate::alphabet::Base;
use crate::dna::DnaString;
use crate::error::SeqError;
use crate::quality::QualityScores;
use crate::read::Read;
use std::io::{BufRead, Write};

/// Parses a four-line-per-record FASTQ stream.
///
/// The separator line must start with `+`; its optional repeated name is
/// ignored, as is customary. Quality strings must match the sequence length.
pub fn parse<R: BufRead>(input: R) -> Result<Vec<Read>, SeqError> {
    let mut lines = input.lines();
    let mut reads = Vec::new();
    let mut line_no = 0usize;

    loop {
        let header = match lines.next() {
            None => break,
            Some(l) => {
                line_no += 1;
                l?
            }
        };
        let header = header.trim_end();
        if header.is_empty() {
            continue;
        }
        let name = header.strip_prefix('@').ok_or_else(|| SeqError::Format {
            line: line_no,
            message: "expected '@' header".to_string(),
        })?;
        let name = name.trim().to_string();

        let seq_line = next_line(&mut lines, &mut line_no, "sequence")?;
        let mut seq = DnaString::with_capacity(seq_line.len());
        for (i, c) in seq_line.bytes().enumerate() {
            match Base::from_ascii(c) {
                Some(b) => seq.push(b),
                None => {
                    return Err(SeqError::Format {
                        line: line_no,
                        message: format!("invalid base {:?} at column {}", c as char, i + 1),
                    })
                }
            }
        }

        let sep = next_line(&mut lines, &mut line_no, "separator")?;
        if !sep.starts_with('+') {
            return Err(SeqError::Format {
                line: line_no,
                message: "expected '+' separator".to_string(),
            });
        }

        let qual_line = next_line(&mut lines, &mut line_no, "quality")?;
        let qual = QualityScores::from_fastq_line(qual_line.as_bytes())?;
        if qual.len() != seq.len() {
            return Err(SeqError::QualityLengthMismatch {
                record: name,
                seq_len: seq.len(),
                qual_len: qual.len(),
            });
        }
        reads.push(Read::with_quality(name, seq, qual));
    }
    Ok(reads)
}

fn next_line(
    lines: &mut impl Iterator<Item = std::io::Result<String>>,
    line_no: &mut usize,
    what: &'static str,
) -> Result<String, SeqError> {
    match lines.next() {
        Some(l) => {
            *line_no += 1;
            Ok(l?.trim_end().to_string())
        }
        None => Err(SeqError::Truncated {
            line: *line_no,
            missing: what,
        }),
    }
}

/// Writes reads as FASTQ. Reads without quality scores get a uniform score of
/// `default_phred`.
pub fn write<W: Write>(mut out: W, reads: &[Read], default_phred: u8) -> Result<(), SeqError> {
    for read in reads {
        write_read(&mut out, read, default_phred)?;
    }
    Ok(())
}

/// Writes a single FASTQ record — the exact byte format of [`write`], exposed
/// separately so generators can stream records to a writer one at a time
/// instead of collecting the whole read set first.
pub fn write_read<W: Write>(mut out: W, read: &Read, default_phred: u8) -> Result<(), SeqError> {
    writeln!(out, "@{}", read.name)?;
    out.write_all(&read.seq.to_ascii())?;
    writeln!(out, "\n+")?;
    let qual = match &read.qual {
        Some(q) => q.to_fastq_line(),
        None => QualityScores::from_phred(vec![default_phred; read.len()]).to_fastq_line(),
    };
    out.write_all(&qual)?;
    writeln!(out)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    const SAMPLE: &str = "@r1\nACGT\n+\nIIII\n@r2 desc\nTT\n+r2 desc\nAB\n";

    #[test]
    fn parses_records_and_quality() {
        let reads = parse(Cursor::new(SAMPLE)).unwrap();
        assert_eq!(reads.len(), 2);
        assert_eq!(reads[0].name, "r1");
        assert_eq!(reads[0].seq.to_string(), "ACGT");
        assert_eq!(
            reads[0].qual.as_ref().unwrap().as_slice(),
            &[40, 40, 40, 40]
        );
        assert_eq!(reads[1].name, "r2 desc");
        assert_eq!(
            reads[1].qual.as_ref().unwrap().as_slice(),
            &[b'A' - 33, b'B' - 33]
        );
    }

    #[test]
    fn rejects_quality_length_mismatch() {
        let err = parse(Cursor::new("@r\nACGT\n+\nII\n")).unwrap_err();
        assert!(matches!(
            err,
            SeqError::QualityLengthMismatch {
                seq_len: 4,
                qual_len: 2,
                ..
            }
        ));
    }

    #[test]
    fn rejects_missing_separator() {
        let err = parse(Cursor::new("@r\nACGT\nIIII\nIIII\n")).unwrap_err();
        assert!(matches!(err, SeqError::Format { line: 3, .. }));
    }

    #[test]
    fn rejects_truncated_record() {
        let err = parse(Cursor::new("@r\nACGT\n+\n")).unwrap_err();
        assert!(matches!(
            err,
            SeqError::Truncated {
                missing: "quality",
                ..
            }
        ));
        let err = parse(Cursor::new("@r\nACGT\n")).unwrap_err();
        assert!(matches!(
            err,
            SeqError::Truncated {
                missing: "separator",
                ..
            }
        ));
        let err = parse(Cursor::new("@r\n")).unwrap_err();
        assert!(matches!(
            err,
            SeqError::Truncated {
                missing: "sequence",
                ..
            }
        ));
    }

    #[test]
    fn crlf_line_endings_parse_identically() {
        let crlf = SAMPLE.replace('\n', "\r\n");
        assert_eq!(
            parse(Cursor::new(crlf)).unwrap(),
            parse(Cursor::new(SAMPLE)).unwrap()
        );
    }

    /// Regression test for truncated input: cutting a valid two-record file
    /// after any byte must never panic. Both the collecting parser and the
    /// streaming reader either fail with a typed error or return only the
    /// records that are complete in the prefix.
    #[test]
    fn every_truncation_point_is_handled_without_panic() {
        for cut in 0..SAMPLE.len() {
            let prefix = &SAMPLE.as_bytes()[..cut];
            let parsed = parse(Cursor::new(prefix));
            let streamed: Result<Vec<Read>, SeqError> = Reader::new(Cursor::new(prefix)).collect();
            match (&parsed, &streamed) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a, b, "cut at byte {cut}");
                    assert!(a.len() <= 2, "cut at byte {cut}");
                }
                (Err(_), Err(_)) => {}
                _ => panic!("parse/stream disagree at byte {cut}: {parsed:?} vs {streamed:?}"),
            }
        }
    }

    #[test]
    fn write_parse_round_trip() {
        let reads = parse(Cursor::new(SAMPLE)).unwrap();
        let mut buf = Vec::new();
        write(&mut buf, &reads, 30).unwrap();
        let again = parse(Cursor::new(buf)).unwrap();
        assert_eq!(again, reads);
    }

    #[test]
    fn write_fills_default_quality_for_fasta_reads() {
        let reads = vec![Read::new("a", "ACG".parse().unwrap())];
        let mut buf = Vec::new();
        write(&mut buf, &reads, 25).unwrap();
        let again = parse(Cursor::new(buf)).unwrap();
        assert_eq!(again[0].qual.as_ref().unwrap().as_slice(), &[25, 25, 25]);
    }
}

/// A streaming FASTQ reader yielding one [`Read`] at a time — constant
/// memory regardless of file size.
pub struct Reader<R: BufRead> {
    lines: std::iter::Enumerate<std::io::Lines<R>>,
    done: bool,
}

impl<R: BufRead> Reader<R> {
    /// Wraps a buffered source.
    pub fn new(input: R) -> Reader<R> {
        Reader {
            lines: input.lines().enumerate(),
            done: false,
        }
    }

    fn take_line(&mut self, what: &'static str) -> Result<Option<(usize, String)>, SeqError> {
        match self.lines.next() {
            None if what == "header" => Ok(None),
            None => Err(SeqError::Truncated {
                line: 0,
                missing: what,
            }),
            Some((_, Err(e))) => Err(e.into()),
            Some((i, Ok(line))) => Ok(Some((i + 1, line.trim_end().to_string()))),
        }
    }
}

impl<R: BufRead> Iterator for Reader<R> {
    type Item = Result<Read, SeqError>;

    fn next(&mut self) -> Option<Result<Read, SeqError>> {
        if self.done {
            return None;
        }
        let result = (|| -> Result<Option<Read>, SeqError> {
            // Header (skipping blank lines).
            let (line_no, header) = loop {
                match self.take_line("header")? {
                    None => return Ok(None),
                    Some((_, l)) if l.is_empty() => continue,
                    Some(found) => break found,
                }
            };
            let name = header
                .strip_prefix('@')
                .ok_or_else(|| SeqError::Format {
                    line: line_no,
                    message: "expected '@' header".to_string(),
                })?
                .trim()
                .to_string();
            let (seq_no, seq_line) =
                self.take_line("sequence")?
                    .ok_or(SeqError::Truncated {
                        line: line_no,
                        missing: "sequence",
                    })?;
            let mut seq = DnaString::with_capacity(seq_line.len());
            for (col, c) in seq_line.bytes().enumerate() {
                match Base::from_ascii(c) {
                    Some(b) => seq.push(b),
                    None => {
                        return Err(SeqError::Format {
                            line: seq_no,
                            message: format!("invalid base {:?} at column {}", c as char, col + 1),
                        })
                    }
                }
            }
            let (sep_no, sep) = self
                .take_line("separator")?
                .ok_or(SeqError::Truncated {
                    line: seq_no,
                    missing: "separator",
                })?;
            if !sep.starts_with('+') {
                return Err(SeqError::Format {
                    line: sep_no,
                    message: "expected '+' separator".to_string(),
                });
            }
            let (_, qual_line) = self.take_line("quality")?.ok_or(SeqError::Truncated {
                line: sep_no,
                missing: "quality",
            })?;
            let qual = QualityScores::from_fastq_line(qual_line.as_bytes())?;
            if qual.len() != seq.len() {
                return Err(SeqError::QualityLengthMismatch {
                    record: name,
                    seq_len: seq.len(),
                    qual_len: qual.len(),
                });
            }
            Ok(Some(Read::with_quality(name, seq, qual)))
        })();
        match result {
            Ok(Some(read)) => Some(Ok(read)),
            Ok(None) => {
                self.done = true;
                None
            }
            Err(e) => {
                self.done = true;
                Some(Err(e))
            }
        }
    }
}

/// Shared helper for the mutilated-input properties (FASTA and FASTQ): one
/// mutation of a byte buffer, drawn from `rng`.
#[cfg(test)]
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

#[cfg(test)]
mod props {
    use super::*;
    use crate::alphabet::Base;
    use fc_rng::cases;
    use std::io::Cursor;

    /// A syntactically valid FASTQ byte stream built from arbitrary records.
    fn render(records: &[Vec<(u8, u8)>]) -> Vec<u8> {
        let mut text = Vec::new();
        for (i, pairs) in records.iter().enumerate() {
            text.extend_from_slice(format!("@r{i}\n").as_bytes());
            for &(b, _) in pairs {
                text.push(Base::from_code(b % 4).to_ascii());
            }
            text.extend_from_slice(b"\n+\n");
            for &(_, q) in pairs {
                text.push(33 + q % 94);
            }
            text.push(b'\n');
        }
        text
    }

    /// Corpus of mutilated FASTQ inputs (truncations, byte smashes,
    /// insertions, deletions, CRLF conversion — composed): parsing must
    /// never panic, and the collecting parser and the streaming reader
    /// must agree on success and on the parsed reads.
    #[test]
    fn mutilated_input_never_panics_and_streaming_agrees() {
        cases(256, |rng| {
            let records = rng.vec(0..5, |r| {
                r.vec(0..20, |r| (r.range(0u8..4), r.range(0u8..94)))
            });
            let mut text = render(&records);
            for _ in 0..rng.range(0..4) {
                mutilate(&mut text, rng);
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
    fn streaming_matches_parse() {
        let text = "@r1\nACGT\n+\nIIII\n@r2\nTT\n+\nAB\n";
        let collected: Result<Vec<Read>, SeqError> = Reader::new(Cursor::new(text)).collect();
        assert_eq!(collected.unwrap(), parse(Cursor::new(text)).unwrap());
    }

    #[test]
    fn streaming_stops_after_error() {
        let text = "@r1\nACGT\n+\nII\n@r2\nTT\n+\nAB\n";
        let mut reader = Reader::new(Cursor::new(text));
        assert!(reader.next().unwrap().is_err());
        assert!(reader.next().is_none());
    }

    #[test]
    fn streaming_handles_truncation() {
        let mut reader = Reader::new(Cursor::new("@r1\nACGT\n+\n"));
        assert!(reader.next().unwrap().is_err());
    }
}

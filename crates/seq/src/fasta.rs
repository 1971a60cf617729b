//! FASTA reading and writing.

use crate::dna::DnaString;
use crate::error::SeqError;
use crate::line::{invalid_base, LineReader};
use crate::read::{Read, Record};
use std::io::{BufRead, Write};

/// Parses a FASTA stream into owned reads: [`Reader`] collected.
pub fn parse<R: BufRead>(input: R) -> Result<Vec<Read>, SeqError> {
    Reader::new(input).collect()
}

/// The FASTA reader: [`next_record`](Reader::next_record) borrows each
/// record, its lines joined, from buffers it reuses, no line longer than
/// [`crate::MAX_LINE_BYTES`]; as an [`Iterator`] it yields owned [`Read`]s.
/// Nothing follows the first error. Blank lines are ignored. Bases outside
/// `ACGTacgt` are an error: the 2-bit alphabet has no ambiguity codes, and
/// the simulator never produces them (see DESIGN.md).
pub struct Reader<R: BufRead> {
    lines: LineReader<R>,
    name: String,
    /// The header that ended the last record, when one did: the next
    /// record's name.
    next_name: Option<String>,
    bases: Vec<u8>,
    /// Where the sequence lines are packed to check their bases.
    checked: DnaString,
}

impl<R: BufRead> Reader<R> {
    /// Wraps a buffered source.
    pub fn new(input: R) -> Reader<R> {
        Reader {
            lines: LineReader::new(input),
            name: String::new(),
            next_name: None,
            bases: Vec::new(),
            checked: DnaString::new(),
        }
    }

    /// The next record, `None` at the end of the stream.
    pub fn next_record(&mut self) -> Result<Option<Record<'_>>, SeqError> {
        let found = self.read_record();
        Ok(self.lines.fuse(found)?.then_some(Record {
            name: &self.name,
            bases: &self.bases,
            qual: None,
        }))
    }

    /// Reads one record into the buffers; `false` at the end of the stream.
    fn read_record(&mut self) -> Result<bool, SeqError> {
        match self.next_name.take() {
            Some(name) => self.name = name,
            None => loop {
                match self.lines.next_line()? {
                    None => return Ok(false),
                    Some("") => continue,
                    Some(line) => match line.strip_prefix('>') {
                        Some(header) => {
                            self.name.clear();
                            self.name.push_str(header.trim());
                            break;
                        }
                        None => {
                            return Err(SeqError::Format {
                                line: self.lines.line,
                                message: "sequence data before first '>' header".to_string(),
                            })
                        }
                    },
                }
            },
        }
        self.bases.clear();
        self.checked.clear();
        loop {
            match self.lines.next_line()? {
                None => return Ok(true),
                Some("") => continue,
                Some(line) => {
                    if let Some(header) = line.strip_prefix('>') {
                        self.next_name = Some(header.trim().to_string());
                        return Ok(true);
                    }
                    if let Err(SeqError::InvalidBase { position, byte }) =
                        self.checked.extend_from_ascii(line.as_bytes())
                    {
                        return Err(invalid_base(self.lines.line, position + 1, byte));
                    }
                    self.bases.extend_from_slice(line.as_bytes());
                }
            }
        }
    }
}

impl<R: BufRead> Iterator for Reader<R> {
    type Item = Result<Read, SeqError>;

    fn next(&mut self) -> Option<Result<Read, SeqError>> {
        let record = self.next_record().transpose()?;
        Some(record.and_then(|record| record.to_read()))
    }
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

/// The line-based parser the reader replaced, kept verbatim as the
/// differential oracle: the reader must agree with it on every input, but
/// for a `LineTooLong` past the bound.
#[cfg(test)]
pub(crate) mod reference {
    use crate::dna::DnaString;
    use crate::error::SeqError;
    use crate::read::Read;
    use std::io::BufRead;

    /// Parses a FASTA stream into reads.
    ///
    /// Multi-line sequences are supported; blank lines between records are
    /// ignored. Sequence characters outside `ACGTacgt` are an error — the
    /// assembler's 2-bit alphabet has no ambiguity codes, and the simulator never
    /// produces them (see DESIGN.md).
    pub(crate) fn parse<R: BufRead>(input: R) -> Result<Vec<Read>, SeqError> {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::line::oracle::{assert_agrees, mutilate};
    use crate::MAX_LINE_BYTES;
    use std::io::{Cursor, Read as _};

    const SAMPLE: &str = ">r1 first\nACGT\nACGT\n\n>r2\nTTTT\n>r3\nGG\n";

    fn read_all(text: &[u8]) -> Result<Vec<Read>, SeqError> {
        Reader::new(text).collect()
    }

    #[test]
    fn parses_multi_record_multi_line() {
        let reads = parse(Cursor::new(SAMPLE)).unwrap();
        assert_eq!(reads.len(), 3);
        assert_eq!(reads[0].name, "r1 first");
        assert_eq!(reads[0].seq.to_string(), "ACGTACGT");
        assert_eq!(reads[1].seq.to_string(), "TTTT");
        assert_eq!(reads[2].seq.to_string(), "GG");
    }

    /// A record's lines join into one borrowed run of ASCII bases.
    #[test]
    fn next_record_joins_lines_and_has_no_qualities() {
        let mut reader = Reader::new(">a\nACGTACGTACGTACGTACGTACGTACGTACG\nt\n>b\n".as_bytes());
        let record = reader.next_record().unwrap().unwrap();
        assert_eq!(record.name, "a");
        assert_eq!(record.bases, b"ACGTACGTACGTACGTACGTACGTACGTACGt");
        assert_eq!(record.qual, None);
        let record = reader.next_record().unwrap().unwrap();
        assert_eq!((record.name, record.bases), ("b", &b""[..]));
        assert!(reader.next_record().unwrap().is_none());
    }

    #[test]
    fn rejects_leading_sequence() {
        let err = read_all(b"ACGT\n>r1\nACGT\n").unwrap_err();
        assert!(matches!(err, SeqError::Format { line: 1, .. }));
    }

    #[test]
    fn rejects_invalid_base_with_line_number() {
        let err = read_all(b">r1\nACGT\nACNT\n").unwrap_err();
        match err {
            SeqError::Format { line, message } => {
                assert_eq!(
                    (line, message.as_str()),
                    (3, "invalid base 'N' at column 3")
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn reading_surfaces_mid_stream_errors_then_stops() {
        let mut reader = Reader::new(">r1\nACGT\n>r2\nACXT\n".as_bytes());
        assert!(reader.next().unwrap().is_ok());
        assert!(reader.next().unwrap().is_err());
        assert!(
            reader.next().is_none(),
            "iteration must stop after an error"
        );
    }

    #[test]
    fn empty_input_yields_no_reads() {
        assert!(parse(Cursor::new("")).unwrap().is_empty());
    }

    #[test]
    fn every_truncation_point_agrees_with_the_reference() {
        for cut in 0..=SAMPLE.len() {
            let prefix = &SAMPLE.as_bytes()[..cut];
            assert_agrees(prefix, read_all(prefix), reference::parse(prefix));
        }
    }

    /// A newline-free sequence line ends in `LineTooLong` once the line
    /// buffer is at the bound, and the buffer never grows past it.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn an_endless_line_is_refused_at_the_bound() {
        let endless = std::io::repeat(b'A').take(MAX_LINE_BYTES as u64 + 1);
        let mut reader = Reader::new(std::io::BufReader::new(b">r\n".chain(endless)));
        match reader.next_record() {
            Err(SeqError::LineTooLong { line, limit }) => {
                assert_eq!((line, limit), (2, MAX_LINE_BYTES))
            }
            other => panic!("{other:?}"),
        }
        assert!(reader.lines.capacity() <= MAX_LINE_BYTES);
        assert!(reader.next_record().unwrap().is_none());
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

    /// A syntactically valid FASTA byte stream with line-wrapped sequences.
    fn render(records: &[Vec<u8>]) -> Vec<u8> {
        let mut text = Vec::new();
        for (i, bases) in records.iter().enumerate() {
            text.extend_from_slice(format!(">r{i}\n").as_bytes());
            for chunk in bases.chunks(7) {
                for &b in chunk {
                    text.push(crate::Base::from_code(b % 4).to_ascii());
                }
                text.push(b'\n');
            }
        }
        text
    }

    /// Corpus of mutilated FASTA inputs: the reader never panics and
    /// agrees with the reference on acceptance, on the reads, and on the
    /// error variant and its line.
    #[test]
    fn mutilated_input_agrees_with_the_reference() {
        fc_rng::cases(256, |rng| {
            let records = rng.vec(0..5, |r| r.vec(0..30, |r| r.range(0u8..4)));
            let mut text = render(&records);
            for _ in 0..rng.range(0..4) {
                mutilate(&mut text, rng);
            }
            assert_agrees(&text, read_all(&text), reference::parse(&text[..]));
        });
    }
}

//! FASTQ reading and writing.

use crate::dna::DnaString;
use crate::error::SeqError;
use crate::line::{invalid_base, LineReader};
use crate::quality::{QualityScores, MAX_PHRED, PHRED_OFFSET};
use crate::read::{Read, Record};
use std::io::{BufRead, Write};

/// Parses a four-line-per-record FASTQ stream into owned reads: [`Reader`]
/// collected.
pub fn parse<R: BufRead>(input: R) -> Result<Vec<Read>, SeqError> {
    Reader::new(input).collect()
}

/// The FASTQ reader: [`next_record`](Reader::next_record) borrows each
/// record from buffers it reuses, no line longer than
/// [`crate::MAX_LINE_BYTES`]; as an [`Iterator`] it yields owned [`Read`]s.
/// Nothing follows the first error. Blank lines before a header are
/// skipped; the separator's optional repeated name is ignored; qualities
/// are Phred+33, one per base.
pub struct Reader<R: BufRead> {
    lines: LineReader<R>,
    name: String,
    bases: Vec<u8>,
    qual: Vec<u8>,
    /// Where the sequence line is packed to check its bases.
    checked: DnaString,
}

impl<R: BufRead> Reader<R> {
    /// Wraps a buffered source.
    pub fn new(input: R) -> Reader<R> {
        Reader {
            lines: LineReader::new(input),
            name: String::new(),
            bases: Vec::new(),
            qual: Vec::new(),
            checked: DnaString::new(),
        }
    }

    /// The next record, `None` at the end of the stream.
    pub fn next_record(&mut self) -> Result<Option<Record<'_>>, SeqError> {
        let found = self.read_record();
        Ok(self.lines.fuse(found)?.then_some(Record {
            name: &self.name,
            bases: &self.bases,
            qual: Some(&self.qual),
        }))
    }

    /// Reads one record into the buffers; `false` at the end of the stream.
    fn read_record(&mut self) -> Result<bool, SeqError> {
        let header = loop {
            match self.lines.next_line()? {
                None => return Ok(false),
                Some("") => continue,
                Some(line) => break line,
            }
        };
        let Some(name) = header.strip_prefix('@') else {
            return Err(self.format_error("expected '@' header".to_string()));
        };
        self.name.clear();
        self.name.push_str(name.trim());

        let Some(seq) = self.lines.next_line()? else {
            return Err(self.truncated("sequence"));
        };
        self.checked.clear();
        if let Err(SeqError::InvalidBase { position, byte }) =
            self.checked.extend_from_ascii(seq.as_bytes())
        {
            return Err(invalid_base(self.lines.line, position + 1, byte));
        }
        self.bases.clear();
        self.bases.extend_from_slice(seq.as_bytes());

        let Some(sep) = self.lines.next_line()? else {
            return Err(self.truncated("separator"));
        };
        if !sep.starts_with('+') {
            return Err(self.format_error("expected '+' separator".to_string()));
        }

        let Some(qual) = self.lines.next_line()? else {
            return Err(self.truncated("quality"));
        };
        let phred = PHRED_OFFSET..=PHRED_OFFSET + MAX_PHRED;
        if let Some(i) = qual.bytes().position(|c| !phred.contains(&c)) {
            let byte = qual.as_bytes()[i];
            return Err(self.format_error(format!(
                "invalid quality byte {:?} at column {}",
                byte as char,
                i + 1
            )));
        }
        self.qual.clear();
        self.qual.extend(qual.bytes().map(|c| c - PHRED_OFFSET));
        if self.qual.len() != self.bases.len() {
            return Err(SeqError::QualityLengthMismatch {
                record: self.name.clone(),
                seq_len: self.bases.len(),
                qual_len: self.qual.len(),
            });
        }
        Ok(true)
    }

    fn format_error(&self, message: String) -> SeqError {
        SeqError::Format {
            line: self.lines.line,
            message,
        }
    }

    fn truncated(&self, missing: &'static str) -> SeqError {
        SeqError::Truncated {
            line: self.lines.line,
            missing,
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

/// Writes reads as FASTQ. Reads without quality scores get a uniform score of
/// `default_phred`.
pub fn write<W: Write>(mut out: W, reads: &[Read], default_phred: u8) -> Result<(), SeqError> {
    reads
        .iter()
        .try_for_each(|read| write_read(&mut out, read, default_phred))
}

/// Writes a single FASTQ record — the exact byte format of
/// [`write`](fn@write), exposed separately so generators can stream records
/// to a writer one at a time instead of collecting the whole read set first.
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

/// The line-based parser the reader replaced, kept verbatim as the
/// differential oracle: the reader must agree with it on every input, but
/// for the quality-byte error (typed `Format` with a line now), a
/// `LineTooLong` past the bound, and the truncation line the old streaming
/// reader got wrong.
#[cfg(test)]
pub(crate) mod reference {
    use crate::alphabet::Base;
    use crate::dna::DnaString;
    use crate::error::SeqError;
    use crate::quality::{QualityScores, MAX_PHRED, PHRED_OFFSET};
    use crate::read::Read;
    use std::io::BufRead;

    /// `QualityScores::from_fastq_line` as the reference called it.
    fn from_fastq_line(line: &[u8]) -> Result<QualityScores, SeqError> {
        let mut scores = Vec::with_capacity(line.len());
        for (i, &c) in line.iter().enumerate() {
            if !(PHRED_OFFSET..=PHRED_OFFSET + MAX_PHRED).contains(&c) {
                return Err(SeqError::InvalidBase {
                    position: i,
                    byte: c,
                });
            }
            scores.push(c - PHRED_OFFSET);
        }
        Ok(QualityScores::from_phred(scores))
    }

    /// Parses a four-line-per-record FASTQ stream.
    ///
    /// The separator line must start with `+`; its optional repeated name is
    /// ignored, as is customary. Quality strings must match the sequence length.
    pub(crate) fn parse<R: BufRead>(input: R) -> Result<Vec<Read>, SeqError> {
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
            let qual = from_fastq_line(qual_line.as_bytes())?;
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::line::oracle::{assert_agrees, mutilate};
    use crate::MAX_LINE_BYTES;
    use std::io::{Cursor, Read as _};

    const SAMPLE: &str = "@r1\nACGT\n+\nIIII\n@r2 desc\nTT\n+r2 desc\nAB\n";

    fn read_all(text: &[u8]) -> Result<Vec<Read>, SeqError> {
        Reader::new(text).collect()
    }

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

    /// The borrowed record holds the ASCII bases as written and the
    /// qualities with the offset taken off.
    #[test]
    fn next_record_borrows_bases_and_phred_scores() {
        let mut reader = Reader::new("@ r1 \nacGT\n+\nI#II\n".as_bytes());
        let record = reader.next_record().unwrap().unwrap();
        assert_eq!(record.name, "r1");
        assert_eq!(record.bases, b"acGT");
        assert_eq!(record.qual, Some(&[40, 2, 40, 40][..]));
        assert!(reader.next_record().unwrap().is_none());
    }

    #[test]
    fn rejects_quality_length_mismatch() {
        let err = read_all(b"@r\nACGT\n+\nII\n").unwrap_err();
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
        let err = read_all(b"@r\nACGT\nIIII\nIIII\n").unwrap_err();
        assert!(matches!(err, SeqError::Format { line: 3, .. }));
    }

    /// A record cut after its header names the last line read.
    #[test]
    fn rejects_truncated_record() {
        for (text, line, what) in [
            ("@r\nACGT\n+\n", 3, "quality"),
            ("@r\nACGT\n", 2, "separator"),
            ("@r\n", 1, "sequence"),
            ("@a\nA\n+\nI\n\n@r\n", 6, "sequence"),
        ] {
            match read_all(text.as_bytes()) {
                Err(SeqError::Truncated { line: l, missing }) => {
                    assert_eq!((l, missing), (line, what), "{text:?}")
                }
                other => panic!("{text:?}: {other:?}"),
            }
        }
    }

    /// A bad quality byte is a format error on its line, like a bad base.
    #[test]
    fn rejects_a_bad_quality_byte_with_its_line_and_column() {
        let err = read_all(b"@a\nAC\n+\nII\n@r\nACGT\n+\nII\x1fI\n").unwrap_err();
        match err {
            SeqError::Format { line, message } => {
                assert_eq!(line, 8);
                assert_eq!(message, "invalid quality byte '\\u{1f}' at column 3");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejects_a_bad_base_with_its_line_and_column() {
        let err = read_all(b"@r\nACNT\n+\nIIII\n").unwrap_err();
        match err {
            SeqError::Format { line, message } => {
                assert_eq!(
                    (line, message.as_str()),
                    (2, "invalid base 'N' at column 3")
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn crlf_line_endings_parse_identically() {
        let crlf = SAMPLE.replace('\n', "\r\n");
        assert_eq!(
            parse(Cursor::new(crlf)).unwrap(),
            parse(Cursor::new(SAMPLE)).unwrap()
        );
    }

    #[test]
    fn reading_stops_after_an_error() {
        let mut reader = Reader::new("@r1\nACGT\n+\nII\n@r2\nTT\n+\nAB\n".as_bytes());
        assert!(reader.next().unwrap().is_err());
        assert!(reader.next().is_none());
    }

    /// Every prefix of a valid two-record file reads as the reference
    /// parses it: never a panic, at most the complete records.
    #[test]
    fn every_truncation_point_agrees_with_the_reference() {
        for cut in 0..=SAMPLE.len() {
            let prefix = &SAMPLE.as_bytes()[..cut];
            assert_agrees(prefix, read_all(prefix), reference::parse(prefix));
        }
    }

    /// A newline-free stream ends in `LineTooLong` once the line buffer is
    /// at the bound, and the buffer never grows past it.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn an_endless_line_is_refused_at_the_bound() {
        let endless = std::io::repeat(b'A').take(MAX_LINE_BYTES as u64 + 1);
        let mut reader = Reader::new(std::io::BufReader::new(b"@r\n".chain(endless)));
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

    /// A syntactically valid FASTQ byte stream built from arbitrary records.
    fn render(records: &[Vec<(u8, u8)>]) -> Vec<u8> {
        let mut text = Vec::new();
        for (i, pairs) in records.iter().enumerate() {
            text.extend_from_slice(format!("@r{i}\n").as_bytes());
            for &(b, _) in pairs {
                text.push(crate::Base::from_code(b % 4).to_ascii());
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
    /// insertions, deletions, CRLF conversion — composed): the reader
    /// never panics and agrees with the reference on acceptance, on the
    /// reads, and on the error variant and its line.
    #[test]
    fn mutilated_input_agrees_with_the_reference() {
        fc_rng::cases(256, |rng| {
            let records = rng.vec(0..5, |r| {
                r.vec(0..20, |r| (r.range(0u8..4), r.range(0u8..94)))
            });
            let mut text = render(&records);
            for _ in 0..rng.range(0..4) {
                mutilate(&mut text, rng);
            }
            assert_agrees(&text, read_all(&text), reference::parse(&text[..]));
        });
    }
}

//! The one way a sequence file is read: its format chosen by extension,
//! its records streamed by that format's reader.

use crate::error::SeqError;
use crate::fasta;
use crate::fastq;
use crate::read::{Read, Record};
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;

/// A FASTA or FASTQ record reader; [`open`] picks the format.
/// [`next_record`](SeqReader::next_record) borrows each record, and as an
/// [`Iterator`] it yields owned [`Read`]s, exactly as the format's own
/// reader does.
pub enum SeqReader<R: BufRead> {
    /// `.fasta`, `.fa` or `.fna`.
    Fasta(fasta::Reader<R>),
    /// `.fastq` or `.fq`.
    Fastq(fastq::Reader<R>),
}

impl<R: BufRead> SeqReader<R> {
    /// The next record, `None` at the end of the stream.
    pub fn next_record(&mut self) -> Result<Option<Record<'_>>, SeqError> {
        match self {
            SeqReader::Fasta(r) => r.next_record(),
            SeqReader::Fastq(r) => r.next_record(),
        }
    }
}

impl<R: BufRead> Iterator for SeqReader<R> {
    type Item = Result<Read, SeqError>;

    fn next(&mut self) -> Option<Result<Read, SeqError>> {
        match self {
            SeqReader::Fasta(r) => r.next(),
            SeqReader::Fastq(r) => r.next(),
        }
    }
}

/// Opens `path` as a record reader by its extension, in any case:
/// `.fasta`/`.fa`/`.fna` or `.fastq`/`.fq`. Any other extension is
/// [`SeqError::UnknownExtension`], before the file is opened.
pub fn open(path: &Path) -> Result<SeqReader<BufReader<File>>, SeqError> {
    let ext = path
        .extension()
        .and_then(|e| e.to_str())
        .map(str::to_ascii_lowercase);
    let input = || File::open(path).map(BufReader::new);
    match ext.as_deref() {
        Some("fasta" | "fa" | "fna") => Ok(SeqReader::Fasta(fasta::Reader::new(input()?))),
        Some("fastq" | "fq") => Ok(SeqReader::Fastq(fastq::Reader::new(input()?))),
        _ => Err(SeqError::UnknownExtension),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each extension, in either case, opens its format's reader; any
    /// other is refused by name before the file is touched.
    #[test]
    fn the_extension_picks_the_reader() {
        let dir = std::env::temp_dir().join(format!("fc-seq-format-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (name, text) in [
            ("r.fasta", ">a\nACGT\n"),
            ("r.FA", ">a\nACGT\n"),
            ("r.fna", ">a\nACGT\n"),
            ("r.fastq", "@a\nACGT\n+\nIIII\n"),
            ("r.Fq", "@a\nACGT\n+\nIIII\n"),
        ] {
            let path = dir.join(name);
            std::fs::write(&path, text).unwrap();
            let reads: Vec<Read> = open(&path).unwrap().collect::<Result<_, _>>().unwrap();
            assert_eq!(reads.len(), 1, "{name}");
            assert_eq!(reads[0].qual.is_some(), text.starts_with('@'), "{name}");
        }
        for name in ["r.txt", "r", "fastq", "r.fastq.gz"] {
            let err = open(&dir.join(name)).err().unwrap();
            assert!(matches!(err, SeqError::UnknownExtension), "{name}");
            assert!(err
                .to_string()
                .contains("expected .fasta/.fa/.fna/.fastq/.fq"));
        }
        assert!(matches!(open(&dir.join("absent.fq")), Err(SeqError::Io(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

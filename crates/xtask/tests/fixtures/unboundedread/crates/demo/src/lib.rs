//! FC011 fixture: seeded unbounded whole-input reads next to their
//! bounded, stream-shaped counterparts.
#![forbid(unsafe_code)]
use std::fs;
use std::io::{BufRead, BufReader, Read};

/// Positive: allocates a buffer sized by whatever is on disk.
pub fn slurp_bytes(path: &str) -> Vec<u8> {
    fs::read(path).unwrap_or_default()
}

/// Positive: same slurp through the fully qualified path.
pub fn slurp_text(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// Positive: unbounded stream slurp via the `Read` trait.
pub fn slurp_stream(mut r: impl Read) -> Vec<u8> {
    let mut buf = Vec::new();
    let _ = r.read_to_end(&mut buf);
    buf
}

/// Negative: the `take` cap bounds the read explicitly.
pub fn bounded_stream(r: impl Read, cap: u64) -> Vec<u8> {
    let mut buf = Vec::new();
    let _ = r.take(cap).read_to_end(&mut buf);
    buf
}

/// Negative: incremental streaming never holds the whole input.
pub fn count_lines(r: impl Read) -> usize {
    BufReader::new(r).lines().count()
}

/// Negative: `Read::read` fills a fixed-size chunk, not the whole input.
pub fn first_chunk(mut r: impl Read) -> usize {
    let mut chunk = [0u8; 4096];
    r.read(&mut chunk).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn fixtures_may_slurp() {
        let _ = std::fs::read("fixture");
    }
}

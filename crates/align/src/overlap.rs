//! Overlap records: the edges-to-be of the overlap graph.

use fc_seq::ReadId;

/// How two reads overlap (paper §II-B: prefix/suffix dovetails and
/// containments).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OverlapKind {
    /// The suffix of `a` aligns to the prefix of `b`; reading `a` then `b`
    /// walks left-to-right along the target sequence.
    SuffixPrefix,
    /// `b` is entirely contained within `a`.
    ContainsB,
    /// `a` is entirely contained within `b`.
    ContainedInB,
}

/// A verified overlap between two reads.
///
/// `a` and `b` are store read ids (each strand is its own read). For
/// [`OverlapKind::SuffixPrefix`], `shift` is how far `b`'s start lies to the
/// right of `a`'s start on the common layout — i.e. the number of `a` bases
/// that precede the overlap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Overlap {
    /// First read.
    pub a: ReadId,
    /// Second read.
    pub b: ReadId,
    /// Geometry of the overlap.
    pub kind: OverlapKind,
    /// Offset of `b`'s first base relative to `a`'s first base (≥ 0 for
    /// dovetails; for containments, the offset of the inner read within the
    /// outer one).
    pub shift: u32,
    /// Alignment length in columns (the paper stores this as the edge
    /// weight).
    pub len: u32,
    /// Matching columns of the alignment; [`Overlap::identity`] is
    /// `matches / len`.
    pub matches: u32,
}

const _: () = assert!(std::mem::size_of::<Overlap>() == 24);

impl Overlap {
    /// Alignment identity in `[0, 1]`: the fraction of columns that match,
    /// exactly as [`crate::AlignmentSummary::identity`] computes it.
    pub fn identity(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.matches as f64 / self.len as f64
        }
    }

    /// For a dovetail overlap, the directed edge it induces in the overlap
    /// graph: `(source, target)` where the suffix of `source` matches the
    /// prefix of `target`. Containments induce no edge (they are removed in
    /// graph simplification, paper §V-B).
    pub fn edge(&self) -> Option<(ReadId, ReadId)> {
        match self.kind {
            OverlapKind::SuffixPrefix => Some((self.a, self.b)),
            _ => None,
        }
    }

    /// The contained read, if this is a containment overlap.
    pub fn contained(&self) -> Option<ReadId> {
        match self.kind {
            OverlapKind::ContainsB => Some(self.b),
            OverlapKind::ContainedInB => Some(self.a),
            OverlapKind::SuffixPrefix => None,
        }
    }
}

impl fc_ckpt::Codec for OverlapKind {
    fn encode(&self, w: &mut fc_ckpt::Writer) {
        w.put_u8(match self {
            OverlapKind::SuffixPrefix => 0,
            OverlapKind::ContainsB => 1,
            OverlapKind::ContainedInB => 2,
        });
    }

    fn decode(r: &mut fc_ckpt::Reader<'_>) -> Result<OverlapKind, fc_ckpt::CkptError> {
        match r.u8()? {
            0 => Ok(OverlapKind::SuffixPrefix),
            1 => Ok(OverlapKind::ContainsB),
            2 => Ok(OverlapKind::ContainedInB),
            tag => Err(fc_ckpt::CkptError::Decode {
                detail: format!("invalid OverlapKind tag {tag}"),
            }),
        }
    }
}

impl fc_ckpt::Codec for Overlap {
    fn encode(&self, w: &mut fc_ckpt::Writer) {
        w.put_u32(self.a.0);
        w.put_u32(self.b.0);
        self.kind.encode(w);
        w.put_u32(self.shift);
        w.put_u32(self.len);
        w.put_u32(self.matches);
    }

    fn decode(r: &mut fc_ckpt::Reader<'_>) -> Result<Overlap, fc_ckpt::CkptError> {
        Ok(Overlap {
            a: ReadId(r.u32()?),
            b: ReadId(r.u32()?),
            kind: OverlapKind::decode(r)?,
            shift: r.u32()?,
            len: r.u32()?,
            matches: r.u32()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn overlap(kind: OverlapKind) -> Overlap {
        Overlap {
            a: ReadId(1),
            b: ReadId(2),
            kind,
            shift: 3,
            len: 50,
            matches: 48,
        }
    }

    #[test]
    fn dovetail_edge_direction() {
        assert_eq!(
            overlap(OverlapKind::SuffixPrefix).edge(),
            Some((ReadId(1), ReadId(2)))
        );
        assert_eq!(overlap(OverlapKind::ContainsB).edge(), None);
    }

    #[test]
    fn checkpoint_codec_round_trips_every_kind() {
        for kind in [
            OverlapKind::SuffixPrefix,
            OverlapKind::ContainsB,
            OverlapKind::ContainedInB,
        ] {
            let o = overlap(kind);
            let bytes = fc_ckpt::encode_to_vec(&o);
            let back: Overlap = fc_ckpt::decode_from_slice(&bytes).unwrap();
            assert_eq!(back, o);
        }
        // An unknown kind tag must be a decode error, not a panic.
        let mut w = fc_ckpt::Writer::new();
        w.put_u32(1);
        w.put_u32(2);
        w.put_u8(9);
        w.put_u32(0);
        w.put_u32(0);
        w.put_u32(0);
        assert!(fc_ckpt::decode_from_slice::<Overlap>(&w.into_bytes()).is_err());
    }

    /// `identity()` is the verifier's `matches / columns`, bit for bit, and
    /// 0 for an empty alignment.
    #[test]
    fn identity_is_matches_over_len() {
        let o = overlap(OverlapKind::SuffixPrefix);
        let summary = crate::AlignmentSummary {
            score: 0,
            columns: o.len,
            matches: o.matches,
        };
        assert_eq!(o.identity().to_bits(), summary.identity().to_bits());
        assert_eq!(o.identity(), 0.96);
        let empty = Overlap {
            len: 0,
            matches: 0,
            ..o
        };
        assert_eq!(empty.identity(), 0.0);
    }

    #[test]
    fn contained_read_identified() {
        assert_eq!(overlap(OverlapKind::ContainsB).contained(), Some(ReadId(2)));
        assert_eq!(
            overlap(OverlapKind::ContainedInB).contained(),
            Some(ReadId(1))
        );
        assert_eq!(overlap(OverlapKind::SuffixPrefix).contained(), None);
    }
}

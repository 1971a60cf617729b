//! The four-letter DNA alphabet.

use std::fmt;

/// What [`ASCII_CODES`] holds for a byte that is not a base.
pub(crate) const NOT_A_BASE: u8 = 4;

/// The 2-bit code of each byte of `ACGTacgt`, [`NOT_A_BASE`] for the rest:
/// packing looks bases up here, because a branch per base mispredicts on
/// random sequence.
pub(crate) const ASCII_CODES: [u8; 256] = {
    let mut codes = [NOT_A_BASE; 256];
    let mut i = 0;
    while i < 8 {
        codes[b"ACGTacgt"[i] as usize] = (i % 4) as u8;
        i += 1;
    }
    codes
};

/// A single DNA nucleotide.
///
/// Bases are represented by their 2-bit code (`A=0, C=1, G=2, T=3`), which is
/// also the packing used by [`crate::DnaString`]. The complement of a base is
/// its bitwise negation in this encoding (`A<->T`, `C<->G`), which makes
/// reverse-complementing cheap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Base {
    /// Adenine.
    A = 0,
    /// Cytosine.
    C = 1,
    /// Guanine.
    G = 2,
    /// Thymine.
    T = 3,
}

impl Base {
    /// All four bases in code order.
    pub const ALL: [Base; 4] = [Base::A, Base::C, Base::G, Base::T];

    /// Builds a base from its 2-bit code. Only the two low bits are used.
    #[inline]
    pub fn from_code(code: u8) -> Base {
        match code & 0b11 {
            0 => Base::A,
            1 => Base::C,
            2 => Base::G,
            _ => Base::T,
        }
    }

    /// The 2-bit code of this base.
    #[inline]
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Parses an ASCII character (case-insensitive). Returns `None` for
    /// anything outside `ACGTacgt` — including IUPAC ambiguity codes, which
    /// the assembler does not model.
    #[inline]
    pub fn from_ascii(c: u8) -> Option<Base> {
        let code = ASCII_CODES[usize::from(c)];
        (code != NOT_A_BASE).then(|| Base::from_code(code))
    }

    /// Uppercase ASCII letter for this base.
    #[inline]
    pub fn to_ascii(self) -> u8 {
        match self {
            Base::A => b'A',
            Base::C => b'C',
            Base::G => b'G',
            Base::T => b'T',
        }
    }

    /// Watson–Crick complement (`A<->T`, `C<->G`).
    #[inline]
    pub fn complement(self) -> Base {
        Base::from_code(3 - self.code())
    }

    /// The three bases that are *not* this one, in code order. Used by
    /// mutation simulators to pick a substitution.
    #[inline]
    pub fn others(self) -> [Base; 3] {
        let mut out = [Base::A; 3];
        let mut i = 0;
        for b in Base::ALL {
            if b != self {
                out[i] = b;
                i += 1;
            }
        }
        out
    }
}

impl fmt::Display for Base {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_ascii() as char)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip() {
        for code in 0..4u8 {
            assert_eq!(Base::from_code(code).code(), code);
        }
    }

    #[test]
    fn ascii_round_trip_and_case() {
        for b in Base::ALL {
            assert_eq!(Base::from_ascii(b.to_ascii()), Some(b));
            assert_eq!(Base::from_ascii(b.to_ascii().to_ascii_lowercase()), Some(b));
        }
        assert_eq!(Base::from_ascii(b'N'), None);
        assert_eq!(Base::from_ascii(b'-'), None);
    }

    #[test]
    fn complement_is_involution() {
        for b in Base::ALL {
            assert_eq!(b.complement().complement(), b);
        }
        assert_eq!(Base::A.complement(), Base::T);
        assert_eq!(Base::C.complement(), Base::G);
    }

    #[test]
    fn others_excludes_self() {
        for b in Base::ALL {
            let o = b.others();
            assert_eq!(o.len(), 3);
            assert!(!o.contains(&b));
        }
    }
}

//! The one adjacency layout of this crate: compressed sparse rows.
//!
//! Every row of a graph lives in one array; row `v` owns the fixed extent
//! `entries[offsets[v]..offsets[v + 1]]`. [`crate::LevelGraph`] reads whole
//! extents; [`crate::DiGraph`] wraps two of these in [`LiveCsr`], whose rows
//! shrink inside their extents when §V removes edges. Rows keep
//! first-insertion order — what pushing onto one `Vec` per node produced —
//! because consumers break ties by position in a row (DESIGN.md §5).

use crate::level::NodeId;
use std::mem::size_of;

/// Rows of `T` in one array. `offsets` holds `n + 1` non-decreasing extent
/// bounds starting at 0, so the graph of no nodes is `[0]` however it was
/// made.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Csr<T> {
    offsets: Vec<u32>,
    entries: Vec<T>,
}

impl<T> Default for Csr<T> {
    fn default() -> Csr<T> {
        Csr {
            offsets: vec![0],
            entries: Vec::new(),
        }
    }
}

impl<T> Csr<T> {
    /// Every entry of every row, in row order.
    pub(crate) fn entries(&self) -> &[T] {
        &self.entries
    }

    /// Row `v`.
    #[inline]
    pub(crate) fn row(&self, v: NodeId) -> &[T] {
        &self.entries[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }

    /// Bytes held on the heap: exact, the two arrays carry no slack.
    pub(crate) fn heap_bytes(&self) -> usize {
        vec_bytes(&self.offsets) + vec_bytes(&self.entries)
    }
}

/// Bytes a `Vec`'s buffer holds on the heap (its capacity, not its length).
pub(crate) fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * size_of::<T>()
}

impl<T: Copy + Default> Csr<T> {
    /// Builds `n` rows from `(row, entry)` items by counting, scatter and
    /// in-extent de-duplication (the `KmerIndex` recipe): an item is appended
    /// to its row unless `merge(held, &item)` folds it into an entry the row
    /// already holds and says so. No per-row allocation is made, and a row
    /// ends up exactly as pushing-or-merging onto a `Vec` would leave it.
    /// Under [`distinct`] this is count and scatter alone: the row scan has
    /// no effect left to compile, and compaction moves each row onto itself.
    ///
    /// # Panics
    /// Panics when more than `u32::MAX` items are offered: extents are `u32`.
    pub(crate) fn build(
        n: usize,
        items: impl Iterator<Item = (NodeId, T)> + Clone,
        mut merge: impl FnMut(&mut T, &T) -> bool,
    ) -> Csr<T> {
        // `for_each`, not `for`: callers pass nested `flat_map`s, which only
        // internal iteration walks at full speed.
        let mut offsets = vec![0u32; n + 1];
        let mut total = 0usize;
        items.clone().for_each(|(row, _)| {
            offsets[row as usize + 1] += 1;
            total += 1;
        });
        assert!(
            u32::try_from(total).is_ok(),
            "{total} entries exceed u32 extents"
        );
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut entries = vec![T::default(); total];
        let mut live = vec![0usize; n];
        items.for_each(|(row, item)| {
            let (start, len) = (offsets[row as usize] as usize, &mut live[row as usize]);
            if !entries[start..start + *len]
                .iter_mut()
                .any(|e| merge(e, &item))
            {
                entries[start + *len] = item;
                *len += 1;
            }
        });
        // Close the gaps merged items left behind, so extents are tight.
        let mut write = 0;
        for v in 0..n {
            let start = offsets[v] as usize;
            entries.copy_within(start..start + live[v], write);
            offsets[v] = write as u32;
            write += live[v];
        }
        offsets[n] = write as u32;
        entries.truncate(write);
        entries.shrink_to_fit();
        Csr { offsets, entries }
    }
}

/// The `merge` of a [`Csr::build`] whose items cannot repeat: folds nothing.
pub(crate) fn distinct<T>(_held: &mut T, _new: &T) -> bool {
    false
}

/// A [`Csr`] whose rows shrink: row `v` is the first `len[v]` entries of its
/// extent, and a removal compacts inside the extent the way `Vec::retain`
/// compacts inside its buffer, so the survivors keep their order. Removals
/// free nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct LiveCsr<T> {
    extents: Csr<T>,
    len: Vec<u32>,
}

impl<T: Copy> LiveCsr<T> {
    /// Every extent starts full.
    pub(crate) fn new(extents: Csr<T>) -> LiveCsr<T> {
        let len = extents.offsets.windows(2).map(|w| w[1] - w[0]).collect();
        LiveCsr { extents, len }
    }

    /// The live entries of row `v`.
    #[inline]
    pub(crate) fn row(&self, v: NodeId) -> &[T] {
        let start = self.extents.offsets[v as usize] as usize;
        &self.extents.entries[start..start + self.len[v as usize] as usize]
    }

    /// Live entries over all rows.
    pub(crate) fn live(&self) -> usize {
        self.len.iter().map(|&l| l as usize).sum()
    }

    /// Keeps the entries of row `v` that `keep` accepts, in order; returns
    /// whether any was dropped.
    pub(crate) fn retain(&mut self, v: NodeId, mut keep: impl FnMut(&T) -> bool) -> bool {
        let start = self.extents.offsets[v as usize] as usize;
        let len = self.len[v as usize] as usize;
        let row = &mut self.extents.entries[start..start + len];
        let mut kept = 0;
        for i in 0..len {
            if keep(&row[i]) {
                row[kept] = row[i];
                kept += 1;
            }
        }
        self.len[v as usize] = kept as u32;
        kept != len
    }

    /// Bytes held on the heap.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.extents.heap_bytes() + vec_bytes(&self.len)
    }
}

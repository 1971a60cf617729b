//! The one adjacency layout of this crate: compressed sparse rows.
//!
//! Every row of a graph lives in one array; row `v` owns the fixed extent
//! `entries[offsets[v]..offsets[v + 1]]`. [`crate::LevelGraph`] reads whole
//! extents; [`crate::DiGraph`] wraps two of these in [`LiveCsr`], whose rows
//! shrink inside their extents when §V removes edges. Rows keep
//! first-insertion order — what pushing onto one `Vec` per node produced —
//! because consumers break ties by position in a row (DESIGN.md §5).

use crate::level::NodeId;
use fc_exec::Pool;
use fc_obs::Recorder;
use std::mem::size_of;

/// Blocks of rows a [`Csr::build_blocked`] splits its rows into, one pool
/// task each. A constant, so a build's task list is its input's at any
/// thread count.
pub(crate) const ROW_BLOCKS: usize = 8;

/// The [`ROW_BLOCKS`] ranges of `n` items whose weights have the running
/// sums `prefix` (`n + 1` of them, from 0): range `b` starts at the first
/// item whose running sum reaches `b / ROW_BLOCKS` of the total, so ranges
/// are consecutive, weigh about the same, and may be empty.
pub(crate) fn blocks(prefix: &[usize]) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
    let n = prefix.len() - 1;
    let total = prefix[n];
    let start = move |b: usize| match b {
        b if b == ROW_BLOCKS => n,
        b => prefix[..n].partition_point(|&sum| sum * ROW_BLOCKS < b * total),
    };
    (0..ROW_BLOCKS).map(move |b| start(b)..start(b + 1))
}

/// Rows of `T` in one array. `offsets` holds `n + 1` non-decreasing extent
/// bounds starting at 0, so the graph of no nodes is `[0]` however it was
/// made.
#[derive(Debug, Clone, PartialEq, Eq)]
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

impl<T: Send> Csr<T> {
    /// Builds `n` rows on `pool` by [`ROW_BLOCKS`] blocks of consecutive
    /// rows, as many rows in each as the split allows. A block is one task:
    /// holding its worker's `scratch`, it pushes each of its rows in turn
    /// with `row(v, scratch, entries)` onto an array of its own, sized once
    /// to the sum of its rows' `bound`s (an estimate: the array grows past
    /// it if it must). The pool's in-order sink appends each block's entries
    /// as it arrives and offsets its row ends by the entries before it — a
    /// prefix sum over the block lengths — so the rows land in row order at
    /// any thread count, and a block is freed as soon as it is copied.
    ///
    /// # Panics
    /// Panics when the rows hold more than `u32::MAX` entries: extents are
    /// `u32`.
    pub(crate) fn build_blocked<S>(
        n: usize,
        pool: &Pool,
        rec: &Recorder,
        scratch: impl Fn() -> S + Sync,
        bound: impl Fn(NodeId) -> usize + Sync,
        row: impl Fn(NodeId, &mut S, &mut Vec<T>) + Sync,
    ) -> Csr<T> {
        let block = |b: usize| n * b / ROW_BLOCKS..n * (b + 1) / ROW_BLOCKS;
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut entries = Vec::new();
        pool.for_each_ordered(
            ROW_BLOCKS,
            rec,
            scratch,
            |b, s| {
                let rows = block(b);
                let room = rows.clone().map(|v| bound(v as NodeId)).sum();
                let (mut out, mut ends) =
                    (Vec::with_capacity(room), Vec::with_capacity(rows.len()));
                for v in rows {
                    row(v as NodeId, s, &mut out);
                    ends.push(out.len());
                }
                (out, ends)
            },
            |(mut out, ends): (Vec<T>, Vec<usize>)| {
                let (base, done) = (entries.len(), offsets.len() - 1);
                let needed = base + out.len();
                assert!(
                    u32::try_from(needed).is_ok(),
                    "{needed} entries exceed u32 extents"
                );
                if needed > entries.capacity() {
                    // Room for the rows still to come at the rate so far,
                    // rather than doubling: the array ends near its size.
                    let rows = done + ends.len();
                    let expected = needed.div_ceil(rows.max(1)) * n;
                    entries.reserve_exact(expected.max(needed) - base);
                }
                offsets.extend(ends.into_iter().map(|end| (base + end) as u32));
                entries.append(&mut out);
            },
        );
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

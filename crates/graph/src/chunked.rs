//! A persistent sparse array over `Arc`'d fixed-size chunks.
//!
//! Online ingestion publishes a new serving generation per batch while
//! older generations keep answering the requests pinned to them. A
//! [`Chunked`] array lets those generations share storage: cloning it
//! copies one pointer, and writing an entry copies only the chunks on
//! the path from the root to that entry (copy-on-write per chunk, via
//! `Arc::make_mut`). A generation that writes `k` entries therefore
//! pays `O(k · depth · WIDTH)` pointer copies, never the length of the
//! history, and every chunk it did not write stays shared with its
//! parent.
//!
//! Entries are addressed by index and may be absent: the array serves
//! both as an append-only vector ([`Chunked::push`]) and as a sparse
//! table keyed by node index ([`Chunked::set`]). The structure is a
//! radix trie of `WIDTH`-way chunks that grows a level whenever an
//! index outgrows it; subtrees with no entries are never allocated.
//!
//! ```
//! use fd_graph::Chunked;
//!
//! let mut a: Chunked<u32> = Chunked::default();
//! a.push(7);
//! a.set(100, 9);
//! let b = a.clone(); // shares every chunk with `a`
//! a.set(100, 10); // copies only the path to entry 100
//! assert_eq!((a.get(0), a.get(50), a.get(100)), (Some(&7), None, Some(&10)));
//! assert_eq!(b.get(100), Some(&9));
//! assert_eq!(a.len(), 101);
//! ```

use std::sync::Arc;

const BITS: u32 = 5;
/// Slots per chunk.
const WIDTH: usize = 1 << BITS;
const MASK: usize = WIDTH - 1;

/// `WIDTH` slots: child chunks on inner levels, entries on the leaf
/// level.
type Chunk<T> = [Slot<T>; WIDTH];

#[derive(Debug, Clone)]
enum Slot<T> {
    Empty,
    Chunk(Arc<Chunk<T>>),
    Entry(T),
}

fn empty_chunk<T>() -> Chunk<T> {
    std::array::from_fn(|_| Slot::Empty)
}

/// A persistent sparse array; see the module docs.
#[derive(Debug)]
pub struct Chunked<T> {
    root: Option<Arc<Chunk<T>>>,
    /// Inner levels above the leaves: indices below
    /// `WIDTH^(height + 1)` are addressable without growing.
    height: u32,
    /// One past the highest index ever written.
    len: usize,
}

impl<T> Clone for Chunked<T> {
    fn clone(&self) -> Self {
        Self { root: self.root.clone(), height: self.height, len: self.len }
    }
}

impl<T> Default for Chunked<T> {
    fn default() -> Self {
        Self { root: None, height: 0, len: 0 }
    }
}

impl<T> Chunked<T> {
    /// One past the highest index ever written (for an array filled by
    /// [`Chunked::push`] alone, the number of entries).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The entry at `index`, or `None` when it was never written.
    pub fn get(&self, index: usize) -> Option<&T> {
        if index >= self.len {
            return None;
        }
        let mut chunk = self.root.as_deref()?;
        let mut level = self.height;
        loop {
            match &chunk[(index >> (level * BITS)) & MASK] {
                Slot::Chunk(child) => {
                    chunk = child;
                    level -= 1;
                }
                Slot::Entry(value) => return Some(value),
                Slot::Empty => return None,
            }
        }
    }
}

impl<T: Clone> Chunked<T> {
    /// Writes `value` at `index`, copying the chunks on the path to it
    /// that are shared with another clone.
    pub fn set(&mut self, index: usize, value: T) {
        while index.checked_shr(BITS * (self.height + 1)).unwrap_or(0) != 0 {
            if let Some(root) = self.root.take() {
                let mut chunk = empty_chunk();
                chunk[0] = Slot::Chunk(root);
                self.root = Some(Arc::new(chunk));
            }
            self.height += 1;
        }
        let root = self.root.get_or_insert_with(|| Arc::new(empty_chunk()));
        set_in(root, self.height, index, value);
        self.len = self.len.max(index + 1);
    }

    /// Appends `value` at index [`Chunked::len`].
    pub fn push(&mut self, value: T) {
        self.set(self.len, value);
    }
}

fn set_in<T: Clone>(chunk: &mut Arc<Chunk<T>>, level: u32, index: usize, value: T) {
    let slot = &mut Arc::make_mut(chunk)[(index >> (level * BITS)) & MASK];
    if level == 0 {
        *slot = Slot::Entry(value);
        return;
    }
    if !matches!(slot, Slot::Chunk(_)) {
        *slot = Slot::Chunk(Arc::new(empty_chunk()));
    }
    if let Slot::Chunk(child) = slot {
        set_in(child, level - 1, index, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_and_sparse_set_across_levels() {
        let mut a: Chunked<usize> = Chunked::default();
        assert!(a.is_empty());
        for i in 0..2_000 {
            a.push(i * 3);
        }
        a.set(40_000, 1);
        assert_eq!(a.len(), 40_001);
        for i in 0..2_000 {
            assert_eq!(a.get(i), Some(&(i * 3)));
        }
        assert_eq!(a.get(2_000), None);
        assert_eq!(a.get(39_999), None);
        assert_eq!(a.get(40_000), Some(&1));
        assert_eq!(a.get(usize::MAX), None);
    }

    #[test]
    fn clones_share_chunks_and_diverge_independently() {
        let mut parent: Chunked<Arc<[f32]>> = Chunked::default();
        for i in 0..100 {
            parent.push(vec![i as f32; 4].into());
        }
        let mut child = parent.clone();
        child.set(3, vec![-1.0; 4].into());
        child.push(vec![9.0; 4].into());
        assert_eq!(&parent.get(3).unwrap()[..], &[3.0; 4]);
        assert_eq!(parent.get(100), None);
        assert_eq!(&child.get(3).unwrap()[..], &[-1.0; 4]);
        assert_eq!(&child.get(100).unwrap()[..], &[9.0; 4]);
        // The written leaves were copied; the untouched one is shared.
        let leaf = |a: &Chunked<Arc<[f32]>>, k: usize| match &a.root.as_deref().expect("root")[k] {
            Slot::Chunk(leaf) => Arc::clone(leaf),
            _ => panic!("100 entries need an inner root over leaves"),
        };
        assert!(!Arc::ptr_eq(&leaf(&parent, 0), &leaf(&child, 0)));
        assert!(Arc::ptr_eq(&leaf(&parent, 2), &leaf(&child, 2)));
    }
}

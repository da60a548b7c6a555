//! A copy-on-write chunked vector: the layout that makes a published
//! snapshot of a space cost O(1), not O(space).
//!
//! A [`ChunkVec`] keeps its elements in fixed-size chunks, each behind an
//! `Arc`, under a shallow tree of `Arc`-shared directories that are
//! [`CHUNK`] pointers wide. Cloning one copies the root pointer only, so a
//! clone and its original share every element until one of them writes:
//! a write copies the chunk it lands in and the directories above it, when
//! those are still shared, and leaves the rest shared. A write batch
//! between two published snapshots therefore copies the chunks it touched
//! and nothing else.

use std::fmt;
use std::ops::{Index, IndexMut};
use std::sync::Arc;

const CHUNK_BITS: u32 = 5;

/// Elements per chunk, and chunk pointers per directory. A power of two,
/// so locating an element is shifts and masks. Small enough that copying a
/// touched chunk costs a few microseconds; large enough that the tree
/// stays two or three levels deep for any space a desktop holds.
pub const CHUNK: usize = 1 << CHUNK_BITS;

/// A tree node: a chunk of elements, or a directory of subtrees.
#[derive(Clone)]
enum Node<T> {
    Chunk(Vec<T>),
    Dir(Vec<Arc<Node<T>>>),
}

/// A growable vector whose clones share fixed-size chunks copy-on-write
/// (see the module docs).
pub struct ChunkVec<T> {
    root: Arc<Node<T>>,
    len: usize,
    /// Directory levels above the chunks.
    height: u32,
}

impl<T> Clone for ChunkVec<T> {
    fn clone(&self) -> Self {
        ChunkVec {
            root: Arc::clone(&self.root),
            len: self.len,
            height: self.height,
        }
    }
}

impl<T> Default for ChunkVec<T> {
    fn default() -> Self {
        ChunkVec {
            root: Arc::new(Node::Chunk(Vec::new())),
            len: 0,
            height: 0,
        }
    }
}

/// Which child of a directory at `level` (0 = a chunk's parent) holds
/// element `i`.
fn child(i: usize, level: u32) -> usize {
    (i >> (CHUNK_BITS * (level + 1))) & (CHUNK - 1)
}

/// Where element `i` sits inside its chunk.
fn slot(i: usize) -> usize {
    i & (CHUNK - 1)
}

impl<T> ChunkVec<T> {
    /// An empty vector.
    pub fn new() -> Self {
        ChunkVec::default()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when there are no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The element at `i`, if there is one.
    pub fn get(&self, i: usize) -> Option<&T> {
        if i >= self.len {
            return None;
        }
        let mut node = &*self.root;
        for level in (0..self.height).rev() {
            match node {
                Node::Dir(children) => node = &children[child(i, level)],
                Node::Chunk(_) => unreachable!("chunks sit at the bottom level"),
            }
        }
        match node {
            Node::Chunk(items) => Some(&items[slot(i)]),
            Node::Dir(_) => unreachable!("directories sit above the chunks"),
        }
    }

    /// The elements in order.
    pub fn iter(&self) -> Iter<'_, T> {
        match &*self.root {
            Node::Chunk(items) => Iter {
                dirs: Vec::new(),
                chunk: items.iter(),
            },
            Node::Dir(children) => Iter {
                dirs: vec![children.iter()],
                chunk: [].iter(),
            },
        }
    }
}

impl<T: Clone> ChunkVec<T> {
    /// Append an element, copying the chunk and directories on its path
    /// first where a clone still shares them.
    pub fn push(&mut self, value: T) {
        let i = self.len;
        if i == CHUNK << (CHUNK_BITS * self.height) {
            // Full at this height: the old tree becomes the first child of
            // a new root.
            self.root = Arc::new(Node::Dir(vec![Arc::clone(&self.root)]));
            self.height += 1;
        }
        let mut node = Arc::make_mut(&mut self.root);
        for level in (0..self.height).rev() {
            let Node::Dir(children) = node else {
                unreachable!("chunks sit at the bottom level")
            };
            if child(i, level) == children.len() {
                let fresh = if level == 0 {
                    Node::Chunk(Vec::new())
                } else {
                    Node::Dir(Vec::new())
                };
                children.push(Arc::new(fresh));
            }
            node = Arc::make_mut(&mut children[child(i, level)]);
        }
        let Node::Chunk(items) = node else {
            unreachable!("directories sit above the chunks")
        };
        if items.len() == items.capacity() {
            // Grow like a `Vec`, but never past one chunk.
            let want = (2 * items.len()).clamp(4, CHUNK);
            items.reserve_exact(want - items.len());
        }
        items.push(value);
        self.len += 1;
    }

    /// Grow to `len` elements, filling with `fill()`; a no-op when already
    /// that long.
    pub fn resize_with(&mut self, len: usize, mut fill: impl FnMut() -> T) {
        while self.len < len {
            self.push(fill());
        }
    }

    /// Call `f` on every element, in order, writably. Copies every chunk a
    /// clone still shares.
    pub fn for_each_mut(&mut self, mut f: impl FnMut(&mut T)) {
        fn walk<T: Clone>(node: &mut Arc<Node<T>>, f: &mut impl FnMut(&mut T)) {
            match Arc::make_mut(node) {
                Node::Chunk(items) => items.iter_mut().for_each(f),
                Node::Dir(children) => children.iter_mut().for_each(|c| walk(c, f)),
            }
        }
        walk(&mut self.root, &mut f);
    }
}

/// In-order iterator over a [`ChunkVec`].
pub struct Iter<'a, T> {
    /// The unvisited children of each directory on the path to `chunk`.
    dirs: Vec<std::slice::Iter<'a, Arc<Node<T>>>>,
    chunk: std::slice::Iter<'a, T>,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        loop {
            if let Some(item) = self.chunk.next() {
                return Some(item);
            }
            match self.dirs.last_mut()?.next() {
                Some(next) => match &**next {
                    Node::Chunk(items) => self.chunk = items.iter(),
                    Node::Dir(children) => self.dirs.push(children.iter()),
                },
                None => {
                    self.dirs.pop();
                }
            }
        }
    }
}

impl<T> Index<usize> for ChunkVec<T> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        match self.get(i) {
            Some(item) => item,
            None => panic!("index {i} out of range for length {}", self.len),
        }
    }
}

/// Writing through an index copies the element's chunk (and the
/// directories above it) first where a clone still shares them.
impl<T: Clone> IndexMut<usize> for ChunkVec<T> {
    fn index_mut(&mut self, i: usize) -> &mut T {
        assert!(
            i < self.len,
            "index {i} out of range for length {}",
            self.len
        );
        let mut node = Arc::make_mut(&mut self.root);
        for level in (0..self.height).rev() {
            let Node::Dir(children) = node else {
                unreachable!("chunks sit at the bottom level")
            };
            node = Arc::make_mut(&mut children[child(i, level)]);
        }
        let Node::Chunk(items) = node else {
            unreachable!("directories sit above the chunks")
        };
        &mut items[slot(i)]
    }
}

/// Builds the tree bottom-up: full chunks first, then each directory level
/// over the one below, so loading a space walks no paths.
impl<T: Clone> FromIterator<T> for ChunkVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        fn groups<X, Y>(items: impl Iterator<Item = X>, wrap: impl Fn(Vec<X>) -> Y) -> Vec<Y> {
            let mut items = items.peekable();
            let mut out = Vec::new();
            while items.peek().is_some() {
                out.push(wrap(items.by_ref().take(CHUNK).collect()));
            }
            out
        }
        let mut len = 0;
        let counted = iter.into_iter().inspect(|_| len += 1);
        let mut level = groups(counted, |chunk| Arc::new(Node::Chunk(chunk)));
        let mut height = 0;
        while level.len() > 1 {
            level = groups(level.into_iter(), |dir| Arc::new(Node::Dir(dir)));
            height += 1;
        }
        match level.pop() {
            Some(root) => ChunkVec { root, len, height },
            None => ChunkVec::new(),
        }
    }
}

impl<T: PartialEq> PartialEq for ChunkVec<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<T: fmt::Debug> fmt::Debug for ChunkVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether two vectors share the chunk holding element `i`.
    fn share_chunk<T>(a: &ChunkVec<T>, b: &ChunkVec<T>, i: usize) -> bool {
        match (a.get(i), b.get(i)) {
            (Some(x), Some(y)) => std::ptr::eq(x, y),
            _ => false,
        }
    }

    #[test]
    fn indexes_like_a_vec_across_levels() {
        for n in [
            0,
            1,
            CHUNK,
            CHUNK + 1,
            CHUNK * CHUNK,
            CHUNK * CHUNK + 3 * CHUNK + 5,
        ] {
            let v: ChunkVec<usize> = (0..n).collect();
            assert_eq!(v.len(), n);
            assert!((0..n).all(|i| v[i] == i && v.get(i) == Some(&i)));
            assert_eq!(v.get(n), None);
            assert!(v.iter().copied().eq(0..n), "iterating {n}");
        }
    }

    #[test]
    fn a_clone_shares_chunks_until_a_write() {
        let n = CHUNK * CHUNK + 2 * CHUNK + 3;
        let mut a: ChunkVec<Vec<u32>> = (0..n as u32).map(|i| vec![i]).collect();
        let b = a.clone();
        assert!((0..n).all(|i| share_chunk(&a, &b, i)));
        a[1].push(7);
        a.push(vec![99]);
        // The written chunks were copied; every other one is still shared.
        assert!(!share_chunk(&a, &b, 1));
        assert!(!share_chunk(&a, &b, n - 1), "the tail chunk took the push");
        assert!((CHUNK..n - 3).all(|i| share_chunk(&a, &b, i)));
        assert_eq!(b[1], vec![1]);
        assert_eq!(a[1], vec![1, 7]);
        assert_eq!((a.len(), b.len()), (n + 1, n));
        assert_eq!(a[n], vec![99]);
    }

    #[test]
    fn growing_a_level_keeps_clones_intact() {
        let mut a: ChunkVec<usize> = (0..CHUNK).collect();
        let b = a.clone();
        a.push(CHUNK);
        assert!(b.iter().copied().eq(0..CHUNK));
        assert!(a.iter().copied().eq(0..=CHUNK));
        a.for_each_mut(|x| *x += 1);
        assert!(a.iter().copied().eq(1..=CHUNK + 1));
        assert!(b.iter().copied().eq(0..CHUNK));
    }
}

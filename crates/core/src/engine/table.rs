//! An append-only table whose reads take no lock and touch no reference
//! count: the engine's registry of compiled actions, read once per
//! message.

use std::sync::OnceLock;

use parking_lot::Mutex;

/// Chunk `c` holds `2^c` entries, so 32 chunks hold every `u32` index.
const CHUNKS: usize = 32;

/// Entries are written once and never move: entry `i` lives in chunk
/// `ilog2(i + 1)`, allocated on first use, so a push never relocates an
/// entry another thread is reading. A read is two acquire loads.
pub(crate) struct AppendOnly<T> {
    chunks: [OnceLock<Box<[OnceLock<T>]>>; CHUNKS],
    /// Entries pushed so far; pushes serialize on it.
    len: Mutex<usize>,
}

fn locate(i: usize) -> (usize, usize) {
    let n = i + 1;
    let c = n.ilog2() as usize;
    (c, n - (1 << c))
}

impl<T> AppendOnly<T> {
    pub(crate) fn new() -> Self {
        AppendOnly {
            chunks: std::array::from_fn(|_| OnceLock::new()),
            len: Mutex::new(0),
        }
    }

    /// Append `value`; returns its index.
    pub(crate) fn push(&self, value: T) -> usize {
        let mut len = self.len.lock();
        let i = *len;
        let (c, off) = locate(i);
        let chunk =
            self.chunks[c].get_or_init(|| (0..1usize << c).map(|_| OnceLock::new()).collect());
        if chunk[off].set(value).is_err() {
            unreachable!("entry {i} is written once");
        }
        *len += 1;
        i
    }

    /// The entry at `i`.
    ///
    /// # Panics
    ///
    /// If nothing was pushed at `i`.
    pub(crate) fn get(&self, i: usize) -> &T {
        let (c, off) = locate(i);
        self.chunks
            .get(c)
            .and_then(OnceLock::get)
            .and_then(|chunk| chunk[off].get())
            .unwrap_or_else(|| panic!("no entry {i}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_keep_their_index_across_chunks() {
        let t = AppendOnly::new();
        for i in 0..100usize {
            assert_eq!(t.push(i * 3), i);
        }
        for i in 0..100usize {
            assert_eq!(*t.get(i), i * 3);
        }
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(1), (1, 0));
        assert_eq!(locate(2), (1, 1));
        assert_eq!(locate(3), (2, 0));
        assert_eq!(locate(u32::MAX as usize - 1).0, CHUNKS - 1);
    }

    #[test]
    #[should_panic(expected = "no entry 5")]
    fn reading_past_the_end_panics() {
        let t = AppendOnly::new();
        t.push(());
        t.get(5);
    }
}

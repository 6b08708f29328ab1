//! The one counting global allocator of the test binaries that measure
//! memory (`crates/am/tests/alloc.rs`, the root `tests/run_memory.rs`):
//! [`System`], keeping the bytes it has live (every thread) and the
//! allocation calls made by threads that opted in with
//! [`count_this_thread`]. A binary includes this file with `#[path]`,
//! which installs it; the counts then cover that process only.

#![allow(dead_code)] // each binary reads one of the two counts

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed, Ordering::SeqCst};

struct Counting;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

/// Tally one allocation call of an opted-in thread.
fn tally() {
    if COUNTED.with(Cell::get) {
        ALLOCS.fetch_add(1, SeqCst);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System` and
// returns what `System` returned, so `System`'s guarantees are this
// allocator's; the counters are bookkeeping beside them, touching only
// atomics and a const-initialized thread-local (no allocation).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE_BYTES.fetch_add(layout.size(), Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally();
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            LIVE_BYTES.fetch_add(layout.size(), Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE_BYTES.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE_BYTES.fetch_add(new_size, Relaxed);
            LIVE_BYTES.fetch_sub(layout.size(), Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes the process has live, by every thread.
pub fn live_bytes() -> usize {
    LIVE_BYTES.load(Relaxed)
}

/// Count this thread's allocation calls from now on.
pub fn count_this_thread() {
    COUNTED.with(|c| c.set(true));
}

/// Allocation calls (reallocations included) made by the opted-in threads.
pub fn allocs() -> u64 {
    ALLOCS.load(SeqCst)
}

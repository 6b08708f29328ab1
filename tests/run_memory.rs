//! Repeated machine runs in one process hold their memory: after a dozen
//! `Run`s the live heap and the thread count are what they were after the
//! first few. The heap is measured by a counting allocator over `System`
//! (the one `crates/am/tests/alloc.rs` uses too), so the test sees what
//! the program holds, not what the allocator keeps from the OS after a
//! free (a resident-set bound flaked on exactly that).
//! This test is its own binary: the allocator counts only this process,
//! and no concurrent test moves its numbers.

#![cfg(target_os = "linux")]

use dgp_algorithms::{seq, Run};
use dgp_graph::generators;

#[path = "../crates/am/tests/common/counting_alloc.rs"]
mod counting_alloc;

/// This process's thread count (`Threads:` in `/proc/self/status`).
fn threads() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("a Threads line")
}

/// Far below one 256 KiB-per-run leak; over a dozen runs the live heap
/// moves by a few hundred bytes at most.
const SLACK_BYTES: usize = 64 * 1024;

#[test]
fn repeated_runs_do_not_grow_the_live_heap_or_thread_count() {
    let el = generators::component_blobs(8, 4_000, 2, 5);
    let want = seq::cc_labels(&el);
    let (live, threads): (Vec<usize>, Vec<u64>) = (0..12)
        .map(|_| {
            assert_eq!(Run::new(2).cc(&el).expect("cc run").result, want);
            (counting_alloc::live_bytes(), threads())
        })
        .unzip();
    // Min, not max: a single run can leave a lazily grown buffer behind
    // that a later run reuses.
    let settled = live[1..5].iter().min().unwrap();
    let last = live[live.len() - 4..].iter().min().unwrap();
    assert!(
        *last <= settled + SLACK_BYTES,
        "live heap grew across runs (bytes after each run): {live:?}"
    );
    // Every rank, worker and backend thread of a run is joined by the
    // time it returns.
    assert!(
        threads.iter().all(|&t| t == threads[0]),
        "threads outlived their run (count after each run): {threads:?}"
    );
}

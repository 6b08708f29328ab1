//! Repeated machine runs in one process hold their memory: after a dozen
//! `Run`s the resident set is no larger than after the first few. This
//! test is its own binary so no concurrent test moves the process's RSS.

#![cfg(target_os = "linux")]

use dgp_algorithms::{seq, Run};
use dgp_graph::generators;

/// This process's resident set, KiB (`VmRSS` in `/proc/self/status`).
fn vm_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("a VmRSS line")
}

#[test]
fn repeated_runs_do_not_grow_the_resident_set() {
    let el = generators::component_blobs(8, 4_000, 2, 5);
    let want = seq::cc_labels(&el);
    let rss: Vec<u64> = (0..12)
        .map(|_| {
            assert_eq!(Run::new(2).cc(&el).expect("cc run").result, want);
            vm_rss_kib()
        })
        .collect();
    // Min, not max: a single run can spike and fall back the next one.
    let settled = rss[1..5].iter().min().unwrap();
    let last = rss[rss.len() - 4..].iter().min().unwrap();
    assert!(
        *last <= settled + 4 * 1024,
        "resident set grew across runs (KiB per run): {rss:?}"
    );
}

//! What the chaos-seeded suites share.

/// The fixed seeds every chaos test sweeps, plus one from
/// `DGP_CHAOS_SEED` when it is set (CI sweeps several). A value that is
/// not a `u64` panics: a typo must not silently run no extra seed.
pub fn seeds() -> Vec<u64> {
    let mut s = vec![0xC0FFEE, 42, 7];
    match std::env::var("DGP_CHAOS_SEED").as_deref() {
        Err(_) | Ok("") => {}
        Ok(v) => s.push(
            v.parse()
                .unwrap_or_else(|e| panic!("DGP_CHAOS_SEED must be a u64, got {v:?}: {e}")),
        ),
    }
    s
}

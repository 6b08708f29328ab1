//! Post-mortem assembly and dump for a failed run.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use super::Shared;
use crate::error::MachineError;
use crate::obs;
use crate::trace::PostMortem;

/// Build the automatic post-mortem for a failed run. Every thread has
/// been joined by the time this runs, so the rings read whole.
pub(super) fn assemble_postmortem(shared: &Shared, err: &MachineError) -> Box<PostMortem> {
    let unacked = shared
        .reliability
        .as_ref()
        .map(|t| t.backlog())
        .unwrap_or_default();
    Box::new(PostMortem::assemble(
        err.to_string(),
        shared.fail_cause.lock().clone(),
        shared.total_sent(),
        shared.total_handled(),
        shared.recorder.all_spans(),
        unacked,
    ))
}

/// Write the rendered post-mortem (and, when profiling was on, a Chrome
/// trace) into the configured dump directory — `MachineConfig::postmortem`
/// or the `DGP_POSTMORTEM_DIR` environment variable. Failures to write are
/// reported on stderr, never escalated: the dump must not mask the error
/// it documents.
pub(super) fn write_postmortem(shared: &Shared, pm: &PostMortem) {
    let dir = match (
        &shared.cfg.postmortem_dir,
        std::env::var_os("DGP_POSTMORTEM_DIR"),
    ) {
        (Some(d), _) => d.clone(),
        (None, Some(d)) => std::path::PathBuf::from(d),
        (None, None) => return,
    };
    static DUMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = DUMP_SEQ.fetch_add(1, Relaxed);
    let tag = format!("{}-{}", std::process::id(), seq);
    let write = |name: String, contents: String| {
        let path = dir.join(name);
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, contents))
        {
            eprintln!(
                "dgp-am: failed to write post-mortem {}: {e}",
                path.display()
            );
        } else {
            eprintln!("dgp-am: post-mortem written to {}", path.display());
        }
    };
    write(format!("postmortem-{tag}.txt"), pm.render());
    if shared.cfg.profile {
        write(
            format!("trace-{tag}.json"),
            obs::chrome_trace_json(&shared.recorder.all_spans(), shared.cfg.ranks),
        );
    }
}

#ifndef SIMRANK_OBS_POSTMORTEM_H_
#define SIMRANK_OBS_POSTMORTEM_H_

// Crash-time postmortem dumps (docs/OBSERVABILITY.md, "Per-query
// events"; docs/ROBUSTNESS.md).
//
// When armed with a path, the first SIMRANK_CHECK failure in the process
// flushes a "simrank-events-v2" document — the flight recorder contents,
// the slow-query reservoir, the rolling-window snapshot, and the failure
// reason + the failing thread's query phase (obs/phase.h) — to that path
// through AtomicFileWriter, then aborts as usual. Every chaos-job abort
// thereby leaves a debuggable artifact: which queries ran last, and
// where the failing thread was.
//
// The hook (util/check.h SetCheckAbortHook) runs at most once per process
// and is registered lazily on first arm, so binaries that never arm a
// path keep a null hook. The dump itself passes through the normal
// "obs.export.write" fault point; an injected failure there simply loses
// the dump (reported on stderr) — the abort still happens.

#include <string>

#include "obs/export.h"
#include "util/status.h"

namespace simrank::obs {

/// Arms crash-time dumps to `path`; an empty path disarms. Thread-safe.
void SetPostmortemPath(const std::string& path);

/// Writes one postmortem events document — the process-wide defaults
/// (flight recorder, slow log, rolling window) plus `info` — to `path`.
/// The abort hook calls this; tests can call it directly.
Status WritePostmortemDump(const std::string& path,
                           const PostmortemInfo& info);

}  // namespace simrank::obs

#endif  // SIMRANK_OBS_POSTMORTEM_H_

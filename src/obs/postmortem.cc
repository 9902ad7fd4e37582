#include "obs/postmortem.h"

#include <cstdio>

#include "util/check.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace simrank::obs {

namespace {

/// The armed dump path. A tiny class (not a bare static string) so the
/// guarding relationship is annotated for the thread-safety analysis.
class PostmortemConfig {
 public:
  static PostmortemConfig& Default() {
    static PostmortemConfig* config = new PostmortemConfig();
    return *config;
  }

  void SetPath(const std::string& path) SIMRANK_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    path_ = path;
  }

  std::string path() const SIMRANK_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return path_;
  }

 private:
  mutable Mutex mutex_;
  std::string path_ SIMRANK_GUARDED_BY(mutex_);
};

// The last-gasp hook (see util/check.h): called once, after the failure
// message, before abort(). Best-effort by design — a failed dump is
// reported on stderr and the abort proceeds.
void PostmortemAbortHook(const char* file, int line, const char* expr,
                         const char* context) {
  const std::string path = PostmortemConfig::Default().path();
  if (path.empty()) return;
  PostmortemInfo info;
  char reason[512];
  std::snprintf(reason, sizeof(reason), "CHECK failed at %s:%d: %s", file,
                line, expr);
  info.reason = reason;
  info.span_path = context == nullptr ? "" : context;
  const Status status = WritePostmortemDump(path, info);
  if (status.ok()) {
    std::fprintf(stderr, "postmortem dump written to %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "postmortem dump to %s failed: %s\n", path.c_str(),
                 status.ToString().c_str());
  }
  std::fflush(stderr);
}

void RegisterAbortHookOnce() {
  static const bool registered = [] {
    simrank::internal::SetCheckAbortHook(&PostmortemAbortHook);
    return true;
  }();
  (void)registered;
}

}  // namespace

void SetPostmortemPath(const std::string& path) {
  RegisterAbortHookOnce();
  PostmortemConfig::Default().SetPath(path);
}

Status WritePostmortemDump(const std::string& path,
                           const PostmortemInfo& info) {
  EventsReport report = CollectDefaultEventsReport();
  report.has_postmortem = true;
  report.postmortem = info;
  return WriteEventsJson(path, report);
}

}  // namespace simrank::obs

#ifndef PERFBENCH_HARNESS_TRACE_H_
#define PERFBENCH_HARNESS_TRACE_H_

// In-memory span recording for the traced run. Spans are opened around
// the benchmark's own calls into each layer (nothing inside src/ is
// instrumented), kept in a vector and written out once the run ends.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr uint32_t kNoParent = UINT32_MAX;

struct Span {
  const char* name = "";  ///< static string
  uint32_t parent = kNoParent;
  uint32_t query = 0;  ///< spans of one request share this id
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class SpanRecorder {
 public:
  /// Opens a span and returns its id (the index into spans()).
  uint32_t Begin(const char* name, uint32_t parent, uint32_t query) {
    spans_.push_back({name, parent, query, NowNs(), 0});
    return static_cast<uint32_t>(spans_.size() - 1);
  }
  void End(uint32_t id) { spans_[id].end_ns = NowNs(); }

  const std::vector<Span>& spans() const { return spans_; }

  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  std::vector<Span> spans_;
};

/// RAII span on an optional recorder: with a null recorder it records
/// nothing, which is how the untraced replay runs the same code.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, uint32_t parent,
             uint32_t query)
      : recorder_(recorder),
        id_(recorder != nullptr ? recorder->Begin(name, parent, query)
                                : kNoParent) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint32_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  uint32_t id_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals (children clipped to
/// the parent, overlapping children counted once). Indexed like `spans`.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Writes one tab-separated line per span (id, parent, query, name,
/// start and end in ns relative to the first span). Returns false when
/// the file cannot be written.
bool WriteSpans(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_TRACE_H_

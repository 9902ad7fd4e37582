#include "harness/trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<uint32_t>> children(spans.size());
  for (uint32_t i = 0; i < spans.size(); ++i) {
    const uint32_t parent = spans[i].parent;
    if (parent != kNoParent && parent < spans.size()) {
      children[parent].push_back(i);
    }
  }
  std::vector<int64_t> self(spans.size(), 0);
  std::vector<std::pair<int64_t, int64_t>> intervals;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    intervals.clear();
    for (uint32_t child : children[i]) {
      const int64_t lo = std::max(spans[child].start_ns, span.start_ns);
      const int64_t hi = std::min(spans[child].end_ns, span.end_ns);
      if (hi > lo) intervals.emplace_back(lo, hi);
    }
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0;
    int64_t run_lo = 0;
    int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : intervals) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (span.end_ns - span.start_ns) - covered;
  }
  return self;
}

bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  std::fprintf(file, "id\tparent\tquery\tname\tstart_ns\tend_ns\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    std::fprintf(file, "%zu\t%lld\t%u\t%s\t%lld\t%lld\n", i,
                 span.parent == kNoParent ? -1LL
                                          : static_cast<long long>(span.parent),
                 span.query, span.name,
                 static_cast<long long>(span.start_ns - origin),
                 static_cast<long long>(span.end_ns - origin));
  }
  return std::fclose(file) == 0;
}

}  // namespace perfbench

#ifndef SIMRANK_UTIL_CHECK_H_
#define SIMRANK_UTIL_CHECK_H_

#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstdlib>

// Invariant-checking macros for programming errors. These are always on
// (including release builds): the algorithms in this library are randomized
// and a silently-corrupted invariant is far more expensive to debug than the
// branch is to execute. For recoverable errors (IO, user input) use Status.

namespace simrank::internal {

/// Optional failure-context hook: formats a NUL-terminated description of
/// what the failing thread was doing (its query phase, obs/phase.h) into
/// `buffer`, or leaves it empty. Registered by higher layers (obs does so
/// when a phase is first named); util itself never depends on them — the
/// hook is best-effort by construction.
using CheckContextFn = void (*)(char* buffer, size_t buffer_size);

inline std::atomic<CheckContextFn>& CheckContextProvider() {
  static std::atomic<CheckContextFn> provider{nullptr};
  return provider;
}

inline void SetCheckContextProvider(CheckContextFn fn) {
  CheckContextProvider().store(fn, std::memory_order_release);
}

/// Optional last-gasp hook, called once per process after the failure
/// message is printed and before abort(). `context` is the (possibly
/// empty) string the context provider produced. Registered by higher
/// layers (obs uses it to flush a postmortem dump); it must itself be
/// abort-safe — a CHECK failure inside the hook falls straight through
/// to abort() rather than recursing.
using CheckAbortFn = void (*)(const char* file, int line, const char* expr,
                              const char* context);

inline std::atomic<CheckAbortFn>& CheckAbortHook() {
  static std::atomic<CheckAbortFn> hook{nullptr};
  return hook;
}

inline void SetCheckAbortHook(CheckAbortFn fn) {
  CheckAbortHook().store(fn, std::memory_order_release);
}

[[noreturn]] inline void CheckFailed(const char* file, int line,
                                     const char* expr) {
  char context[256];
  context[0] = '\0';
  if (CheckContextFn fn =
          CheckContextProvider().load(std::memory_order_acquire)) {
    fn(context, sizeof(context));
  }
  if (context[0] != '\0') {
    std::fprintf(stderr, "CHECK failed at %s:%d: %s (in phase %s)\n", file,
                 line, expr, context);
  } else {
    std::fprintf(stderr, "CHECK failed at %s:%d: %s\n", file, line, expr);
  }
  // Flush before dying: stderr is unbuffered by default but may have been
  // redirected into a fully-buffered pipe (ctest, CI), where an unflushed
  // message would be lost. std::abort (not _exit / terminate) so the
  // sanitizers' SIGABRT handler runs and prints a symbolized stack — the
  // test presets set handle_abort=1 for exactly this.
  std::fflush(stderr);
  // The abort hook runs at most once process-wide: a CHECK failure on a
  // second thread (or inside the hook itself) skips it and aborts
  // directly, so the hook never re-enters and the dump it writes is the
  // one from the first failure.
  static std::atomic<bool> abort_hook_ran{false};
  if (!abort_hook_ran.exchange(true, std::memory_order_acq_rel)) {
    if (CheckAbortFn hook = CheckAbortHook().load(std::memory_order_acquire)) {
      hook(file, line, expr, context);
    }
  }
  std::abort();
}

}  // namespace simrank::internal

#define SIMRANK_CHECK(expr)                                         \
  do {                                                               \
    if (!(expr)) {                                                   \
      ::simrank::internal::CheckFailed(__FILE__, __LINE__, #expr);   \
    }                                                                \
  } while (false)

#define SIMRANK_CHECK_OP(lhs, op, rhs) SIMRANK_CHECK((lhs)op(rhs))

#define SIMRANK_CHECK_EQ(lhs, rhs) SIMRANK_CHECK_OP(lhs, ==, rhs)
#define SIMRANK_CHECK_NE(lhs, rhs) SIMRANK_CHECK_OP(lhs, !=, rhs)
#define SIMRANK_CHECK_LT(lhs, rhs) SIMRANK_CHECK_OP(lhs, <, rhs)
#define SIMRANK_CHECK_LE(lhs, rhs) SIMRANK_CHECK_OP(lhs, <=, rhs)
#define SIMRANK_CHECK_GT(lhs, rhs) SIMRANK_CHECK_OP(lhs, >, rhs)
#define SIMRANK_CHECK_GE(lhs, rhs) SIMRANK_CHECK_OP(lhs, >=, rhs)

#endif  // SIMRANK_UTIL_CHECK_H_

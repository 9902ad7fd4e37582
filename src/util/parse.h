#ifndef SIMRANK_UTIL_PARSE_H_
#define SIMRANK_UTIL_PARSE_H_

// The one way text from outside the program (flags, environment
// variables, manifest and edge-list lines) becomes values: a number
// parser that takes the whole text or nothing, a field splitter, and the
// flag grammar every tool and bench shares. Files are read whole by
// ReadFile (util/serialize.h).

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

#include "util/status.h"

namespace simrank {

/// `text` as a T (an integer or floating-point type) when all of it
/// parses: no whitespace, no '+', no trailing text, no overflow, and no
/// '-' for an unsigned T. Integers are read in `base` (16 takes no "0x"
/// prefix); doubles ignore it.
template <typename T>
std::optional<T> ParseNumber(std::string_view text, int base = 10) {
  T value{};
  const char* end = text.data() + text.size();
  std::from_chars_result result;
  if constexpr (std::is_integral_v<T>) {
    result = std::from_chars(text.data(), end, value, base);
  } else {
    result = std::from_chars(text.data(), end, value);
  }
  if (result.ec != std::errc() || result.ptr != end) return std::nullopt;
  return value;
}

/// Walks the fields of `text` between any of the `separators`, empty
/// fields included ("1::0" on ":" is "1", "", "0"; "" is one empty
/// field), so a caller that counts fields refuses an empty one and a
/// list that allows empty entries skips them. Fields view `text`.
class FieldSplitter {
 public:
  FieldSplitter(std::string_view text, std::string_view separators)
      : rest_(text), separators_(separators) {}

  /// Sets `field` to the next field; false once all were returned.
  bool Next(std::string_view& field) {
    if (done_) return false;
    const size_t end = rest_.find_first_of(separators_);
    field = rest_.substr(0, end);
    done_ = end == std::string_view::npos;
    if (!done_) rest_.remove_prefix(end + 1);
    return true;
  }

 private:
  std::string_view rest_;
  std::string_view separators_;
  bool done_ = false;
};

/// Every field a FieldSplitter returns.
inline std::vector<std::string_view> Split(std::string_view text,
                                           std::string_view separators) {
  std::vector<std::string_view> fields;
  FieldSplitter splitter(text, separators);
  for (std::string_view field; splitter.Next(field);) fields.push_back(field);
  return fields;
}

/// The flags a program defines: space-separated names per value grammar.
/// Numbers must parse completely ("3x" is not an integer); a bool is
/// `true`, `false`, `1` or `0`.
struct FlagSpec {
  std::string_view strings, bools, uints, doubles;
};

class Flags {
 public:
  /// Parses argv[first, argc): `--name=value`, `--name` (the value
  /// "true"), anything else positional. A name `spec` does not list, or a
  /// value its grammar refuses, is InvalidArgument naming the flag, so a
  /// program refuses it before it does any work.
  static Result<Flags> Parse(int argc, char** argv, int first,
                             const FlagSpec& spec) {
    const auto lists = [](std::string_view names, std::string_view name) {
      return std::ranges::count(Split(names, " "), name) > 0;
    };
    Flags flags;
    for (int i = first; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (!arg.starts_with("--")) {
        flags.positional_.emplace_back(arg);
        continue;
      }
      const size_t eq = arg.find('=');
      const std::string name(arg.substr(2, eq - 2));
      const std::string value(eq == arg.npos ? "true" : arg.substr(eq + 1));
      const char* expected = nullptr;
      if (lists(spec.uints, name)) {
        if (!ParseNumber<uint64_t>(value)) expected = "a non-negative integer";
      } else if (lists(spec.doubles, name)) {
        if (!ParseNumber<double>(value)) expected = "a number";
      } else if (lists(spec.bools, name)) {
        if (value != "true" && value != "false" && value != "1" &&
            value != "0") {
          expected = "true, false, 1 or 0";
        }
      } else if (!lists(spec.strings, name)) {
        return Status::InvalidArgument("unknown flag --" + name);
      }
      if (expected != nullptr) {
        return Status::InvalidArgument("--" + name + ": expected " +
                                       expected + ", got '" + value + "'");
      }
      flags.values_[name] = value;
    }
    return flags;
  }

  std::string GetString(const std::string& key,
                        const std::string& fallback = "") const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  // The typed getters read values Parse checked; a flag read with the
  // wrong getter throws std::bad_optional_access.
  uint64_t GetInt(const std::string& key, uint64_t fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback
                               : ParseNumber<uint64_t>(it->second).value();
  }
  double GetDouble(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback
                               : ParseNumber<double>(it->second).value();
  }
  bool GetBool(const std::string& key) const {
    auto it = values_.find(key);
    return it != values_.end() && (it->second == "true" || it->second == "1");
  }
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  Flags() = default;

  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace simrank

#endif  // SIMRANK_UTIL_PARSE_H_

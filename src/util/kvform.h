// One key=value config-string contract shared by every textual config
// surface in the repo: EngineConfig, scenlab::ScenarioConfig, and the
// HeterogeneousCostModel `cost=` spec all parse and render through these
// helpers, so the three forms cannot drift apart (same whole-token
// parsing, same shortest-round-trip float rendering, same error shape).
//
// Conventions enforced here:
//  * whole-token parses — "4x" is an error for an integer key, never a
//    partial parse of 4;
//  * range-checked parses — an integer that overflows its field (or
//    uint64_t) and a non-finite float ("inf", "nan", "1e309") are errors,
//    never a wrapped or narrowed value;
//  * floats render via std::to_chars with no precision argument (the
//    shortest decimal that round-trips), and parse via std::from_chars,
//    so parse(to_string()) is exact for every representable value;
//  * every error is a std::invalid_argument naming the config surface,
//    the offending key or token, and the valid choices:
//      `EngineConfig: unknown value "blok" for key "policy" (expected
//       block|drop)`
//      `ScenarioConfig: malformed token "x" (expected key=value with key
//       in family|servers|...)`.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "util/contracts.h"

namespace mcdc::kvform {

/// The uniform "unknown value" error: `<context>: unknown value "<value>"
/// for key "<key>" (expected <expected>)`.
[[noreturn]] inline void bad_value(const std::string& context,
                                   const std::string& key,
                                   const std::string& value,
                                   const std::string& expected) {
  throw std::invalid_argument(context + ": unknown value \"" + value +
                              "\" for key \"" + key + "\" (expected " +
                              expected + ")");
}

/// Whole-token non-negative integer no larger than `max`; rejects partial
/// parses like "4x", the empty token and any value above `max` (overflow
/// of uint64_t included) with the uniform bad_value error.
inline std::uint64_t parse_u64(
    const std::string& context, const std::string& key,
    const std::string& value, const std::string& expected,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  if (value.empty()) bad_value(context, key, value, expected);
  std::uint64_t out = 0;
  for (const char c : value) {
    if (c < '0' || c > '9') bad_value(context, key, value, expected);
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (out > (max - digit) / 10) bad_value(context, key, value, expected);
    out = out * 10 + digit;
  }
  return out;
}

/// parse_u64 for an `int` field: rejects anything above INT_MAX before it
/// narrows.
inline int parse_int(const std::string& context, const std::string& key,
                     const std::string& value, const std::string& expected) {
  return static_cast<int>(parse_u64(context, key, value, expected,
                                    std::numeric_limits<int>::max()));
}

/// Whole-token finite double via from_chars (the exact inverse of
/// append_double); "inf", "nan" and out-of-range literals like "1e309"
/// are rejected.
inline double parse_f64(const std::string& context, const std::string& key,
                        const std::string& value,
                        const std::string& expected) {
  double out = 0.0;
  const char* first = value.data();
  const char* last = value.data() + value.size();
  const auto res = std::from_chars(first, last, out);
  if (value.empty() || res.ec != std::errc{} || res.ptr != last ||
      !std::isfinite(out)) {
    bad_value(context, key, value, expected);
  }
  return out;
}

/// "on" | "off".
inline bool parse_on_off(const std::string& context, const std::string& key,
                         const std::string& value) {
  if (value == "on") return true;
  if (value == "off") return false;
  bad_value(context, key, value, "on|off");
}

/// Shortest round-trip decimal form, appended in place (no ostringstream,
/// no locale): parse_f64(append_double(v)) == v bit for bit.
inline void append_double(std::string& out, double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  MCDC_ASSERT(res.ec == std::errc{}, "double to_chars cannot fail here");
  out.append(buf, res.ptr);
}

/// append_double as a fresh string (for "+"-style message building).
inline std::string fmt_double(double v) {
  std::string out;
  append_double(out, v);
  return out;
}

/// Split on a separator, keeping empty fields ("a||b" -> {"a","","b"}):
/// list-valued specs (the cost matrix rows) need the exact field count.
inline std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string::npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

/// Drive a parse over `sep`-separated key=value tokens. Empty tokens are
/// skipped (trailing separators are harmless). `f(key, value)` returns
/// false for an unrecognized key; both that and a token without '=' throw
/// the uniform errors naming `key_choices`. The separator is a parameter
/// because the cost spec nests inside the comma-separated engine/scenario
/// forms and uses ';' instead.
template <typename F>
inline void for_each_kv(const std::string& context, const std::string& text,
                        char sep, const std::string& key_choices, F&& f) {
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find(sep, start);
    if (end == std::string::npos) end = text.size();
    if (end > start) {
      const std::string token = text.substr(start, end - start);
      const std::size_t eq = token.find('=');
      if (eq == std::string::npos) {
        throw std::invalid_argument(context + ": malformed token \"" + token +
                                    "\" (expected key=value with key in " +
                                    key_choices + ")");
      }
      const std::string key = token.substr(0, eq);
      const std::string value = token.substr(eq + 1);
      if (!f(key, value)) {
        throw std::invalid_argument(context + ": unknown key \"" + key +
                                    "\" (expected " + key_choices + ")");
      }
    }
    start = end + 1;
  }
}

}  // namespace mcdc::kvform

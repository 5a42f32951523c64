// Number and string rendering shared by every obs exporter: the metrics
// JSON and CSV, the JSONL event sink, the Chrome-trace builder and the
// Prometheus text. Internal to src/obs/ — one definition of each, so the
// exporters cannot drift apart.
#pragma once

#include <cstdio>
#include <string>

namespace mcdc::obs::detail {

/// Shortest round-trippable decimal: the `%g` form when it parses back to
/// `v` exactly, else `%.17g`.
inline std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  double back = 0.0;
  if (std::sscanf(buf, "%lf", &back) != 1 || back != v) {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

/// `s` as a quoted JSON string: `"` and `\` backslash-escaped, control
/// bytes as `\u00XX`, everything else verbatim.
inline std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

}  // namespace mcdc::obs::detail

// Machine-readable bench output.
//
// Every figure bench prints a human-readable table *and* records the
// same series here. All five fig benches share one report file,
// BENCH_figs.json, so CI uploads a single artifact and a plotting
// script reads every series from one place. The file is a plain JSON
// object with exactly one line per bench entry; write() does a
// line-based read-modify-write (replace own line, keep the others), so
// the benches can run in any order, or individually, without a JSON
// parser and without clobbering each other's results.
#pragma once

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "collabqos/telemetry/trace.hpp"

namespace collabqos::bench {

namespace detail {
inline void append_json_string(std::string& out, std::string_view text) {
  out.push_back('"');
  out += telemetry::json_escape(text);
  out.push_back('"');
}

inline void append_json_number(std::string& out, double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  out += buf;
}
}  // namespace detail

/// One bench's entry in the shared figure report.
class FigReport {
 public:
  class Row {
   public:
    Row& set(std::string_view column, double value) {
      cell(column);
      detail::append_json_number(json_, value);
      return *this;
    }
    Row& set(std::string_view column, std::string_view value) {
      cell(column);
      detail::append_json_string(json_, value);
      return *this;
    }

   private:
    friend class FigReport;
    void cell(std::string_view column) {
      json_ += json_.empty() ? "{" : ", ";
      detail::append_json_string(json_, column);
      json_ += ": ";
    }
    std::string json_;
  };

  explicit FigReport(std::string bench) : bench_(std::move(bench)) {}

  Row& add_row() { return rows_.emplace_back(); }
  /// Scalar annotation next to the rows (shape checks, budgets).
  FigReport& note(std::string_view key, double value) {
    notes_ += ", ";
    detail::append_json_string(notes_, key);
    notes_ += ": ";
    detail::append_json_number(notes_, value);
    return *this;
  }
  FigReport& note(std::string_view key, std::string_view value) {
    notes_ += ", ";
    detail::append_json_string(notes_, key);
    notes_ += ": ";
    detail::append_json_string(notes_, value);
    return *this;
  }

  /// The entry as the single line `"bench": {...}` (no trailing comma).
  [[nodiscard]] std::string to_entry() const {
    std::string line = "  ";
    detail::append_json_string(line, bench_);
    line += ": {\"rows\": [";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      if (i > 0) line += ", ";
      line += rows_[i].json_.empty() ? "{}" : rows_[i].json_ + "}";
    }
    line += "]";
    line += notes_;
    line += "}";
    return line;
  }

  /// Merge this entry into `path`, preserving other benches' lines.
  bool write(const std::string& path = "BENCH_figs.json") const {
    std::vector<std::string> entries;
    if (std::ifstream in(path); in) {
      std::string line;
      while (std::getline(in, line)) {
        if (line.rfind("  \"", 0) != 0) continue;  // brace/garbage lines
        if (line.back() == ',') line.pop_back();
        // Skip a stale entry for this bench; keep everything else.
        std::string own = "  ";
        detail::append_json_string(own, bench_);
        if (line.rfind(own + ":", 0) == 0) continue;
        entries.push_back(line);
      }
    }
    entries.push_back(to_entry());
    std::ofstream out(path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    out << "{\n";
    for (std::size_t i = 0; i < entries.size(); ++i) {
      out << entries[i] << (i + 1 < entries.size() ? ",\n" : "\n");
    }
    out << "}\n";
    return static_cast<bool>(out);
  }

 private:
  std::string bench_;
  std::vector<Row> rows_;
  std::string notes_;
};

}  // namespace collabqos::bench

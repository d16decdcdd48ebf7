// Helpers shared by the golden-corpus tests (codec_golden_test,
// wire_golden_test). A corpus is one JSON object with one entry per line;
// each test rebuilds the lines of a group and compares them with the
// recorded ones, so a diff points at the entry that changed.
#pragma once

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "collabqos/util/crc32c.hpp"

namespace collabqos::golden {

inline std::string hex(std::span<const std::uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 15]);
  }
  return out;
}

inline std::string crc(std::span<const std::uint8_t> bytes) {
  Crc32c c;
  c.update(bytes);
  char buffer[16];
  std::snprintf(buffer, sizeof buffer, "%08x", c.value());
  return buffer;
}

inline std::string quoted_list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + items[i] + "\"";
  }
  return out + "]";
}

/// One corpus line (without the separating comma).
using Line = std::string;

inline Line entry(const std::string& key, const std::string& value) {
  return "\"" + key + "\": " + value;
}

/// Verdict lists are split into lines of 16 so a diff points at the case.
inline void chunked(std::vector<Line>& lines, const std::string& key,
                    const std::vector<std::string>& verdicts) {
  for (std::size_t i = 0; i < verdicts.size(); i += 16) {
    const std::size_t end = std::min(verdicts.size(), i + 16);
    const std::vector<std::string> slice(
        verdicts.begin() + static_cast<std::ptrdiff_t>(i),
        verdicts.begin() + static_cast<std::ptrdiff_t>(end));
    lines.push_back(entry(
        key + " " + std::to_string(i) + "-" + std::to_string(end - 1),
        quoted_list(slice)));
  }
}

/// Recorded lines of the corpus at `path`, keyed by their JSON key, in
/// file order.
inline std::vector<std::pair<std::string, std::string>> recorded_lines(
    const std::string& path) {
  std::ifstream in(path);
  std::vector<std::pair<std::string, std::string>> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] != '"') continue;
    if (line.back() == ',') line.pop_back();
    const std::size_t end = line.find('"', 1);
    out.emplace_back(line.substr(1, end - 1), line);
  }
  return out;
}

}  // namespace collabqos::golden

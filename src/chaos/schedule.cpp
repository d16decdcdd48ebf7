#include "collabqos/chaos/schedule.hpp"

#include <algorithm>

#include "collabqos/util/string_util.hpp"

namespace collabqos::chaos {

namespace {

/// No line's window may end later than this after arm time: 9 * 10^12 s
/// (about 285,000 years). It leaves about 7,000 years below the int64
/// microsecond limit for the arm time the controller adds, so neither
/// `at + for` nor the instant an event is armed for can overflow.
constexpr std::int64_t kHorizonMicros = 9'000'000'000'000'000'000;

Error parse_error(std::size_t line, std::string what) {
  return Error{Errc::malformed,
               "chaos schedule line " + std::to_string(line) + ": " +
                   std::move(what)};
}

/// "250ms" / "5s" / "1.5s" / bare seconds ("5", "1.5").
std::optional<sim::Duration> parse_duration_text(std::string_view text) {
  double scale = 1.0;  // bare numbers are seconds
  if (text.size() > 2 && text.substr(text.size() - 2) == "ms") {
    scale = 1e-3;
    text.remove_suffix(2);
  } else if (text.size() > 2 && text.substr(text.size() - 2) == "us") {
    scale = 1e-6;
    text.remove_suffix(2);
  } else if (text.size() > 1 && text.back() == 's') {
    text.remove_suffix(1);
  }
  const auto value = parse_double(text);
  if (!value || *value < 0.0) return std::nullopt;
  const double seconds = *value * scale;
  // Refuse what int64 microseconds cannot hold (2^63 us, ~292,000 years).
  if (seconds * 1e6 >= 0x1p63) return std::nullopt;
  return sim::Duration::seconds(seconds);
}

std::optional<FaultKind> parse_kind(std::string_view word) {
  if (word == "burst") return FaultKind::burst_loss;
  if (word == "loss") return FaultKind::iid_loss;
  if (word == "partition") return FaultKind::partition;
  if (word == "reorder") return FaultKind::reorder;
  if (word == "duplicate") return FaultKind::duplicate;
  if (word == "corrupt") return FaultKind::corrupt;
  if (word == "outage") return FaultKind::outage;
  if (word == "crash") return FaultKind::crash;
  return std::nullopt;
}

std::vector<std::string> parse_names(std::string_view csv) {
  std::vector<std::string> names;
  for (const std::string_view part : split(csv, ',')) {
    const std::string_view name = trim(part);
    if (!name.empty()) names.emplace_back(name);
  }
  return names;
}

/// Whitespace tokenizer (multiple spaces/tabs collapse).
std::vector<std::string_view> tokenize(std::string_view line) {
  std::vector<std::string_view> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    const std::size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    if (i > start) tokens.push_back(line.substr(start, i - start));
  }
  return tokens;
}

Status apply_pair(ChaosEvent& event, std::string_view key,
                  std::string_view value, std::size_t line) {
  const auto number = [&]() -> Result<double> {
    const auto parsed = parse_double(value);
    if (!parsed) {
      return parse_error(line, "bad number for " + std::string(key) + "=" +
                                   std::string(value));
    }
    return *parsed;
  };
  const auto probability = [&]() -> Result<double> {
    auto parsed = number();
    if (!parsed.ok()) return parsed;
    if (parsed.value() < 0.0 || parsed.value() > 1.0) {
      return parse_error(line, std::string(key) + " must be in [0,1]");
    }
    return parsed;
  };
  const auto duration = [&]() -> Result<sim::Duration> {
    const auto parsed = parse_duration_text(value);
    if (!parsed) {
      return parse_error(line, "bad duration for " + std::string(key) + "=" +
                                   std::string(value));
    }
    return *parsed;
  };

  if (key == "nodes" || key == "target") {
    for (auto& name : parse_names(value)) event.nodes.push_back(std::move(name));
    return {};
  }
  if (key == "peers") {
    event.peers = parse_names(value);
    return {};
  }
  if (key == "seed") {
    const auto parsed = parse_u64(value);
    if (!parsed) return parse_error(line, "bad seed");
    event.seed = *parsed;
    return {};
  }
  Result<double> numeric = Error{Errc::malformed, ""};
  if (key == "p") {
    numeric = probability();
    if (numeric.ok()) event.p = numeric.value();
  } else if (key == "p_gb" || key == "p_good_to_bad") {
    numeric = probability();
    if (numeric.ok()) event.p_good_to_bad = numeric.value();
  } else if (key == "p_bg" || key == "p_bad_to_good") {
    numeric = probability();
    if (numeric.ok()) event.p_bad_to_good = numeric.value();
  } else if (key == "loss_good") {
    numeric = probability();
    if (numeric.ok()) event.loss_good = numeric.value();
  } else if (key == "loss_bad") {
    numeric = probability();
    if (numeric.ok()) event.loss_bad = numeric.value();
  } else if (key == "delay") {
    auto parsed = duration();
    if (!parsed.ok()) return parsed.error();
    event.delay = parsed.value();
    return {};
  } else if (key == "skew") {
    auto parsed = duration();
    if (!parsed.ok()) return parsed.error();
    event.skew = parsed.value();
    return {};
  } else {
    return parse_error(line, "unknown key '" + std::string(key) + "'");
  }
  if (!numeric.ok()) return numeric.error();
  return {};
}

Result<ChaosEvent> parse_line(std::string_view text, std::size_t line) {
  const std::vector<std::string_view> tokens = tokenize(text);
  std::size_t i = 0;
  ChaosEvent event;
  event.line = line;
  if (tokens.empty() || tokens[0] != "at" || tokens.size() < 2) {
    return parse_error(line, "expected 'at <time> [for <duration>] <kind>'");
  }
  const auto at = parse_duration_text(tokens[1]);
  if (!at) {
    return parse_error(line, "bad time '" + std::string(tokens[1]) + "'");
  }
  event.at = *at;
  i = 2;
  if (i + 1 < tokens.size() && tokens[i] == "for") {
    const auto duration = parse_duration_text(tokens[i + 1]);
    if (!duration || duration->as_micros() <= 0) {
      return parse_error(line,
                         "bad duration '" + std::string(tokens[i + 1]) + "'");
    }
    event.duration = *duration;
    i += 2;
  }
  // Both are below 2^63, so the difference cannot overflow.
  if (event.at.as_micros() > kHorizonMicros - event.duration.as_micros()) {
    return parse_error(line, "window ends past the schedule horizon (" +
                                 std::to_string(kHorizonMicros / 1'000'000) +
                                 "s)");
  }
  if (i >= tokens.size()) return parse_error(line, "missing fault kind");
  const auto kind = parse_kind(tokens[i]);
  if (!kind) {
    return parse_error(line,
                       "unknown fault kind '" + std::string(tokens[i]) + "'");
  }
  event.kind = *kind;
  ++i;
  for (; i < tokens.size(); ++i) {
    const std::size_t eq = tokens[i].find('=');
    if (eq == std::string_view::npos || eq == 0) {
      return parse_error(line,
                         "expected key=value, got '" + std::string(tokens[i]) +
                             "'");
    }
    if (Status status = apply_pair(event, tokens[i].substr(0, eq),
                                   tokens[i].substr(eq + 1), line);
        !status.ok()) {
      return status.error();
    }
  }

  // Kind-specific shape checks, so mistakes fail at parse time rather
  // than silently arming a no-op.
  const bool needs_nodes = event.kind == FaultKind::burst_loss ||
                           event.kind == FaultKind::iid_loss ||
                           event.kind == FaultKind::partition ||
                           event.kind == FaultKind::outage ||
                           event.kind == FaultKind::crash;
  if (needs_nodes && event.nodes.empty()) {
    return parse_error(line, std::string(to_string(event.kind)) +
                                 " requires nodes=/target=");
  }
  if (event.kind == FaultKind::crash && !event.timed()) {
    return parse_error(line, "crash requires 'for <duration>' (the downtime)");
  }
  return event;
}

}  // namespace

std::string_view to_string(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::burst_loss: return "burst";
    case FaultKind::iid_loss: return "loss";
    case FaultKind::partition: return "partition";
    case FaultKind::reorder: return "reorder";
    case FaultKind::duplicate: return "duplicate";
    case FaultKind::corrupt: return "corrupt";
    case FaultKind::outage: return "outage";
    case FaultKind::crash: return "crash";
  }
  return "?";
}

Result<ChaosSchedule> ChaosSchedule::parse(std::string_view text) {
  ChaosSchedule schedule;
  std::size_t line_number = 0;
  for (const std::string_view raw_line : split(text, '\n')) {
    ++line_number;
    std::string_view line = raw_line;
    if (const std::size_t hash = line.find('#');
        hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    line = trim(line);
    if (line.empty()) continue;
    auto event = parse_line(line, line_number);
    if (!event.ok()) return event.error();
    schedule.events_.push_back(std::move(event.value()));
  }
  std::stable_sort(schedule.events_.begin(), schedule.events_.end(),
                   [](const ChaosEvent& a, const ChaosEvent& b) {
                     return a.at < b.at;
                   });
  return schedule;
}

sim::Duration ChaosSchedule::last_change() const noexcept {
  sim::Duration last{};
  for (const ChaosEvent& event : events_) {
    last = std::max(last, event.settles_at());
  }
  return last;
}

bool ChaosSchedule::has_unhealed() const noexcept {
  return std::any_of(events_.begin(), events_.end(),
                     [](const ChaosEvent& e) { return !e.timed(); });
}

}  // namespace collabqos::chaos

#include "collabqos/telemetry/metrics.hpp"

#include <algorithm>

namespace collabqos::telemetry {

// ----------------------------------------------------------- Registration

std::string_view to_string(InstrumentKind kind) noexcept {
  switch (kind) {
    case InstrumentKind::counter: return "counter";
    case InstrumentKind::gauge: return "gauge";
  }
  return "?";
}

Registration::Registration(Registration&& other) noexcept
    : registry_(other.registry_), token_(other.token_) {
  other.registry_ = nullptr;
  other.token_ = 0;
}

Registration& Registration::operator=(Registration&& other) noexcept {
  if (this != &other) {
    release();
    registry_ = other.registry_;
    token_ = other.token_;
    other.registry_ = nullptr;
    other.token_ = 0;
  }
  return *this;
}

Registration::~Registration() { release(); }

void Registration::release() {
  if (registry_ == nullptr) return;
  MetricsRegistry* registry = registry_;
  registry_ = nullptr;
  std::scoped_lock lock(registry->mutex_);
  const auto token_it = registry->token_family_.find(token_);
  if (token_it == registry->token_family_.end()) return;
  const auto family_it = registry->families_.find(token_it->second);
  if (family_it != registry->families_.end()) {
    MetricsRegistry::Family& family = family_it->second;
    if (family.kind == InstrumentKind::counter) {
      // Fold the departing counter's total into the family so counter
      // families stay monotonic across component churn.
      for (const auto& a : family.attached) {
        if (a.token == token_) {
          family.retired += static_cast<double>(
              static_cast<const Counter*>(a.instrument)->value());
        }
      }
    }
    std::erase_if(family.attached,
                  [this](const auto& a) { return a.token == token_; });
  }
  registry->token_family_.erase(token_it);
}

// --------------------------------------------------------- MetricsRegistry

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

MetricsRegistry::Family& MetricsRegistry::family_locked(std::string_view name,
                                                        InstrumentKind kind) {
  auto it = families_.find(name);
  if (it == families_.end()) {
    Family family;
    family.kind = kind;
    family.export_id = next_export_id_++;
    it = families_.emplace(std::string(name), std::move(family)).first;
  }
  return it->second;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::scoped_lock lock(mutex_);
  Family& family = family_locked(name, InstrumentKind::counter);
  if (!family.owned_counter) {
    family.owned_counter = std::make_unique<Counter>();
    family.attached.push_back({0, family.owned_counter.get()});
  }
  return *family.owned_counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::scoped_lock lock(mutex_);
  Family& family = family_locked(name, InstrumentKind::gauge);
  if (!family.owned_gauge) {
    family.owned_gauge = std::make_unique<Gauge>();
    family.attached.push_back({0, family.owned_gauge.get()});
  }
  return *family.owned_gauge;
}

Registration MetricsRegistry::attach_locked(std::string_view name,
                                            InstrumentKind kind,
                                            const void* instrument) {
  std::scoped_lock lock(mutex_);
  Family& family = family_locked(name, kind);
  const std::uint64_t token = next_token_++;
  family.attached.push_back({token, instrument});
  token_family_.emplace(token, std::string(name));
  return Registration(this, token);
}

Registration MetricsRegistry::attach(std::string_view name, const Counter& c) {
  return attach_locked(name, InstrumentKind::counter, &c);
}

Registration MetricsRegistry::attach(std::string_view name, const Gauge& g) {
  return attach_locked(name, InstrumentKind::gauge, &g);
}

double MetricsRegistry::family_value(const Family& family) noexcept {
  double total = family.kind == InstrumentKind::counter ? family.retired : 0.0;
  for (const Attachment& a : family.attached) {
    total += family.kind == InstrumentKind::counter
                 ? static_cast<double>(
                       static_cast<const Counter*>(a.instrument)->value())
                 : static_cast<const Gauge*>(a.instrument)->value();
  }
  return total;
}

double MetricsRegistry::read(std::string_view name) const {
  std::scoped_lock lock(mutex_);
  const auto it = families_.find(name);
  return it == families_.end() ? 0.0 : family_value(it->second);
}

double MetricsRegistry::read(FamilyRef family) const {
  if (family.family_ == nullptr) return 0.0;
  std::scoped_lock lock(mutex_);
  return family_value(*family.family_);
}

std::vector<MetricSample> MetricsRegistry::snapshot() const {
  std::scoped_lock lock(mutex_);
  std::vector<MetricSample> samples;
  samples.reserve(families_.size());
  for (const auto& [name, family] : families_) {
    samples.push_back(MetricSample{name, family.kind, family_value(family)});
  }
  return samples;
}

void MetricsRegistry::visit(
    const std::function<void(const MetricView&)>& fn) const {
  std::scoped_lock lock(mutex_);
  for (const auto& [name, family] : families_) {
    fn(MetricView{name, family.kind, family_value(family), family.export_id});
  }
}

std::uint32_t MetricsRegistry::export_id(std::string_view name) const {
  std::scoped_lock lock(mutex_);
  const auto it = families_.find(name);
  return it == families_.end() ? 0 : it->second.export_id;
}

std::vector<MetricsRegistry::ExportedFamily>
MetricsRegistry::export_directory() const {
  std::scoped_lock lock(mutex_);
  std::vector<ExportedFamily> directory;
  directory.reserve(families_.size());
  for (const auto& [name, family] : families_) {
    directory.push_back(
        ExportedFamily{family.export_id, name, family.kind, FamilyRef(&family)});
  }
  std::sort(directory.begin(), directory.end(),
            [](const ExportedFamily& a, const ExportedFamily& b) {
              return a.export_id < b.export_id;
            });
  return directory;
}

std::size_t MetricsRegistry::family_count() const {
  std::scoped_lock lock(mutex_);
  return families_.size();
}

}  // namespace collabqos::telemetry

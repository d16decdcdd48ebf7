#include "collabqos/telemetry/metrics.hpp"

#include <algorithm>
#include <cmath>

namespace collabqos::telemetry {

// ------------------------------------------------------------------ Gauge

// -------------------------------------------------------------- Histogram

namespace {

std::size_t bucket_index(double v) noexcept {
  if (!(v >= 1.0)) return 0;  // negatives and NaN land in the floor bucket
  const auto n = static_cast<std::uint64_t>(std::min(v, 9e18));
  return std::min<std::size_t>(std::bit_width(n), Histogram::kBuckets - 1);
}

/// Midpoint of bucket i's value range (geometric spirit, cheap form).
double bucket_mid(std::size_t i) noexcept {
  if (i == 0) return 0.5;
  const double lo = std::ldexp(1.0, static_cast<int>(i) - 1);
  return lo * 1.5;
}

}  // namespace

void Histogram::observe(double v) noexcept {
  count_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t expected = sum_bits_.load(std::memory_order_relaxed);
  for (;;) {
    const std::uint64_t desired =
        std::bit_cast<std::uint64_t>(std::bit_cast<double>(expected) + v);
    if (sum_bits_.compare_exchange_weak(expected, desired,
                                        std::memory_order_relaxed)) {
      break;
    }
  }
  buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
}

double Histogram::quantile(double q) const noexcept {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(n);
  double seen = 0.0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += static_cast<double>(buckets_[i].load(std::memory_order_relaxed));
    if (seen >= target) return bucket_mid(i);
  }
  return bucket_mid(kBuckets - 1);
}

// ----------------------------------------------------------- Registration

std::string_view to_string(InstrumentKind kind) noexcept {
  switch (kind) {
    case InstrumentKind::counter: return "counter";
    case InstrumentKind::gauge: return "gauge";
    case InstrumentKind::histogram: return "histogram";
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

Registration MetricsRegistry::attach(std::string_view name,
                                     const Histogram& h) {
  return attach_locked(name, InstrumentKind::histogram, &h);
}

double MetricsRegistry::family_value(const Family& family) noexcept {
  double total = family.kind == InstrumentKind::counter ? family.retired : 0.0;
  for (const Attachment& a : family.attached) {
    switch (family.kind) {
      case InstrumentKind::counter:
        total += static_cast<double>(
            static_cast<const Counter*>(a.instrument)->value());
        break;
      case InstrumentKind::gauge:
        total += static_cast<const Gauge*>(a.instrument)->value();
        break;
      case InstrumentKind::histogram:
        total += static_cast<double>(
            static_cast<const Histogram*>(a.instrument)->count());
        break;
    }
  }
  return total;
}

double MetricsRegistry::read(std::string_view name) const {
  std::scoped_lock lock(mutex_);
  const auto it = families_.find(name);
  return it == families_.end() ? 0.0 : family_value(it->second);
}

std::vector<MetricSample> MetricsRegistry::snapshot() const {
  std::scoped_lock lock(mutex_);
  std::vector<MetricSample> samples;
  samples.reserve(families_.size());
  for (const auto& [name, family] : families_) {
    MetricSample sample;
    sample.name = name;
    sample.kind = family.kind;
    if (family.kind == InstrumentKind::histogram) {
      for (const Attachment& a : family.attached) {
        const auto* histogram = static_cast<const Histogram*>(a.instrument);
        sample.count += histogram->count();
        sample.value += histogram->sum();
        // Quantiles from the largest attached histogram: families almost
        // always hold one instrument; a merged estimate is not worth the
        // bookkeeping.
        if (histogram->count() > 0) {
          sample.p50 = histogram->quantile(0.5);
          sample.p99 = histogram->quantile(0.99);
        }
      }
    } else {
      sample.value = family_value(family);
    }
    samples.push_back(std::move(sample));
  }
  return samples;
}

void MetricsRegistry::visit(
    const std::function<void(const MetricView&)>& fn) const {
  std::scoped_lock lock(mutex_);
  for (const auto& [name, family] : families_) {
    MetricView view;
    view.name = name;
    view.kind = family.kind;
    if (family.kind == InstrumentKind::histogram) {
      for (const Attachment& a : family.attached) {
        const auto* histogram = static_cast<const Histogram*>(a.instrument);
        view.count += histogram->count();
        view.value += histogram->sum();
        if (histogram->count() > 0) {
          view.p50 = histogram->quantile(0.5);
          view.p95 = histogram->quantile(0.95);
          view.p99 = histogram->quantile(0.99);
        }
      }
    } else {
      view.value = family_value(family);
    }
    fn(view);
  }
}

std::uint32_t MetricsRegistry::export_id(std::string_view name) const {
  std::scoped_lock lock(mutex_);
  const auto it = families_.find(name);
  return it == families_.end() ? 0 : it->second.export_id;
}

std::vector<std::pair<std::uint32_t, std::string>>
MetricsRegistry::export_directory() const {
  std::scoped_lock lock(mutex_);
  std::vector<std::pair<std::uint32_t, std::string>> directory;
  directory.reserve(families_.size());
  for (const auto& [name, family] : families_) {
    directory.emplace_back(family.export_id, name);
  }
  std::sort(directory.begin(), directory.end());
  return directory;
}

std::size_t MetricsRegistry::family_count() const {
  std::scoped_lock lock(mutex_);
  return families_.size();
}

}  // namespace collabqos::telemetry

// Process-wide metrics plane (DESIGN.md §9). The framework monitors hosts
// and network elements through SNMP (paper §5.5) but could not see itself:
// every subsystem kept a private `*Stats` struct with no common read-out.
// This module is the common plane those counters now live on.
//
// Design:
//  * Instruments (Counter / Gauge) are free-standing atomics.
//    The hot path is one relaxed fetch_add — no lock, no lookup, no branch
//    on registry state — so instrumented code pays ~1 ns whether or not
//    anything is reading.
//  * A MetricsRegistry aggregates instruments into hierarchically dotted
//    *families* ("pubsub.peer.accepted"). Subsystems attach their
//    per-instance instruments; families sum across instances on read, so
//    "pubsub.peer.accepted" is the process-wide total while each peer's
//    `stats()` view stays exact.
//  * Attachment is RAII (`Registration`): a component detaches
//    automatically on destruction, the family (and its stable export id)
//    remains. A detaching *counter's* final value folds into the family
//    total, so counter families are process-lifetime monotonic — as the
//    SNMP Counter64 export requires — while gauges read live instruments
//    only.
//  * `snapshot()` walks the families without stopping writers; export ids
//    give every family a stable arc for the SNMP self-export subtree
//    (snmp/telemetry_mib.hpp).
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace collabqos::telemetry {

/// Monotonically increasing count. Single-writer relaxed-atomic: the
/// simulator thread increments, reads from anywhere never tear. The
/// load+store pair (not fetch_add) relies on that single-writer
/// discipline — it skips the lock-prefixed RMW, which costs ~7x more
/// than a plain store on x86.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t n) noexcept {
    value_.store(value_.load(std::memory_order_relaxed) + n,
                 std::memory_order_relaxed);
  }
  Counter& operator++() noexcept {
    add(1);
    return *this;
  }
  Counter& operator+=(std::uint64_t n) noexcept {
    add(n);
    return *this;
  }

  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time level (cache occupancy, queue depth, ...). Stored as
/// double bits in one atomic word.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(double v) noexcept {
    bits_.store(std::bit_cast<std::uint64_t>(v), std::memory_order_relaxed);
  }

  [[nodiscard]] double value() const noexcept {
    return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
  }

 private:
  std::atomic<std::uint64_t> bits_{std::bit_cast<std::uint64_t>(0.0)};
};

enum class InstrumentKind : std::uint8_t { counter, gauge };

[[nodiscard]] std::string_view to_string(InstrumentKind kind) noexcept;

/// One family's aggregated state at snapshot time.
struct MetricSample {
  std::string name;
  InstrumentKind kind = InstrumentKind::counter;
  /// counters: summed count; gauges: summed level.
  double value = 0.0;
};

/// Allocation-free per-family view handed to MetricsRegistry::visit.
/// `name` points into registry storage and is valid only for the
/// duration of the callback.
struct MetricView {
  std::string_view name;
  InstrumentKind kind = InstrumentKind::counter;
  double value = 0.0;  ///< as MetricSample::value
  std::uint32_t export_id = 0;  ///< as MetricsRegistry::export_id(name)
};

class MetricsRegistry;

/// RAII attachment token: detaches the instrument from its family on
/// destruction. The family itself (and its export id) persists.
class Registration {
 public:
  Registration() = default;
  Registration(Registration&& other) noexcept;
  Registration& operator=(Registration&& other) noexcept;
  Registration(const Registration&) = delete;
  Registration& operator=(const Registration&) = delete;
  ~Registration();

  void release();  ///< detach now (idempotent)

 private:
  friend class MetricsRegistry;
  Registration(MetricsRegistry* registry, std::uint64_t token) noexcept
      : registry_(registry), token_(token) {}

  MetricsRegistry* registry_ = nullptr;
  std::uint64_t token_ = 0;
};

/// The dotted-name family table. All mutation is cold-path (component
/// construction/destruction); instrument updates never touch it.
class MetricsRegistry {
  struct Family;

 public:
  /// A family resolved once: reading through it skips the name lookup.
  /// Families are never removed, so a handle stays valid as long as the
  /// registry does.
  class FamilyRef {
   public:
    FamilyRef() = default;

   private:
    friend class MetricsRegistry;
    explicit FamilyRef(const Family* family) noexcept : family_(family) {}
    const Family* family_ = nullptr;
  };

  /// One row of the export directory.
  struct ExportedFamily {
    std::uint32_t export_id = 0;
    std::string name;
    InstrumentKind kind = InstrumentKind::counter;
    FamilyRef family;
  };

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every built-in subsystem reports to.
  [[nodiscard]] static MetricsRegistry& global();

  // ---- owned singleton instruments (find-or-create; stable refs) ----
  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);

  // ---- externally owned instruments ----
  /// Attach an instrument to the family `name`; families sum attached
  /// instruments on read. The instrument must outlive the Registration.
  [[nodiscard]] Registration attach(std::string_view name, const Counter& c);
  [[nodiscard]] Registration attach(std::string_view name, const Gauge& g);

  /// Summed value of a family (counter count / gauge level); 0.0 for
  /// unknown names.
  [[nodiscard]] double read(std::string_view name) const;
  /// As read(name), for a family resolved through export_directory();
  /// 0.0 for a default-constructed handle.
  [[nodiscard]] double read(FamilyRef family) const;

  /// All families, name-sorted. O(1) per family: a handful of relaxed
  /// loads, no coordination with writers.
  [[nodiscard]] std::vector<MetricSample> snapshot() const;

  /// Visitor form of snapshot(): one callback per family in name order,
  /// no per-family string allocation — the periodic sampler's read path.
  /// The registry mutex is held across the sweep; the visitor must not
  /// call back into this registry.
  void visit(const std::function<void(const MetricView&)>& fn) const;

  /// Stable small-integer id for SNMP export arcs. Assigned on family
  /// creation, never reused or reordered within the process.
  [[nodiscard]] std::uint32_t export_id(std::string_view name) const;
  /// Every family with its export id, name, kind and handle, in id order.
  [[nodiscard]] std::vector<ExportedFamily> export_directory() const;

  [[nodiscard]] std::size_t family_count() const;

 private:
  friend class Registration;

  struct Attachment {
    std::uint64_t token = 0;
    const void* instrument = nullptr;
  };
  struct Family {
    InstrumentKind kind = InstrumentKind::counter;
    std::uint32_t export_id = 0;
    std::vector<Attachment> attached;
    /// Sum of final values of detached counters: keeps counter families
    /// monotonic across component churn (gauges stay live-only).
    double retired = 0.0;
    // Owned singleton storage (counter()/gauge()); attached like any
    // external instrument but lifetime-managed here.
    std::unique_ptr<Counter> owned_counter;
    std::unique_ptr<Gauge> owned_gauge;
  };

  Family& family_locked(std::string_view name, InstrumentKind kind);
  Registration attach_locked(std::string_view name, InstrumentKind kind,
                             const void* instrument);
  static double family_value(const Family& family) noexcept;

  mutable std::mutex mutex_;
  std::map<std::string, Family, std::less<>> families_;
  std::map<std::uint64_t, std::string> token_family_;
  std::uint64_t next_token_ = 1;
  std::uint32_t next_export_id_ = 1;
};

}  // namespace collabqos::telemetry

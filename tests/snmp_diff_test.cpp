// The SNMP rewrites against their references. Pdu::encode (one pass from
// the tail) must produce the bytes of the nested-writer encoder it
// replaced (support/reference_ber.hpp), on seeded random PDUs that reach
// every value type, boundary INTEGERs, large arcs, toy OIDs that need the
// 0.0 pad, OIDs too long for inline storage, and lengths on both sides of
// each length-form boundary. The sorted flat MIB must answer GET, GETNEXT
// and SET as an ordered map of the same objects would.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "collabqos/snmp/mib.hpp"
#include "collabqos/snmp/pdu.hpp"
#include "collabqos/util/rng.hpp"
#include "support/reference_ber.hpp"

namespace collabqos::snmp {
namespace {

/// Seeded generator of PDUs that stress the encoder's edges.
class PduGenerator {
 public:
  explicit PduGenerator(std::uint64_t seed) : rng_(seed) {}

  Pdu pdu() {
    Pdu out;
    out.type = static_cast<PduType>(pick(6));
    out.community = octets(pick(4) == 0 ? text_length() : pick(12));
    out.request_id = static_cast<std::uint32_t>(unsigned_boundary());
    out.error_status = static_cast<ErrorStatus>(
        out.type == PduType::get_bulk ? pick(256) : pick(7));
    out.error_index = static_cast<std::uint32_t>(unsigned_boundary());
    const std::size_t counts[] = {0, 1, 2, 5, 16, 63, 64};
    const std::size_t count =
        pick(3) == 0 ? counts[pick(std::size(counts))]
                     : pick(Pdu::kMaxBindings + 1);
    for (std::size_t i = 0; i < count; ++i) {
      out.bindings.push_back(VarBind{oid(), value()});
    }
    return out;
  }

  std::size_t pick(std::size_t n) {
    return static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  }

 private:
  /// Lengths around the short/long form switch (127/128) and the one- to
  /// two-octet long form (255/256), or anything up to 300.
  std::size_t text_length() {
    const std::size_t edges[] = {0, 1, 126, 127, 128, 129, 254, 255, 256, 257};
    return pick(2) == 0 ? edges[pick(std::size(edges))] : pick(301);
  }

  std::string octets(std::size_t length) {
    std::string out(length, '\0');
    for (char& c : out) c = static_cast<char>(pick(256));
    return out;
  }

  /// Values whose minimal encoding changes width: 2^k - 1 and 2^k.
  std::uint64_t unsigned_boundary() {
    if (pick(3) == 0) return rng_();
    const unsigned k = static_cast<unsigned>(pick(64));
    const std::uint64_t edge = std::uint64_t{1} << k;
    return pick(2) == 0 ? edge : edge - 1;
  }

  /// The same edges, and their negations, in two's complement.
  std::int64_t signed_boundary() {
    const std::uint64_t u = unsigned_boundary();
    switch (pick(4)) {
      case 0: return static_cast<std::int64_t>(u);
      case 1: return static_cast<std::int64_t>(0 - u);
      case 2: return static_cast<std::int64_t>(~u);  // -u - 1
      default:
        return pick(2) == 0 ? std::numeric_limits<std::int64_t>::min()
                            : std::numeric_limits<std::int64_t>::max();
    }
  }

  std::uint32_t arc() {
    const std::uint32_t edges[] = {0,       1,         39,        40,
                                   127,     128,       16383,     16384,
                                   2097151, 2097152,   268435455, 268435456,
                                   26510,   UINT32_MAX};
    return pick(3) == 0 ? edges[pick(std::size(edges))]
                        : static_cast<std::uint32_t>(pick(300));
  }

  Oid oid() {
    Oid out;
    switch (pick(7)) {
      case 0:  // toy: too short for X.690, padded with 0.0 on the wire
        for (std::size_t n = pick(2); n > 0; --n) out.push_back(arc());
        return out;
      case 1:  // a bad root (first arc past 2, or second past 39 under 0/1)
        out.push_back(static_cast<std::uint32_t>(pick(2) == 0 ? 3 + pick(9)
                                                              : pick(2)));
        out.push_back(static_cast<std::uint32_t>(40 + pick(100)));
        break;
      case 2:  // longer than the inline arcs
        out.push_back(1);
        out.push_back(3);
        for (std::size_t n = Oid::kInlineArcs + pick(30); n > 2; --n) {
          out.push_back(arc());
        }
        return out;
      case 3:  // under 2, the largest second arc and the one past it
        out.push_back(2);
        out.push_back(UINT32_MAX - 80 + static_cast<std::uint32_t>(pick(2)));
        break;
      default:
        out.push_back(static_cast<std::uint32_t>(pick(3)));
        out.push_back(static_cast<std::uint32_t>(out[0] == 2 ? pick(200)
                                                             : pick(40)));
        break;
    }
    for (std::size_t n = pick(12); n > 0; --n) out.push_back(arc());
    return out;
  }

  Value value() {
    switch (pick(7)) {
      case 0: return Value::integer(signed_boundary());
      case 1: return Value::gauge(unsigned_boundary());
      case 2: return Value::counter(unsigned_boundary());
      case 3: return Value::timeticks(unsigned_boundary());
      case 4: return Value::octets(octets(text_length()));
      case 5: return Value::object_id(oid());
      default: return Value{};
    }
  }

  Rng rng_;
};

std::string hex(const serde::Bytes& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xF];
  }
  return out;
}

TEST(SnmpEncodeDiff, MatchesReferenceOnRandomPdus) {
  PduGenerator generate(0xBE5);
  std::size_t bytes = 0;
  for (int i = 0; i < 3000; ++i) {
    const Pdu pdu = generate.pdu();
    const serde::Bytes got = pdu.encode();
    const serde::Bytes want = reference::encode(pdu);
    ASSERT_EQ(got, want) << "pdu " << i << "\n got " << hex(got)
                         << "\nwant " << hex(want);
    bytes += got.size();
    // What the encoder wrote decodes the way the reference decodes it.
    const auto decoded = Pdu::decode(got);
    const auto expected = reference::decode(want);
    ASSERT_EQ(decoded.code(), expected.code()) << "pdu " << i;
    if (decoded.ok()) {
      EXPECT_EQ(decoded.value().bindings, expected.value().bindings);
      EXPECT_EQ(decoded.value().community, expected.value().community);
    }
  }
  // Messages up to tens of KiB: every length form is exercised.
  EXPECT_GT(bytes, 3000u * 512u);
}

TEST(SnmpEncodeDiff, MatchesReferenceAtLengthBoundaries) {
  // Grow the community one octet at a time, so that the message, the
  // PDU, the varbind list and the string itself each cross 127/128 and
  // 255/256 in turn.
  PduGenerator generate(0x1E9);
  for (int base = 0; base < 8; ++base) {
    Pdu pdu = generate.pdu();
    pdu.bindings.resize(std::min<std::size_t>(pdu.bindings.size(), 3));
    for (std::size_t length = 0; length < 300; ++length) {
      pdu.community.assign(length, 'c');
      ASSERT_EQ(pdu.encode(), reference::encode(pdu))
          << "base " << base << " community length " << length;
    }
    // And a varbind value whose own length crosses them.
    pdu.bindings.push_back({Oid{1, 3, 6}, Value{}});
    for (std::size_t length = 0; length < 300; ++length) {
      pdu.bindings.back().value = Value::octets(std::string(length, 'v'));
      ASSERT_EQ(pdu.encode(), reference::encode(pdu))
          << "base " << base << " value length " << length;
    }
  }
}

// ------------------------------------------------------------------- MIB

/// The MIB as it was: an ordered map of objects, each a static value or
/// a provider, with an access mode and an optional mutator.
class MibModel {
 public:
  struct Object {
    Access access = Access::read_only;
    Value static_value;
    Provider provider;
    Mutator mutator;
  };

  void add(const Oid& oid, Object object) { objects_[oid] = std::move(object); }

  Result<Value> get(const Oid& oid) const {
    const auto it = objects_.find(oid);
    if (it == objects_.end()) return Error{Errc::no_such_object, ""};
    return it->second.provider ? it->second.provider()
                               : it->second.static_value;
  }
  Result<std::pair<Oid, Value>> get_next(const Oid& oid) const {
    const auto it = objects_.upper_bound(oid);
    if (it == objects_.end()) return Error{Errc::no_such_object, ""};
    return std::pair{it->first, it->second.provider ? it->second.provider()
                                                    : it->second.static_value};
  }
  Status set(const Oid& oid, const Value& value) {
    const auto it = objects_.find(oid);
    if (it == objects_.end()) return Status(Errc::no_such_object, "");
    Object& object = it->second;
    if (object.access != Access::read_write) {
      return Status(Errc::access_denied, "");
    }
    if (object.mutator) return object.mutator(value);
    if (object.provider) return Status(Errc::access_denied, "");
    object.static_value = value;
    return {};
  }
  [[nodiscard]] std::size_t size() const { return objects_.size(); }

 private:
  std::map<Oid, Object> objects_;
};

TEST(MibModel, FlatTableMatchesOrderedMap) {
  // Registrations in random order (re-registrations replace), mixed with
  // GET, GETNEXT and SET on registered and unregistered OIDs, including
  // prefixes of registered ones and OIDs past the last.
  Rng rng(0x31B);
  const auto pick = [&rng](std::int64_t n) { return rng.uniform_int(0, n - 1); };
  std::size_t found = 0;
  std::size_t walked = 0;
  std::size_t sets_ok = 0;
  for (int round = 0; round < 100; ++round) {
    Mib mib;
    MibModel model;
    std::vector<Oid> known;
    // Provider state is shared by both sides, so a live value or a
    // mutator's effect shows through either.
    auto cells = std::make_shared<std::vector<std::int64_t>>(64, 0);
    const auto random_oid = [&] {
      Oid oid{1, 3};
      for (std::int64_t n = pick(5); n > 0; --n) {
        oid.push_back(static_cast<std::uint32_t>(pick(4)));
      }
      return oid;
    };
    for (int op = 0; op < 300; ++op) {
      const Oid oid = known.empty() || pick(3) == 0
                          ? random_oid()
                          : known[static_cast<std::size_t>(
                                pick(static_cast<std::int64_t>(known.size())))];
      switch (pick(6)) {
        case 0: {  // static scalar
          const Value value = Value::integer(pick(1000));
          const Access access =
              pick(2) == 0 ? Access::read_only : Access::read_write;
          mib.add_scalar(oid, value, access);
          model.add(oid, {access, value, {}, {}});
          known.push_back(oid);
          break;
        }
        case 1: {  // provider, maybe with a mutator
          const auto cell = static_cast<std::size_t>(pick(64));
          Provider provider = [cells, cell] {
            return Value::gauge(static_cast<std::uint64_t>((*cells)[cell]));
          };
          Mutator mutator;
          if (pick(2) == 0) {
            mutator = [cells, cell](const Value& v) -> Status {
              const auto n = v.as_integer();
              if (!n || n.value() < 0) return Status(Errc::malformed, "");
              (*cells)[cell] = n.value();
              return {};
            };
          }
          const Access access =
              pick(2) == 0 ? Access::read_only : Access::read_write;
          mib.add_provider(oid, provider, access, mutator);
          model.add(oid, {access, Value{}, provider, mutator});
          known.push_back(oid);
          break;
        }
        case 2: {
          const auto got = mib.get(oid);
          const auto want = model.get(oid);
          ASSERT_EQ(got.code(), want.code());
          if (want.ok()) {
            ++found;
            EXPECT_EQ(got.value(), want.value());
          }
          break;
        }
        case 3:
        case 4: {
          // GETNEXT, as the agent answers it: the object at upper_bound.
          const std::size_t got = mib.upper_bound(oid);
          const auto want = model.get_next(oid);
          ASSERT_EQ(got == mib.size(), !want.ok());
          if (want.ok()) {
            ++walked;
            EXPECT_EQ(mib.oid_at(got), want.value().first);
            EXPECT_EQ(mib.value_at(got), want.value().second);
          }
          break;
        }
        default: {
          const Value value = Value::integer(pick(2) == 0 ? -1 : pick(1000));
          // A mutator runs on both sides and writes the same value to the
          // same shared cell twice, which is harmless.
          const Status got = mib.set(oid, value);
          const Status want = model.set(oid, value);
          ASSERT_EQ(got.code(), want.code());
          if (got.ok()) ++sets_ok;
          break;
        }
      }
      ASSERT_EQ(mib.size(), model.size());
      ASSERT_EQ(mib.contains(oid), model.get(oid).ok());
    }
  }
  EXPECT_GT(found, 1000u);
  EXPECT_GT(walked, 2000u);
  EXPECT_GT(sets_ok, 200u);
}

}  // namespace
}  // namespace collabqos::snmp

#include "collabqos/pubsub/symbol.hpp"

#include <deque>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>

namespace collabqos::pubsub {

namespace {

struct TransparentHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

struct Table {
  mutable std::shared_mutex mutex;
  // id -> spelling. A deque never relocates elements, so name() can
  // hand out stable references and the map below can key on views.
  std::deque<std::string> names{std::string()};
  std::unordered_map<std::string_view, std::uint32_t, TransparentHash,
                     std::equal_to<>>
      ids{{std::string_view(), 0}};
};

Table& table() {
  static Table t;
  return t;
}

}  // namespace

Symbol Symbol::intern(std::string_view name) {
  Table& t = table();
  {
    std::shared_lock lock(t.mutex);
    const auto it = t.ids.find(name);
    if (it != t.ids.end()) return Symbol(it->second);
  }
  std::unique_lock lock(t.mutex);
  const auto it = t.ids.find(name);  // lost a race? someone interned it
  if (it != t.ids.end()) return Symbol(it->second);
  const auto id = static_cast<std::uint32_t>(t.names.size());
  t.names.emplace_back(name);
  t.ids.emplace(t.names.back(), id);
  return Symbol(id);
}

std::optional<Symbol> Symbol::lookup(std::string_view name) {
  Table& t = table();
  std::shared_lock lock(t.mutex);
  const auto it = t.ids.find(name);
  if (it == t.ids.end()) return std::nullopt;
  return Symbol(it->second);
}

const std::string& Symbol::name() const {
  Table& t = table();
  std::shared_lock lock(t.mutex);
  return t.names[id_];  // append-only: the reference outlives the lock
}

}  // namespace collabqos::pubsub

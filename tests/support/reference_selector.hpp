// The selector semantics as a recursive tree walk, kept only as the
// reference the library's compiled program must match.
//
// The library once evaluated a selector by walking its parsed tree; the
// jump-threaded program behind Selector::matches replaced that walk. This
// reference does not reach into the library's tree: it rebuilds its own
// from the selector's wire form (Selector::encode, each node in prefix
// order: a kind byte, then its operands), which the golden corpus pins.
// So it shares no code with the parser or the compiler it checks.
//
// Semantics (selector.hpp): two-valued. A comparison on a missing
// attribute or a type-mismatched pair is false; an ordering holds only
// between two numbers; `in` holds when any candidate is equal.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "collabqos/pubsub/attribute.hpp"
#include "collabqos/pubsub/selector.hpp"
#include "collabqos/serde/wire.hpp"

namespace collabqos::pubsub::reference {

/// One node of the wire form. The kind and operator numbers are the
/// encoding's.
struct Node {
  enum class Kind : std::uint8_t {
    literal_true = 0,
    literal_false,
    logical_and,
    logical_or,
    logical_not,
    exists,
    compare,
    membership,
  };
  enum class Op : std::uint8_t { eq = 0, ne, lt, le, gt, ge };

  Kind kind = Kind::literal_true;
  std::unique_ptr<Node> lhs;  ///< and/or/not
  std::unique_ptr<Node> rhs;  ///< and/or
  std::string attribute;      ///< exists/compare/membership
  Op op = Op::eq;
  std::vector<AttributeValue> values;  ///< compare: one; membership: all
};

/// Reads one node and its operands; null once `r` has failed.
inline std::unique_ptr<Node> decode(serde::Reader& r) {
  auto node = std::make_unique<Node>();
  const std::uint8_t kind = r.u8();
  if (!r.ok() || kind > static_cast<std::uint8_t>(Node::Kind::membership)) {
    return nullptr;
  }
  node->kind = static_cast<Node::Kind>(kind);
  switch (node->kind) {
    case Node::Kind::literal_true:
    case Node::Kind::literal_false:
      break;
    case Node::Kind::logical_and:
    case Node::Kind::logical_or:
      node->lhs = decode(r);
      node->rhs = decode(r);
      break;
    case Node::Kind::logical_not:
      node->lhs = decode(r);
      break;
    case Node::Kind::exists:
      node->attribute = std::string(r.view_string());
      break;
    case Node::Kind::compare:
      node->attribute = std::string(r.view_string());
      node->op = static_cast<Node::Op>(r.u8());
      node->values.push_back(AttributeValue::decode(r));
      break;
    case Node::Kind::membership: {
      node->attribute = std::string(r.view_string());
      const std::uint64_t count = r.varint();
      for (std::uint64_t i = 0; i < count && r.ok(); ++i) {
        node->values.push_back(AttributeValue::decode(r));
      }
      break;
    }
  }
  return r.ok() ? std::move(node) : nullptr;
}

/// The reference tree of `selector`, rebuilt from its wire form.
inline std::unique_ptr<Node> tree_of(const Selector& selector) {
  serde::Writer w;
  selector.encode(w);
  serde::Reader r(w.bytes());
  return decode(r);
}

inline bool evaluate(const Node& node, const AttributeSet& attributes) {
  switch (node.kind) {
    case Node::Kind::literal_true:
      return true;
    case Node::Kind::literal_false:
      return false;
    case Node::Kind::logical_and:
      return evaluate(*node.lhs, attributes) &&
             evaluate(*node.rhs, attributes);
    case Node::Kind::logical_or:
      return evaluate(*node.lhs, attributes) ||
             evaluate(*node.rhs, attributes);
    case Node::Kind::logical_not:
      return !evaluate(*node.lhs, attributes);
    case Node::Kind::exists:
      return attributes.contains(node.attribute);
    case Node::Kind::membership: {
      const AttributeValue* actual = attributes.find(node.attribute);
      if (actual == nullptr) return false;
      for (const AttributeValue& candidate : node.values) {
        if (actual->equals(candidate)) return true;
      }
      return false;
    }
    case Node::Kind::compare: {
      const AttributeValue* actual = attributes.find(node.attribute);
      if (actual == nullptr) return false;
      const AttributeValue& literal = node.values.front();
      switch (node.op) {
        case Node::Op::eq:
          return actual->equals(literal);
        case Node::Op::ne:
          return !actual->equals(literal);
        default:
          break;
      }
      if (!actual->is_number() || !literal.is_number()) {
        return false;  // ordering requires two numbers
      }
      const double a = *actual->as_number();
      const double b = *literal.as_number();
      switch (node.op) {
        case Node::Op::lt: return a < b;
        case Node::Op::le: return a <= b;
        case Node::Op::gt: return a > b;
        case Node::Op::ge: return a >= b;
        default: return false;
      }
    }
  }
  return false;
}

/// `selector` evaluated by the reference against `attributes`.
inline bool interpret(const Selector& selector,
                      const AttributeSet& attributes) {
  return evaluate(*tree_of(selector), attributes);
}

}  // namespace collabqos::pubsub::reference

// The semantic-selector language: "a prepositional expression over all
// possible attributes [that] specifies the profile(s) of clients that are
// to receive the message" (paper §3).
//
// Grammar (case-sensitive keywords, C-like comparison operators):
//
//   expr       := or_expr
//   or_expr    := and_expr ( 'or' and_expr )*
//   and_expr   := unary ( 'and' unary )*
//   unary      := 'not' unary | primary
//   primary    := '(' expr ')' | 'true' | 'false'
//              |  'exists' ident | comparison | membership
//   comparison := ident op literal
//   membership := ident 'in' '(' literal ( ',' literal )* ')'
//   op         := '==' | '!=' | '<' | '<=' | '>' | '>='
//   ident      := dotted identifier, e.g. capability.video.color
//   literal    := integer | real | 'single-quoted string' | true | false
//
// Evaluation is two-valued: a comparison on a missing attribute or a
// type-mismatched pair is FALSE (so `not (x == 3)` is true when x is
// absent — callers guard with `exists x` when they need presence).
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "collabqos/pubsub/attribute.hpp"
#include "collabqos/util/result.hpp"

namespace collabqos::pubsub {

namespace detail {
struct ExprNode;
struct Program;
}

/// A parsed, immutable selector expression. Value semantics (shared
/// immutable AST), cheap to copy into every outgoing message.
class Selector {
 public:
  /// The always-true selector (broadcast to every profile). All default
  /// selectors share one compiled program; constructing one allocates
  /// nothing.
  Selector();

  /// Parse from source text.
  [[nodiscard]] static Result<Selector> parse(std::string_view text);

  /// Evaluate against a profile/content attribute set. Runs the
  /// compiled program: a flat jump-threaded instruction vector built at
  /// construction — no recursion, no allocation, attributes resolved by
  /// interned id.
  [[nodiscard]] bool matches(const AttributeSet& attributes) const;

  /// Reference evaluator: the recursive AST walk the compiled program
  /// replaced. Kept (and exercised by the property suite) as the
  /// semantics oracle for `matches`, and by the matching bench as the
  /// seed baseline.
  [[nodiscard]] bool interpret(const AttributeSet& attributes) const;

  /// Canonical text form; parse(to_string()) reproduces the selector.
  [[nodiscard]] std::string to_string() const;

  /// Structural combinators (used by the QoS layer to refine selectors).
  [[nodiscard]] Selector and_with(const Selector& other) const;
  [[nodiscard]] Selector or_with(const Selector& other) const;
  [[nodiscard]] Selector negate() const;

  /// Convenience builders.
  [[nodiscard]] static Selector always();
  [[nodiscard]] static Selector equals(std::string attribute,
                                       AttributeValue value);
  [[nodiscard]] static Selector exists(std::string attribute);
  [[nodiscard]] static Selector one_of(std::string attribute,
                                       std::vector<AttributeValue> values);

  void encode(serde::Writer& w) const;
  /// Reads one selector; a fault latches in `r` (check r.ok()) and
  /// yields the default selector.
  [[nodiscard]] static Selector decode(serde::Reader& r);

 private:
  explicit Selector(std::shared_ptr<const detail::ExprNode> root);
  /// The one compiled `true` every default selector shares.
  static const Selector& shared_always();
  std::shared_ptr<const detail::ExprNode> root_;     ///< parse/print/codec
  std::shared_ptr<const detail::Program> program_;   ///< match fast path
};

/// Length in bytes of the selector encoding at the front of `data`,
/// computed by a structural scan that allocates nothing — the receive
/// path uses it to fingerprint a selector's wire bytes without decoding
/// them. Errors on truncated or structurally invalid input.
[[nodiscard]] Result<std::size_t> encoded_selector_length(
    std::span<const std::uint8_t> data);

}  // namespace collabqos::pubsub

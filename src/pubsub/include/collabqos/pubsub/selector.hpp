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
  /// Deepest node a selector may hold, counted in edges from the root:
  /// `a and b and c` is 2 deep. parse() and decode() both refuse a
  /// deeper selector, so every selector a sender parses, a receiver can
  /// decode.
  static constexpr int kMaxDepth = 64;

  /// The always-true selector (broadcast to every profile). All default
  /// selectors share one compiled program; constructing one allocates
  /// nothing.
  Selector();

  /// Parse from source text. Errc::malformed past kMaxDepth, and when
  /// parentheses and `not`s nest more than 2 * kMaxDepth deep (enough
  /// for to_string() of any selector kMaxDepth deep).
  [[nodiscard]] static Result<Selector> parse(std::string_view text);

  /// Evaluate against a profile/content attribute set. Runs the
  /// compiled program: a flat jump-threaded instruction vector built at
  /// construction — no recursion, no allocation, attributes resolved by
  /// interned id.
  [[nodiscard]] bool matches(const AttributeSet& attributes) const;

  /// Canonical text form; parse(to_string()) reproduces the selector.
  [[nodiscard]] std::string to_string() const;

  /// Structural combinators (used by the QoS layer to refine selectors).
  /// Neither checks kMaxDepth; SemanticPeer refuses to send a result
  /// deeper than that.
  [[nodiscard]] Selector and_with(const Selector& other) const;
  [[nodiscard]] Selector negate() const;

  /// Deepest node, counted in edges from the root as for kMaxDepth.
  [[nodiscard]] int depth() const noexcept;

  /// Convenience builders.
  [[nodiscard]] static Selector always();
  [[nodiscard]] static Selector equals(std::string attribute,
                                       AttributeValue value);

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

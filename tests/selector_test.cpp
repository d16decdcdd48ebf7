// The semantic-selector language: parsing, evaluation, algebra, codec.
#include <gtest/gtest.h>

#include "collabqos/pubsub/selector.hpp"
#include "collabqos/util/rng.hpp"

namespace collabqos::pubsub {
namespace {

AttributeSet sample_profile() {
  AttributeSet attrs;
  attrs.set("media.type", "video");
  attrs.set("video.color", true);
  attrs.set("video.encoding", "MPEG2");
  attrs.set("size.bytes", std::int64_t{1048576});
  attrs.set("battery.fraction", 0.42);
  attrs.set("client.name", "ws1");
  return attrs;
}

// ---------------------------------------------------------- evaluation

struct EvalCase {
  const char* expression;
  bool expected;
};

// Without this gtest prints the raw bytes of the case, pointer included,
// so the discovered CTest names changed from one build or run to the next.
void PrintTo(const EvalCase& c, std::ostream* os) {
  *os << '"' << c.expression << "\" -> " << (c.expected ? "true" : "false");
}

class SelectorEval : public ::testing::TestWithParam<EvalCase> {};

TEST_P(SelectorEval, EvaluatesAgainstSampleProfile) {
  auto selector = Selector::parse(GetParam().expression);
  ASSERT_TRUE(selector.ok()) << selector.error().message;
  EXPECT_EQ(selector.value().matches(sample_profile()), GetParam().expected)
      << GetParam().expression;
}

INSTANTIATE_TEST_SUITE_P(
    Expressions, SelectorEval,
    ::testing::Values(
        EvalCase{"true", true}, EvalCase{"false", false},
        EvalCase{"media.type == 'video'", true},
        EvalCase{"media.type == 'audio'", false},
        EvalCase{"media.type != 'audio'", true},
        EvalCase{"video.color == true", true},
        EvalCase{"video.color == false", false},
        EvalCase{"size.bytes == 1048576", true},
        EvalCase{"size.bytes >= 1048576", true},
        EvalCase{"size.bytes > 1048576", false},
        EvalCase{"size.bytes < 2000000", true},
        EvalCase{"size.bytes <= 1000", false},
        EvalCase{"battery.fraction < 0.5", true},
        EvalCase{"battery.fraction >= 0.42", true},
        EvalCase{"exists client.name", true},
        EvalCase{"exists missing.key", false},
        EvalCase{"not exists missing.key", true},
        // Missing attribute in a comparison is false...
        EvalCase{"missing.key == 5", false},
        // ...so its negation is true (documented two-valued semantics).
        EvalCase{"not (missing.key == 5)", true},
        EvalCase{"media.type == 'video' and video.color == true", true},
        EvalCase{"media.type == 'video' and video.color == false", false},
        EvalCase{"media.type == 'audio' or video.color == true", true},
        EvalCase{"media.type == 'audio' or video.color == false", false},
        // Precedence: and binds tighter than or.
        EvalCase{"false and false or true", true},
        EvalCase{"false and (false or true)", false},
        EvalCase{"not false and true", true},
        // Figure 3 shapes.
        EvalCase{"media.type == 'video' and video.encoding == 'MPEG2' and "
                 "size.bytes <= 1048576",
                 true},
        EvalCase{"video.color == false and video.encoding == 'none'", false},
        // Type mismatches compare unequal, never throw.
        EvalCase{"media.type == 5", false},
        EvalCase{"size.bytes == 'big'", false},
        EvalCase{"media.type < 10", false},     // ordering needs numbers
        EvalCase{"video.color < 1", false},     // bool is not a number
        // Numeric coercion: int attr vs real literal.
        EvalCase{"size.bytes == 1048576.0", true},
        EvalCase{"size.bytes < 1048576.5", true}));

// ---------------------------------------------------------- membership

TEST(SelectorMembership, MatchesAnyListedValue) {
  auto selector =
      Selector::parse("media.type in ('video', 'image', 'audio')").take();
  AttributeSet attrs = sample_profile();
  EXPECT_TRUE(selector.matches(attrs));
  attrs.set("media.type", "text");
  EXPECT_FALSE(selector.matches(attrs));
}

TEST(SelectorMembership, MixedLiteralTypesAndCoercion) {
  auto selector = Selector::parse("x in (1, 2.5, 'three', true)").take();
  AttributeSet attrs;
  attrs.set("x", 1);
  EXPECT_TRUE(selector.matches(attrs));
  attrs.set("x", 2.5);
  EXPECT_TRUE(selector.matches(attrs));
  attrs.set("x", "three");
  EXPECT_TRUE(selector.matches(attrs));
  attrs.set("x", true);
  EXPECT_TRUE(selector.matches(attrs));
  attrs.set("x", 4);
  EXPECT_FALSE(selector.matches(attrs));
  // int/double coercion inside the list.
  attrs.set("x", 1.0);
  EXPECT_TRUE(selector.matches(attrs));
}

TEST(SelectorMembership, MissingAttributeIsFalse) {
  auto selector = Selector::parse("k in (1, 2)").take();
  EXPECT_FALSE(selector.matches(AttributeSet{}));
}

TEST(SelectorMembership, SingleElementList) {
  auto selector = Selector::parse("k in (7)").take();
  AttributeSet attrs;
  attrs.set("k", 7);
  EXPECT_TRUE(selector.matches(attrs));
}

TEST(SelectorMembership, ComposesWithLogic) {
  auto selector =
      Selector::parse(
          "team in ('rescue', 'medical') and not status in ('offline')")
          .take();
  AttributeSet attrs;
  attrs.set("team", "medical");
  attrs.set("status", "active");
  EXPECT_TRUE(selector.matches(attrs));
  attrs.set("status", "offline");
  EXPECT_FALSE(selector.matches(attrs));
}

TEST(SelectorMembership, PrintParseAndWireRoundTrip) {
  auto original =
      Selector::parse("k in (1, 'two', false) or exists j").take();
  auto reparsed = Selector::parse(original.to_string());
  ASSERT_TRUE(reparsed.ok()) << original.to_string();
  EXPECT_EQ(reparsed.value().to_string(), original.to_string());
  serde::Writer w;
  original.encode(w);
  serde::Reader r(w.bytes());
  const auto decoded = Selector::decode(r);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(decoded.to_string(), original.to_string());
}

TEST(SelectorMembership, OneOfBuilder) {
  const Selector selector = Selector::parse("lot in ('a', 'b')").value();
  AttributeSet attrs;
  attrs.set("lot", "b");
  EXPECT_TRUE(selector.matches(attrs));
  attrs.set("lot", "c");
  EXPECT_FALSE(selector.matches(attrs));
}

TEST(SelectorMembership, ParseErrors) {
  EXPECT_FALSE(Selector::parse("k in ()").ok());       // empty list
  EXPECT_FALSE(Selector::parse("k in (1,").ok());      // unterminated
  EXPECT_FALSE(Selector::parse("k in 1").ok());        // missing paren
  EXPECT_FALSE(Selector::parse("k in (1 2)").ok());    // missing comma
  EXPECT_FALSE(Selector::parse("k in (bare)").ok());   // unquoted string
}

// ------------------------------------------------------------- parsing

TEST(SelectorParse, ErrorsAreReported) {
  const char* bad[] = {
      "",                      // empty
      "and true",              // operator first
      "x ==",                  // missing literal
      "x == ",                 // missing literal
      "(x == 1",               // unbalanced paren
      "x == 1)",               // trailing token
      "x = 1",                 // single equals is not an operator
      "x == 'unterminated",    // bad string
      "exists",                // missing attribute
      "x == bare_word",        // unquoted string literal
      "x <> 1",                // unknown operator
      "5 == 5",                // literal on the left
  };
  for (const char* expression : bad) {
    auto result = Selector::parse(expression);
    EXPECT_FALSE(result.ok()) << expression;
    EXPECT_EQ(result.code(), Errc::malformed);
  }
}

TEST(SelectorParse, WhitespaceInsensitive) {
  auto a = Selector::parse("x==1 and y=='two'");
  auto b = Selector::parse("  x == 1   and\ty == 'two' ");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().to_string(), b.value().to_string());
}

TEST(SelectorParse, EscapedQuotesInStrings) {
  auto selector = Selector::parse(R"(name == 'O\'Brien')");
  ASSERT_TRUE(selector.ok());
  AttributeSet attrs;
  attrs.set("name", "O'Brien");
  EXPECT_TRUE(selector.value().matches(attrs));
}

TEST(SelectorParse, DoubleQuotedStrings) {
  auto selector = Selector::parse(R"(name == "ws1")");
  ASSERT_TRUE(selector.ok());
  AttributeSet attrs;
  attrs.set("name", "ws1");
  EXPECT_TRUE(selector.value().matches(attrs));
}

TEST(SelectorParse, NegativeNumbers) {
  auto selector = Selector::parse("delta >= -5");
  ASSERT_TRUE(selector.ok());
  AttributeSet attrs;
  attrs.set("delta", std::int64_t{-3});
  EXPECT_TRUE(selector.value().matches(attrs));
  attrs.set("delta", std::int64_t{-9});
  EXPECT_FALSE(selector.value().matches(attrs));
}

// -------------------------------------------------- printing round trip

class SelectorRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(SelectorRoundTrip, PrintedFormReparsesEquivalently) {
  auto first = Selector::parse(GetParam());
  ASSERT_TRUE(first.ok()) << GetParam();
  const std::string printed = first.value().to_string();
  auto second = Selector::parse(printed);
  ASSERT_TRUE(second.ok()) << printed;
  // Same canonical form and same verdict on assorted inputs.
  EXPECT_EQ(second.value().to_string(), printed);
  const AttributeSet profile = sample_profile();
  EXPECT_EQ(first.value().matches(profile), second.value().matches(profile));
  const AttributeSet empty;
  EXPECT_EQ(first.value().matches(empty), second.value().matches(empty));
}

INSTANTIATE_TEST_SUITE_P(
    Forms, SelectorRoundTrip,
    ::testing::Values("true", "false", "x == 1", "x != 'a'",
                      "a == 1 and b == 2 or not c == 3",
                      "not (a == 1 and b == 2)",
                      "exists k and not exists j",
                      "x >= -2.5 and y < 1e3",
                      "not not x == 1",
                      "s == 'it\\'s'"));

// ------------------------------------------------------------- algebra

TEST(SelectorAlgebra, CombinatorsBehave) {
  const Selector x = Selector::equals("k", 1);
  const Selector y = Selector::equals("j", 2);
  AttributeSet both;
  both.set("k", 1);
  both.set("j", 2);
  AttributeSet only_k;
  only_k.set("k", 1);

  EXPECT_TRUE(x.and_with(y).matches(both));
  EXPECT_FALSE(x.and_with(y).matches(only_k));
  const Selector x_or_y = Selector::parse("k == 1 or j == 2").value();
  EXPECT_TRUE(x_or_y.matches(only_k));
  EXPECT_FALSE(x.negate().matches(only_k));
  EXPECT_TRUE(y.negate().matches(only_k));
}

TEST(SelectorAlgebra, DeMorganHoldsOnRandomProfiles) {
  const Selector x = Selector::equals("a", 1);
  const Selector y = Selector::equals("b", 2);
  const Selector lhs = x.and_with(y).negate();
  const Selector rhs = Selector::parse("not a == 1 or not b == 2").value();
  Rng rng(77);
  for (int i = 0; i < 200; ++i) {
    AttributeSet attrs;
    if (rng.chance(0.5)) attrs.set("a", rng.uniform_int(0, 2));
    if (rng.chance(0.5)) attrs.set("b", rng.uniform_int(0, 3));
    EXPECT_EQ(lhs.matches(attrs), rhs.matches(attrs));
  }
}

TEST(SelectorAlgebra, AlwaysMatchesEverything) {
  EXPECT_TRUE(Selector::always().matches(AttributeSet{}));
  EXPECT_TRUE(Selector::always().matches(sample_profile()));
  EXPECT_TRUE(Selector().matches(AttributeSet{}));
}

TEST(SelectorAlgebra, ExistsBuilder) {
  const Selector s = Selector::parse("exists k").value();
  AttributeSet attrs;
  EXPECT_FALSE(s.matches(attrs));
  attrs.set("k", false);
  EXPECT_TRUE(s.matches(attrs));  // presence, not truthiness
}

// ----------------------------------------------------------------- codec

class SelectorCodec : public ::testing::TestWithParam<const char*> {};

TEST_P(SelectorCodec, WireRoundTrip) {
  auto original = Selector::parse(GetParam());
  ASSERT_TRUE(original.ok());
  serde::Writer w;
  original.value().encode(w);
  serde::Reader r(w.bytes());
  const auto decoded = Selector::decode(r);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(decoded.to_string(), original.value().to_string());
}

INSTANTIATE_TEST_SUITE_P(
    Forms, SelectorCodec,
    ::testing::Values("true", "a == 'x' and b >= 2.5",
                      "not (exists q or p != false)",
                      "x == -9 or y == 'str'"));

TEST(SelectorCodecErrors, TruncatedStreamFails) {
  auto selector = Selector::parse("a == 1 and b == 2").take();
  serde::Writer w;
  selector.encode(w);
  serde::Bytes bytes = w.bytes();
  bytes.resize(bytes.size() / 2);
  serde::Reader r(bytes);
  (void)Selector::decode(r);
  EXPECT_FALSE(r.ok());
}

TEST(SelectorCodecErrors, UnknownNodeKindFails) {
  const serde::Bytes bytes = {0xEE};
  serde::Reader r(bytes);
  (void)Selector::decode(r);
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace collabqos::pubsub

#include "collabqos/pubsub/selector.hpp"

#include <cassert>
#include <cctype>
#include <utility>
#include <vector>

#include "collabqos/util/string_util.hpp"

namespace collabqos::pubsub {

namespace detail {

enum class Op : std::uint8_t { eq = 0, ne, lt, le, gt, ge };

[[nodiscard]] inline std::string_view to_string(Op op) noexcept {
  switch (op) {
    case Op::eq: return "==";
    case Op::ne: return "!=";
    case Op::lt: return "<";
    case Op::le: return "<=";
    case Op::gt: return ">";
    case Op::ge: return ">=";
  }
  return "?";
}

struct ExprNode {
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
  Kind kind = Kind::literal_true;
  // and/or/not children (not uses only lhs).
  std::shared_ptr<const ExprNode> lhs;
  std::shared_ptr<const ExprNode> rhs;
  // exists/compare operands.
  std::string attribute;
  Op op = Op::eq;
  AttributeValue value;
  std::vector<AttributeValue> values;  // membership candidates
};

// The compiled form of a selector: a flat, jump-threaded instruction
// vector plus a constant pool. Because selectors are pure boolean
// expressions and and/or short-circuit via jumps, every subexpression
// leaves exactly one value — so evaluation needs only an accumulator,
// never an operand stack, and never allocates.
struct Program {
  enum class OpCode : std::uint8_t {
    load_true = 0,  ///< acc = true
    load_false,     ///< acc = false
    load_exists,    ///< acc = attrs contains sym
    load_eq,        ///< acc = attrs[sym] equals pool[a]
    load_ne,        ///< acc = attrs[sym] present and not equal pool[a]
    load_lt,        ///< numeric orderings; absent/mismatch -> false
    load_le,
    load_gt,
    load_ge,
    load_in,        ///< acc = attrs[sym] equals any of pool[a..a+b)
    negate,         ///< acc = !acc
    jump_if_false,  ///< short-circuit and: if (!acc) ip = a
    jump_if_true,   ///< short-circuit or:  if (acc) ip = a
  };
  struct Instr {
    OpCode op = OpCode::load_true;
    Symbol sym;         ///< leaf attribute (load_* ops)
    std::uint32_t a = 0;  ///< constant-pool index, or jump target
    std::uint32_t b = 0;  ///< membership candidate count
  };
  std::vector<Instr> code;
  std::vector<AttributeValue> pool;
};

namespace {

using NodePtr = std::shared_ptr<const ExprNode>;

NodePtr make_bool(bool value) {
  auto node = std::make_shared<ExprNode>();
  node->kind =
      value ? ExprNode::Kind::literal_true : ExprNode::Kind::literal_false;
  return node;
}

NodePtr make_binary(ExprNode::Kind kind, NodePtr lhs, NodePtr rhs) {
  auto node = std::make_shared<ExprNode>();
  node->kind = kind;
  node->lhs = std::move(lhs);
  node->rhs = std::move(rhs);
  return node;
}

NodePtr make_not(NodePtr operand) {
  auto node = std::make_shared<ExprNode>();
  node->kind = ExprNode::Kind::logical_not;
  node->lhs = std::move(operand);
  return node;
}

NodePtr make_exists(std::string attribute) {
  auto node = std::make_shared<ExprNode>();
  node->kind = ExprNode::Kind::exists;
  node->attribute = std::move(attribute);
  return node;
}

NodePtr make_compare(std::string attribute, Op op, AttributeValue value) {
  auto node = std::make_shared<ExprNode>();
  node->kind = ExprNode::Kind::compare;
  node->attribute = std::move(attribute);
  node->op = op;
  node->value = std::move(value);
  return node;
}

NodePtr make_membership(std::string attribute,
                        std::vector<AttributeValue> values) {
  auto node = std::make_shared<ExprNode>();
  node->kind = ExprNode::Kind::membership;
  node->attribute = std::move(attribute);
  node->values = std::move(values);
  return node;
}

bool evaluate(const ExprNode& node, const AttributeSet& attributes) {
  switch (node.kind) {
    case ExprNode::Kind::literal_true:
      return true;
    case ExprNode::Kind::literal_false:
      return false;
    case ExprNode::Kind::logical_and:
      return evaluate(*node.lhs, attributes) &&
             evaluate(*node.rhs, attributes);
    case ExprNode::Kind::logical_or:
      return evaluate(*node.lhs, attributes) ||
             evaluate(*node.rhs, attributes);
    case ExprNode::Kind::logical_not:
      return !evaluate(*node.lhs, attributes);
    case ExprNode::Kind::exists:
      return attributes.contains(node.attribute);
    case ExprNode::Kind::membership: {
      const AttributeValue* actual = attributes.find(node.attribute);
      if (actual == nullptr) return false;
      for (const AttributeValue& candidate : node.values) {
        if (actual->equals(candidate)) return true;
      }
      return false;
    }
    case ExprNode::Kind::compare: {
      const AttributeValue* actual = attributes.find(node.attribute);
      if (actual == nullptr) return false;
      switch (node.op) {
        case Op::eq:
          return actual->equals(node.value);
        case Op::ne:
          return !actual->equals(node.value);
        default:
          break;
      }
      const auto a = actual->as_number();
      const auto b = node.value.as_number();
      if (!a || !b || !actual->is_number() || !node.value.is_number()) {
        return false;  // ordering requires two numbers
      }
      switch (node.op) {
        case Op::lt: return *a < *b;
        case Op::le: return *a <= *b;
        case Op::gt: return *a > *b;
        case Op::ge: return *a >= *b;
        default: return false;
      }
    }
  }
  return false;
}

// ---------------------------------------------------------- compiler/VM

using OpCode = Program::OpCode;
using Instr = Program::Instr;

void compile_node(const ExprNode& node, Program& program) {
  switch (node.kind) {
    case ExprNode::Kind::literal_true:
      program.code.push_back({OpCode::load_true, {}, 0, 0});
      return;
    case ExprNode::Kind::literal_false:
      program.code.push_back({OpCode::load_false, {}, 0, 0});
      return;
    case ExprNode::Kind::logical_and:
    case ExprNode::Kind::logical_or: {
      compile_node(*node.lhs, program);
      const std::size_t jump_at = program.code.size();
      program.code.push_back({node.kind == ExprNode::Kind::logical_and
                                  ? OpCode::jump_if_false
                                  : OpCode::jump_if_true,
                              {}, 0, 0});
      compile_node(*node.rhs, program);
      program.code[jump_at].a =
          static_cast<std::uint32_t>(program.code.size());
      return;
    }
    case ExprNode::Kind::logical_not:
      compile_node(*node.lhs, program);
      program.code.push_back({OpCode::negate, {}, 0, 0});
      return;
    case ExprNode::Kind::exists:
      program.code.push_back(
          {OpCode::load_exists, Symbol::intern(node.attribute), 0, 0});
      return;
    case ExprNode::Kind::compare: {
      OpCode op = OpCode::load_eq;
      switch (node.op) {
        case Op::eq: op = OpCode::load_eq; break;
        case Op::ne: op = OpCode::load_ne; break;
        case Op::lt: op = OpCode::load_lt; break;
        case Op::le: op = OpCode::load_le; break;
        case Op::gt: op = OpCode::load_gt; break;
        case Op::ge: op = OpCode::load_ge; break;
      }
      // Ordering against a non-numeric literal can never hold (the
      // two-valued semantics make it FALSE for every attribute set),
      // so fold it at compile time.
      if (op != OpCode::load_eq && op != OpCode::load_ne &&
          !node.value.is_number()) {
        program.code.push_back({OpCode::load_false, {}, 0, 0});
        return;
      }
      const auto pool = static_cast<std::uint32_t>(program.pool.size());
      program.pool.push_back(node.value);
      program.code.push_back(
          {op, Symbol::intern(node.attribute), pool, 0});
      return;
    }
    case ExprNode::Kind::membership: {
      const auto pool = static_cast<std::uint32_t>(program.pool.size());
      for (const AttributeValue& value : node.values) {
        program.pool.push_back(value);
      }
      program.code.push_back(
          {OpCode::load_in, Symbol::intern(node.attribute), pool,
           static_cast<std::uint32_t>(node.values.size())});
      return;
    }
  }
}

std::shared_ptr<const Program> compile(const ExprNode& root) {
  auto program = std::make_shared<Program>();
  compile_node(root, *program);
  return program;
}

[[nodiscard]] bool run(const Program& program,
                       const AttributeSet& attributes) {
  const Instr* code = program.code.data();
  const AttributeValue* pool = program.pool.data();
  const std::size_t n = program.code.size();
  bool acc = true;
  std::size_t ip = 0;
  while (ip < n) {
    const Instr& instr = code[ip];
    switch (instr.op) {
      case OpCode::load_true:
        acc = true;
        break;
      case OpCode::load_false:
        acc = false;
        break;
      case OpCode::load_exists:
        acc = attributes.contains(instr.sym);
        break;
      case OpCode::load_eq: {
        const AttributeValue* actual = attributes.find(instr.sym);
        acc = actual != nullptr && actual->equals(pool[instr.a]);
        break;
      }
      case OpCode::load_ne: {
        const AttributeValue* actual = attributes.find(instr.sym);
        acc = actual != nullptr && !actual->equals(pool[instr.a]);
        break;
      }
      case OpCode::load_lt:
      case OpCode::load_le:
      case OpCode::load_gt:
      case OpCode::load_ge: {
        const AttributeValue* actual = attributes.find(instr.sym);
        acc = false;
        if (actual != nullptr && actual->is_number()) {
          const double a = *actual->as_number();
          const double b = *pool[instr.a].as_number();
          switch (instr.op) {
            case OpCode::load_lt: acc = a < b; break;
            case OpCode::load_le: acc = a <= b; break;
            case OpCode::load_gt: acc = a > b; break;
            default: acc = a >= b; break;
          }
        }
        break;
      }
      case OpCode::load_in: {
        const AttributeValue* actual = attributes.find(instr.sym);
        acc = false;
        if (actual != nullptr) {
          for (std::uint32_t i = 0; i < instr.b; ++i) {
            if (actual->equals(pool[instr.a + i])) {
              acc = true;
              break;
            }
          }
        }
        break;
      }
      case OpCode::negate:
        acc = !acc;
        break;
      case OpCode::jump_if_false:
        if (!acc) {
          ip = instr.a;
          continue;
        }
        break;
      case OpCode::jump_if_true:
        if (acc) {
          ip = instr.a;
          continue;
        }
        break;
    }
    ++ip;
  }
  return acc;
}

void print(const ExprNode& node, std::string& out) {
  switch (node.kind) {
    case ExprNode::Kind::literal_true:
      out += "true";
      return;
    case ExprNode::Kind::literal_false:
      out += "false";
      return;
    case ExprNode::Kind::logical_and:
    case ExprNode::Kind::logical_or:
      out += '(';
      print(*node.lhs, out);
      out += node.kind == ExprNode::Kind::logical_and ? " and " : " or ";
      print(*node.rhs, out);
      out += ')';
      return;
    case ExprNode::Kind::logical_not:
      out += "not ";
      // Parenthesise non-primary operands for unambiguous re-parse.
      if (node.lhs->kind == ExprNode::Kind::logical_and ||
          node.lhs->kind == ExprNode::Kind::logical_or) {
        print(*node.lhs, out);
      } else {
        out += '(';
        print(*node.lhs, out);
        out += ')';
      }
      return;
    case ExprNode::Kind::exists:
      out += "exists ";
      out += node.attribute;
      return;
    case ExprNode::Kind::compare:
      out += node.attribute;
      out += ' ';
      out += to_string(node.op);
      out += ' ';
      out += node.value.to_literal();
      return;
    case ExprNode::Kind::membership:
      out += node.attribute;
      out += " in (";
      for (std::size_t i = 0; i < node.values.size(); ++i) {
        if (i != 0) out += ", ";
        out += node.values[i].to_literal();
      }
      out += ')';
      return;
  }
}

// ------------------------------------------------------------- lexer

struct Token {
  enum class Kind : std::uint8_t {
    end,
    identifier,   // also carries keywords before classification
    number,
    string,
    op,           // one of the comparison operators
    lparen,
    rparen,
    comma,
  };
  Kind kind = Kind::end;
  std::string text;
  double number = 0.0;
  bool number_is_integer = false;
  std::int64_t integer = 0;
};

class Lexer {
 public:
  explicit Lexer(std::string_view source) : source_(source) {}

  Result<std::vector<Token>> run() {
    std::vector<Token> tokens;
    while (true) {
      skip_whitespace();
      if (position_ >= source_.size()) break;
      const char c = source_[position_];
      if (c == '(') {
        tokens.push_back({Token::Kind::lparen, "(", 0, false, 0});
        ++position_;
      } else if (c == ')') {
        tokens.push_back({Token::Kind::rparen, ")", 0, false, 0});
        ++position_;
      } else if (c == ',') {
        tokens.push_back({Token::Kind::comma, ",", 0, false, 0});
        ++position_;
      } else if (c == '\'' || c == '"') {
        auto token = lex_string(c);
        if (!token) return token.error();
        tokens.push_back(std::move(token).take());
      } else if ((std::isdigit(static_cast<unsigned char>(c)) != 0) ||
                 ((c == '-' || c == '+') && position_ + 1 < source_.size() &&
                  std::isdigit(static_cast<unsigned char>(
                      source_[position_ + 1])) != 0)) {
        auto token = lex_number();
        if (!token) return token.error();
        tokens.push_back(std::move(token).take());
      } else if (std::isalpha(static_cast<unsigned char>(c)) != 0 ||
                 c == '_') {
        tokens.push_back(lex_identifier());
      } else {
        auto token = lex_operator();
        if (!token) return token.error();
        tokens.push_back(std::move(token).take());
      }
    }
    tokens.push_back({Token::Kind::end, "", 0, false, 0});
    return tokens;
  }

 private:
  void skip_whitespace() {
    while (position_ < source_.size() &&
           std::isspace(static_cast<unsigned char>(source_[position_])) != 0) {
      ++position_;
    }
  }

  Result<Token> lex_string(char quote) {
    ++position_;  // opening quote
    std::string text;
    while (position_ < source_.size()) {
      const char c = source_[position_++];
      if (c == '\\' && position_ < source_.size()) {
        text += source_[position_++];
      } else if (c == quote) {
        return Token{Token::Kind::string, std::move(text), 0, false, 0};
      } else {
        text += c;
      }
    }
    return Error{Errc::malformed, "unterminated string literal"};
  }

  Result<Token> lex_number() {
    const std::size_t start = position_;
    if (source_[position_] == '-' || source_[position_] == '+') ++position_;
    bool is_real = false;
    while (position_ < source_.size()) {
      const char c = source_[position_];
      if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
        ++position_;
      } else if (c == '.' || c == 'e' || c == 'E') {
        is_real = true;
        ++position_;
        if (position_ < source_.size() &&
            (source_[position_] == '-' || source_[position_] == '+') &&
            (source_[position_ - 1] == 'e' || source_[position_ - 1] == 'E')) {
          ++position_;
        }
      } else {
        break;
      }
    }
    const std::string_view text = source_.substr(start, position_ - start);
    Token token;
    token.kind = Token::Kind::number;
    token.text = std::string(text);
    if (is_real) {
      const auto value = parse_double(text);
      if (!value) return Error{Errc::malformed, "bad number: " + token.text};
      token.number = *value;
      token.number_is_integer = false;
    } else {
      // Integral (possibly signed).
      const bool negative = text.front() == '-';
      const std::string_view digits =
          (text.front() == '-' || text.front() == '+') ? text.substr(1) : text;
      const auto magnitude = parse_u64(digits);
      if (!magnitude || *magnitude > static_cast<std::uint64_t>(INT64_MAX)) {
        return Error{Errc::malformed, "bad integer: " + token.text};
      }
      token.integer = negative ? -static_cast<std::int64_t>(*magnitude)
                               : static_cast<std::int64_t>(*magnitude);
      token.number_is_integer = true;
    }
    return token;
  }

  Token lex_identifier() {
    const std::size_t start = position_;
    while (position_ < source_.size()) {
      const char c = source_[position_];
      if (std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' ||
          c == '.' || c == '-') {
        ++position_;
      } else {
        break;
      }
    }
    return {Token::Kind::identifier,
            std::string(source_.substr(start, position_ - start)), 0, false,
            0};
  }

  Result<Token> lex_operator() {
    static constexpr std::string_view kOps[] = {"==", "!=", "<=", ">=",
                                                "<", ">"};
    for (const std::string_view op : kOps) {
      if (source_.substr(position_).starts_with(op)) {
        position_ += op.size();
        return Token{Token::Kind::op, std::string(op), 0, false, 0};
      }
    }
    return Error{Errc::malformed,
                 "unexpected character '" +
                     std::string(1, source_[position_]) + "'"};
  }

  std::string_view source_;
  std::size_t position_ = 0;
};

// ------------------------------------------------------------- parser

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<NodePtr> run() {
    auto expr = parse_or();
    if (!expr) return expr;
    if (peek().kind != Token::Kind::end) {
      return Error{Errc::malformed,
                   "unexpected trailing token '" + peek().text + "'"};
    }
    return expr;
  }

 private:
  const Token& peek() const { return tokens_[cursor_]; }
  Token take() { return tokens_[cursor_++]; }
  bool take_keyword(std::string_view keyword) {
    if (peek().kind == Token::Kind::identifier && peek().text == keyword) {
      ++cursor_;
      return true;
    }
    return false;
  }

  Result<NodePtr> parse_or() {
    auto lhs = parse_and();
    if (!lhs) return lhs;
    NodePtr node = std::move(lhs).take();
    while (take_keyword("or")) {
      auto rhs = parse_and();
      if (!rhs) return rhs;
      node = make_binary(ExprNode::Kind::logical_or, std::move(node),
                         std::move(rhs).take());
    }
    return node;
  }

  Result<NodePtr> parse_and() {
    auto lhs = parse_unary();
    if (!lhs) return lhs;
    NodePtr node = std::move(lhs).take();
    while (take_keyword("and")) {
      auto rhs = parse_unary();
      if (!rhs) return rhs;
      node = make_binary(ExprNode::Kind::logical_and, std::move(node),
                         std::move(rhs).take());
    }
    return node;
  }

  Result<NodePtr> parse_unary() {
    if (take_keyword("not")) {
      auto operand = parse_unary();
      if (!operand) return operand;
      return make_not(std::move(operand).take());
    }
    return parse_primary();
  }

  Result<NodePtr> parse_primary() {
    if (peek().kind == Token::Kind::lparen) {
      take();
      auto inner = parse_or();
      if (!inner) return inner;
      if (peek().kind != Token::Kind::rparen) {
        return Error{Errc::malformed, "expected ')'"};
      }
      take();
      return inner;
    }
    if (take_keyword("true")) return make_bool(true);
    if (take_keyword("false")) return make_bool(false);
    if (take_keyword("exists")) {
      if (peek().kind != Token::Kind::identifier) {
        return Error{Errc::malformed, "expected attribute after 'exists'"};
      }
      return make_exists(take().text);
    }
    if (peek().kind != Token::Kind::identifier) {
      return Error{Errc::malformed,
                   "expected expression, got '" + peek().text + "'"};
    }
    std::string attribute = take().text;
    if (take_keyword("in")) {
      if (peek().kind != Token::Kind::lparen) {
        return Error{Errc::malformed, "expected '(' after 'in'"};
      }
      take();
      std::vector<AttributeValue> values;
      while (true) {
        auto literal = parse_literal();
        if (!literal) return literal.error();
        values.push_back(std::move(literal).take());
        if (peek().kind == Token::Kind::comma) {
          take();
          continue;
        }
        break;
      }
      if (peek().kind != Token::Kind::rparen) {
        return Error{Errc::malformed, "expected ')' closing the 'in' list"};
      }
      take();
      return make_membership(std::move(attribute), std::move(values));
    }
    if (peek().kind != Token::Kind::op) {
      return Error{Errc::malformed,
                   "expected comparison operator after '" + attribute + "'"};
    }
    const std::string op_text = take().text;
    Op op;
    if (op_text == "==") {
      op = Op::eq;
    } else if (op_text == "!=") {
      op = Op::ne;
    } else if (op_text == "<") {
      op = Op::lt;
    } else if (op_text == "<=") {
      op = Op::le;
    } else if (op_text == ">") {
      op = Op::gt;
    } else {
      op = Op::ge;
    }
    auto literal = parse_literal();
    if (!literal) return literal.error();
    return make_compare(std::move(attribute), op, std::move(literal).take());
  }

  Result<AttributeValue> parse_literal() {
    const Token literal = take();
    switch (literal.kind) {
      case Token::Kind::number:
        return literal.number_is_integer ? AttributeValue(literal.integer)
                                         : AttributeValue(literal.number);
      case Token::Kind::string:
        return AttributeValue(literal.text);
      case Token::Kind::identifier:
        if (literal.text == "true" || literal.text == "false") {
          return AttributeValue(literal.text == "true");
        }
        return Error{Errc::malformed,
                     "bare identifier '" + literal.text +
                         "' is not a literal (quote strings)"};
      default:
        return Error{Errc::malformed, "expected literal operand"};
    }
  }

  std::vector<Token> tokens_;
  std::size_t cursor_ = 0;
};

// -------------------------------------------------------------- codec

void encode_node(const ExprNode& node, serde::Writer& w) {
  w.u8(static_cast<std::uint8_t>(node.kind));
  switch (node.kind) {
    case ExprNode::Kind::literal_true:
    case ExprNode::Kind::literal_false:
      return;
    case ExprNode::Kind::logical_and:
    case ExprNode::Kind::logical_or:
      encode_node(*node.lhs, w);
      encode_node(*node.rhs, w);
      return;
    case ExprNode::Kind::logical_not:
      encode_node(*node.lhs, w);
      return;
    case ExprNode::Kind::exists:
      w.string(node.attribute);
      return;
    case ExprNode::Kind::compare:
      w.string(node.attribute);
      w.u8(static_cast<std::uint8_t>(node.op));
      node.value.encode(w);
      return;
    case ExprNode::Kind::membership:
      w.string(node.attribute);
      w.varint(node.values.size());
      for (const AttributeValue& value : node.values) value.encode(w);
      return;
  }
}

/// Reads one node and its operands; null once `r` has failed.
NodePtr decode_node(serde::Reader& r, int depth) {
  if (depth > 64) {
    r.fail(Errc::malformed, "selector too deep");
    return nullptr;
  }
  const std::uint8_t kind = r.u8();
  if (!r.ok()) return nullptr;
  if (kind > static_cast<std::uint8_t>(ExprNode::Kind::membership)) {
    r.fail(Errc::malformed, "unknown selector node kind");
    return nullptr;
  }
  switch (static_cast<ExprNode::Kind>(kind)) {
    case ExprNode::Kind::literal_true:
      return make_bool(true);
    case ExprNode::Kind::literal_false:
      return make_bool(false);
    case ExprNode::Kind::logical_and:
    case ExprNode::Kind::logical_or: {
      NodePtr lhs = decode_node(r, depth + 1);
      NodePtr rhs = decode_node(r, depth + 1);
      if (!r.ok()) return nullptr;
      return make_binary(static_cast<ExprNode::Kind>(kind), std::move(lhs),
                         std::move(rhs));
    }
    case ExprNode::Kind::logical_not: {
      NodePtr operand = decode_node(r, depth + 1);
      if (!r.ok()) return nullptr;
      return make_not(std::move(operand));
    }
    case ExprNode::Kind::exists: {
      const std::string_view attribute = r.view_string();
      if (!r.ok()) return nullptr;
      return make_exists(std::string(attribute));
    }
    case ExprNode::Kind::compare: {
      const std::string_view attribute = r.view_string();
      const std::uint8_t op = r.u8();
      if (op > static_cast<std::uint8_t>(Op::ge)) {
        r.fail(Errc::malformed, "unknown comparison operator");
      }
      AttributeValue value = AttributeValue::decode(r);
      if (!r.ok()) return nullptr;
      return make_compare(std::string(attribute), static_cast<Op>(op),
                          std::move(value));
    }
    case ExprNode::Kind::membership: {
      const std::string_view attribute = r.view_string();
      const std::uint64_t count = r.varint();
      if (!r.ok()) return nullptr;
      if (count == 0 || count > 256) {
        r.fail(Errc::malformed, "bad membership list size");
        return nullptr;
      }
      // A value takes at least two bytes (tag and payload), so the input
      // present bounds the reservation.
      std::vector<AttributeValue> values;
      values.reserve(static_cast<std::size_t>(
          std::min<std::uint64_t>(count, r.remaining() / 2)));
      for (std::uint64_t i = 0; i < count && r.ok(); ++i) {
        values.push_back(AttributeValue::decode(r));
      }
      if (!r.ok()) return nullptr;
      return make_membership(std::string(attribute), std::move(values));
    }
  }
  r.fail(Errc::malformed, "unknown selector node");
  return nullptr;
}

}  // namespace
}  // namespace detail

const Selector& Selector::shared_always() {
  static const Selector always(detail::make_bool(true));
  return always;
}

// Every default selector copies one immutable compiled `true`: a received
// message default-constructs one before decoding into it.
Selector::Selector() : Selector(shared_always()) {}

Selector::Selector(std::shared_ptr<const detail::ExprNode> root)
    : root_(std::move(root)) {
  assert(root_ != nullptr);
  program_ = detail::compile(*root_);
}

Result<Selector> Selector::parse(std::string_view text) {
  detail::Lexer lexer(text);
  auto tokens = lexer.run();
  if (!tokens) return tokens.error();
  detail::Parser parser(std::move(tokens).take());
  auto root = parser.run();
  if (!root) return root.error();
  return Selector(std::move(root).take());
}

bool Selector::matches(const AttributeSet& attributes) const {
  return detail::run(*program_, attributes);
}

bool Selector::interpret(const AttributeSet& attributes) const {
  return detail::evaluate(*root_, attributes);
}

std::string Selector::to_string() const {
  std::string out;
  detail::print(*root_, out);
  return out;
}

Selector Selector::and_with(const Selector& other) const {
  return Selector(detail::make_binary(detail::ExprNode::Kind::logical_and,
                                      root_, other.root_));
}

Selector Selector::negate() const {
  return Selector(detail::make_not(root_));
}

Selector Selector::always() { return Selector(); }

Selector Selector::equals(std::string attribute, AttributeValue value) {
  return Selector(detail::make_compare(std::move(attribute), detail::Op::eq,
                                       std::move(value)));
}

void Selector::encode(serde::Writer& w) const {
  detail::encode_node(*root_, w);
}

Selector Selector::decode(serde::Reader& r) {
  detail::NodePtr root = detail::decode_node(r, 0);
  if (!r.ok()) return Selector();
  return Selector(std::move(root));
}

Result<std::size_t> encoded_selector_length(
    std::span<const std::uint8_t> data) {
  using Kind = detail::ExprNode::Kind;
  // Breadth-agnostic structural scan: every node consumes its header
  // and operands; children are accounted with a pending counter, so
  // arbitrarily deep selectors scan without recursion or allocation.
  // This runs per received message on the cache-hit fast path, so it
  // walks raw pointers and builds nothing.
  const std::uint8_t* p = data.data();
  const std::uint8_t* const end = p + data.size();
  const auto skip_varint = [&]() -> bool {
    for (int i = 0; i < 10 && p < end; ++i) {
      if ((*p++ & 0x80) == 0) return true;
    }
    return false;
  };
  const auto read_varint = [&](std::uint64_t& out) -> bool {
    out = 0;
    for (int i = 0; i < 10 && p < end; ++i) {
      const std::uint8_t byte = *p++;
      out |= static_cast<std::uint64_t>(byte & 0x7f) << (7 * i);
      if ((byte & 0x80) == 0) return true;
    }
    return false;
  };
  const auto skip_string = [&]() -> bool {
    std::uint64_t length = 0;
    if (!read_varint(length)) return false;
    if (static_cast<std::uint64_t>(end - p) < length) return false;
    p += length;
    return true;
  };
  const auto skip_value = [&]() -> bool {
    if (p == end) return false;
    switch (*p++) {
      case 0:  // boolean
        if (end - p < 1) return false;
        p += 1;
        return true;
      case 1:  // svarint integer
        return skip_varint();
      case 2:  // f64 real
        if (end - p < 8) return false;
        p += 8;
        return true;
      case 3:  // text
        return skip_string();
      default:
        return false;
    }
  };
  std::uint64_t pending = 1;
  while (pending > 0) {
    --pending;
    if (p == end) return Error{Errc::malformed, "truncated selector"};
    const std::uint8_t kind = *p++;
    if (kind > static_cast<std::uint8_t>(Kind::membership)) {
      return Error{Errc::malformed, "unknown selector node kind"};
    }
    switch (static_cast<Kind>(kind)) {
      case Kind::literal_true:
      case Kind::literal_false:
        break;
      case Kind::logical_and:
      case Kind::logical_or:
        pending += 2;
        break;
      case Kind::logical_not:
        pending += 1;
        break;
      case Kind::exists:
        if (!skip_string()) {
          return Error{Errc::malformed, "truncated selector"};
        }
        break;
      case Kind::compare:
        if (!skip_string() || p == end) {
          return Error{Errc::malformed, "truncated selector"};
        }
        ++p;  // comparison op
        if (!skip_value()) {
          return Error{Errc::malformed, "truncated selector"};
        }
        break;
      case Kind::membership: {
        std::uint64_t count = 0;
        if (!skip_string() || !read_varint(count)) {
          return Error{Errc::malformed, "truncated selector"};
        }
        if (count == 0 || count > 256) {
          return Error{Errc::malformed, "bad membership list size"};
        }
        for (std::uint64_t i = 0; i < count; ++i) {
          if (!skip_value()) {
            return Error{Errc::malformed, "truncated selector"};
          }
        }
        break;
      }
    }
  }
  return static_cast<std::size_t>(p - data.data());
}

}  // namespace collabqos::pubsub

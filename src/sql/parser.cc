#include "sql/parser.h"

#include <algorithm>
#include <utility>

#include "sql/lexer.h"
#include "util/string_util.h"

namespace asqp {
namespace sql {

namespace {

using util::Status;

AggFunc AggregateOf(Keyword kw) {
  switch (kw) {
    case Keyword::kCount: return AggFunc::kCount;
    case Keyword::kSum: return AggFunc::kSum;
    case Keyword::kAvg: return AggFunc::kAvg;
    case Keyword::kMin: return AggFunc::kMin;
    case Keyword::kMax: return AggFunc::kMax;
    default: return AggFunc::kNone;
  }
}

/// Whether NOT before `next` negates the predicate that follows (NOT IN,
/// NOT BETWEEN, NOT LIKE). A string literal spelled 'IN', 'BETWEEN' or
/// 'LIKE' also matches, as it did when tokens compared by text: the parse
/// then fails at that literal, and the error offset stays where it was.
bool NegatesPredicate(const Token& next) {
  if (next.type == TokenType::kKeyword) {
    return next.keyword == Keyword::kIn || next.keyword == Keyword::kBetween ||
           next.keyword == Keyword::kLike;
  }
  return next.type == TokenType::kString &&
         (next.text == "IN" || next.text == "BETWEEN" || next.text == "LIKE");
}

/// Recursive descent over the token vector. Every production writes its
/// result through an out-parameter and returns a Status, so the hot path
/// builds no Result per precedence level.
class Parser {
 public:
  explicit Parser(const std::vector<Token>& tokens) : tokens_(tokens) {}

  Status ParseSelect(SelectStatement* stmt) {
    ASQP_RETURN_NOT_OK(ExpectKeyword(Keyword::kSelect));
    if (AcceptKeyword(Keyword::kDistinct)) stmt->distinct = true;

    // Select list.
    stmt->items.reserve(4);
    while (true) {
      stmt->items.emplace_back();
      ASQP_RETURN_NOT_OK(ParseSelectItem(&stmt->items.back()));
      if (!AcceptSymbol(',')) break;
    }

    ASQP_RETURN_NOT_OK(ExpectKeyword(Keyword::kFrom));
    // FROM list with optional JOIN ... ON (normalized to cross product +
    // WHERE conjuncts).
    std::vector<ExprPtr> join_conjuncts;
    stmt->from.reserve(4);
    stmt->from.emplace_back();
    ASQP_RETURN_NOT_OK(ParseTableRef(&stmt->from.back()));
    while (true) {
      if (AcceptSymbol(',')) {
        stmt->from.emplace_back();
        ASQP_RETURN_NOT_OK(ParseTableRef(&stmt->from.back()));
        continue;
      }
      if (PeekKeyword(Keyword::kJoin) || PeekKeyword(Keyword::kInner)) {
        AcceptKeyword(Keyword::kInner);
        ASQP_RETURN_NOT_OK(ExpectKeyword(Keyword::kJoin));
        stmt->from.emplace_back();
        ASQP_RETURN_NOT_OK(ParseTableRef(&stmt->from.back()));
        ASQP_RETURN_NOT_OK(ExpectKeyword(Keyword::kOn));
        join_conjuncts.emplace_back();
        ASQP_RETURN_NOT_OK(ParseExpr(&join_conjuncts.back()));
        continue;
      }
      break;
    }

    if (AcceptKeyword(Keyword::kWhere)) {
      ASQP_RETURN_NOT_OK(ParseExpr(&stmt->where));
    }
    if (!join_conjuncts.empty()) {
      ExprPtr joined = AndAll(join_conjuncts);
      stmt->where = stmt->where
                        ? Expr::Binary(BinOp::kAnd, joined, stmt->where)
                        : joined;
    }

    if (AcceptKeyword(Keyword::kGroup)) {
      ASQP_RETURN_NOT_OK(ExpectKeyword(Keyword::kBy));
      while (true) {
        stmt->group_by.emplace_back();
        ASQP_RETURN_NOT_OK(ParsePrimary(&stmt->group_by.back()));
        if (!AcceptSymbol(',')) break;
      }
    }

    if (AcceptKeyword(Keyword::kHaving)) {
      if (stmt->group_by.empty() && !stmt->HasAggregates()) {
        return Status::ParseError("HAVING requires GROUP BY or aggregates");
      }
      ASQP_RETURN_NOT_OK(ParseExpr(&stmt->having));
    }

    if (AcceptKeyword(Keyword::kOrder)) {
      ASQP_RETURN_NOT_OK(ExpectKeyword(Keyword::kBy));
      while (true) {
        stmt->order_by.emplace_back();
        OrderItem& item = stmt->order_by.back();
        ASQP_RETURN_NOT_OK(ParsePrimary(&item.expr));
        if (AcceptKeyword(Keyword::kDesc)) item.desc = true;
        else AcceptKeyword(Keyword::kAsc);
        if (!AcceptSymbol(',')) break;
      }
    }

    if (AcceptKeyword(Keyword::kLimit)) {
      if (Peek().type != TokenType::kInteger) {
        return ErrorHere("expected integer after LIMIT");
      }
      stmt->limit = Peek().int_value;
      Advance();
    }

    if (Peek().type != TokenType::kEnd) {
      return ErrorHere("unexpected trailing input");
    }
    if (stmt->from.empty()) {
      return Status::ParseError("query has no FROM clause");
    }
    return Status::OK();
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    const size_t idx = std::min(pos_ + ahead, tokens_.size() - 1);
    return tokens_[idx];
  }
  void Advance() { if (pos_ + 1 < tokens_.size()) ++pos_; }

  bool PeekKeyword(Keyword kw) const {
    return Peek().type == TokenType::kKeyword && Peek().keyword == kw;
  }
  bool AcceptKeyword(Keyword kw) {
    if (!PeekKeyword(kw)) return false;
    Advance();
    return true;
  }
  Status ExpectKeyword(Keyword kw) {
    if (!AcceptKeyword(kw)) {
      return Status::ParseError(util::Format(
          "expected %s at offset %zu (got '%s')", KeywordName(kw),
          Peek().position, Peek().Normalized().c_str()));
    }
    return Status::OK();
  }
  bool PeekSymbol(char sym) const {
    return Peek().type == TokenType::kSymbol && Peek().symbol == sym;
  }
  bool AcceptSymbol(char sym) {
    if (!PeekSymbol(sym)) return false;
    Advance();
    return true;
  }
  Status ExpectSymbol(char sym) {
    if (!AcceptSymbol(sym)) {
      return Status::ParseError(util::Format(
          "expected '%c' at offset %zu (got '%s')", sym, Peek().position,
          Peek().Normalized().c_str()));
    }
    return Status::OK();
  }
  /// The AST string of the identifier under the cursor, which the caller
  /// has checked is one.
  std::string TakeIdentifier() {
    std::string name = LowerIdentifier(Peek().text);
    Advance();
    return name;
  }
  Status ErrorHere(const char* msg) {
    return Status::ParseError(
        util::Format("%s at offset %zu", msg, Peek().position));
  }

  /// `AS alias` after a select item or a table, when present.
  Status ParseAlias(std::string* alias) {
    if (!AcceptKeyword(Keyword::kAs)) return Status::OK();
    if (Peek().type != TokenType::kIdentifier) {
      return ErrorHere("expected alias after AS");
    }
    *alias = TakeIdentifier();
    return Status::OK();
  }

  Status ParseSelectItem(SelectItem* item) {
    // Aggregate function?
    if (Peek().type == TokenType::kKeyword) {
      const AggFunc agg = AggregateOf(Peek().keyword);
      if (agg != AggFunc::kNone) {
        Advance();
        item->agg = agg;
        ASQP_RETURN_NOT_OK(ExpectSymbol('('));
        if (AcceptKeyword(Keyword::kDistinct)) item->distinct = true;
        if (AcceptSymbol('*')) {
          if (item->distinct) return ErrorHere("DISTINCT * is not valid");
          item->star = true;
        } else {
          ASQP_RETURN_NOT_OK(ParseAdditive(&item->expr));
        }
        ASQP_RETURN_NOT_OK(ExpectSymbol(')'));
        return ParseAlias(&item->alias);
      }
    }
    if (AcceptSymbol('*')) {
      item->star = true;
      return Status::OK();
    }
    ASQP_RETURN_NOT_OK(ParseAdditive(&item->expr));
    return ParseAlias(&item->alias);
  }

  Status ParseTableRef(TableRef* ref) {
    if (Peek().type != TokenType::kIdentifier) {
      return ErrorHere("expected table name");
    }
    ref->table = TakeIdentifier();
    if (PeekKeyword(Keyword::kAs)) return ParseAlias(&ref->alias);
    if (Peek().type == TokenType::kIdentifier) ref->alias = TakeIdentifier();
    return Status::OK();
  }

  // expr        := and_expr (OR and_expr)*
  // and_expr    := not_expr (AND not_expr)*
  // not_expr    := NOT not_expr | predicate
  // predicate   := additive [comparison | IN | BETWEEN | LIKE | IS NULL]
  // additive    := multiplicative ((+|-) multiplicative)*
  // multiplicative := primary ((*|/) primary)*
  // primary     := literal | column_ref | ( expr )
  Status ParseExpr(ExprPtr* out) {
    ASQP_RETURN_NOT_OK(ParseAnd(out));
    while (AcceptKeyword(Keyword::kOr)) {
      ExprPtr right;
      ASQP_RETURN_NOT_OK(ParseAnd(&right));
      *out = Expr::Binary(BinOp::kOr, std::move(*out), std::move(right));
    }
    return Status::OK();
  }

  Status ParseAnd(ExprPtr* out) {
    ASQP_RETURN_NOT_OK(ParseNot(out));
    while (AcceptKeyword(Keyword::kAnd)) {
      ExprPtr right;
      ASQP_RETURN_NOT_OK(ParseNot(&right));
      *out = Expr::Binary(BinOp::kAnd, std::move(*out), std::move(right));
    }
    return Status::OK();
  }

  Status ParseNot(ExprPtr* out) {
    if (AcceptKeyword(Keyword::kNot)) {
      ExprPtr operand;
      ASQP_RETURN_NOT_OK(ParseNot(&operand));
      *out = Expr::Not(std::move(operand));
      return Status::OK();
    }
    return ParsePredicate(out);
  }

  Status ParsePredicate(ExprPtr* out) {
    ASQP_RETURN_NOT_OK(ParseAdditive(out));
    // Comparison operators.
    if (Peek().type == TokenType::kSymbol) {
      BinOp op = BinOp::kEq;
      switch (Peek().symbol) {
        case '=': op = BinOp::kEq; break;
        case kSymNe: op = BinOp::kNe; break;
        case kSymLe: op = BinOp::kLe; break;
        case kSymGe: op = BinOp::kGe; break;
        case '<': op = BinOp::kLt; break;
        case '>': op = BinOp::kGt; break;
        default: return Status::OK();
      }
      Advance();
      ExprPtr right;
      ASQP_RETURN_NOT_OK(ParseAdditive(&right));
      *out = Expr::Binary(op, std::move(*out), std::move(right));
      return Status::OK();
    }
    bool negated = false;
    if (PeekKeyword(Keyword::kNot) && NegatesPredicate(Peek(1))) {
      Advance();
      negated = true;
    }
    if (AcceptKeyword(Keyword::kIn)) {
      ASQP_RETURN_NOT_OK(ExpectSymbol('('));
      std::vector<storage::Value> list;
      while (true) {
        list.emplace_back();
        ASQP_RETURN_NOT_OK(ParseLiteralValue(&list.back()));
        if (!AcceptSymbol(',')) break;
      }
      ASQP_RETURN_NOT_OK(ExpectSymbol(')'));
      *out = Expr::In(std::move(*out), std::move(list), negated);
      return Status::OK();
    }
    if (AcceptKeyword(Keyword::kBetween)) {
      ExprPtr between = Expr::Between(std::move(*out), storage::Value(),
                                      storage::Value(), negated);
      ASQP_RETURN_NOT_OK(ParseLiteralValue(&between->between_lo));
      ASQP_RETURN_NOT_OK(ExpectKeyword(Keyword::kAnd));
      ASQP_RETURN_NOT_OK(ParseLiteralValue(&between->between_hi));
      *out = std::move(between);
      return Status::OK();
    }
    if (AcceptKeyword(Keyword::kLike)) {
      if (Peek().type != TokenType::kString) {
        return ErrorHere("expected string pattern after LIKE");
      }
      std::string pattern = StringLiteralValue(Peek());
      Advance();
      *out = Expr::Like(std::move(*out), std::move(pattern), negated);
      return Status::OK();
    }
    if (AcceptKeyword(Keyword::kIs)) {
      bool is_not = AcceptKeyword(Keyword::kNot);
      ASQP_RETURN_NOT_OK(ExpectKeyword(Keyword::kNull));
      *out = Expr::IsNull(std::move(*out), is_not);
    }
    return Status::OK();
  }

  Status ParseAdditive(ExprPtr* out) {
    ASQP_RETURN_NOT_OK(ParseMultiplicative(out));
    while (true) {
      BinOp op = BinOp::kAdd;
      if (AcceptSymbol('+')) {
        op = BinOp::kAdd;
      } else if (AcceptSymbol('-')) {
        op = BinOp::kSub;
      } else {
        return Status::OK();
      }
      ExprPtr right;
      ASQP_RETURN_NOT_OK(ParseMultiplicative(&right));
      *out = Expr::Binary(op, std::move(*out), std::move(right));
    }
  }

  Status ParseMultiplicative(ExprPtr* out) {
    ASQP_RETURN_NOT_OK(ParsePrimary(out));
    while (true) {
      BinOp op = BinOp::kMul;
      if (AcceptSymbol('*')) {
        op = BinOp::kMul;
      } else if (AcceptSymbol('/')) {
        op = BinOp::kDiv;
      } else {
        return Status::OK();
      }
      ExprPtr right;
      ASQP_RETURN_NOT_OK(ParsePrimary(&right));
      *out = Expr::Binary(op, std::move(*out), std::move(right));
    }
  }

  /// Parse a literal constant (optionally negated) into `*out`.
  Status ParseLiteralValue(storage::Value* out) {
    const bool neg = AcceptSymbol('-');
    const Token& tok = Peek();
    switch (tok.type) {
      case TokenType::kInteger:
        *out = storage::Value(neg ? -tok.int_value : tok.int_value);
        break;
      case TokenType::kFloat:
        *out = storage::Value(neg ? -tok.float_value : tok.float_value);
        break;
      case TokenType::kString:
        if (neg) return ErrorHere("cannot negate a string literal");
        *out = storage::Value(StringLiteralValue(tok));
        break;
      case TokenType::kKeyword:
        if (tok.keyword == Keyword::kNull) {
          if (neg) return ErrorHere("cannot negate NULL");
          *out = storage::Value::Null();
          break;
        }
        [[fallthrough]];
      default:
        return ErrorHere("expected literal value");
    }
    Advance();
    return Status::OK();
  }

  Status ParseLiteral(ExprPtr* out) {
    *out = Expr::Literal(storage::Value());
    return ParseLiteralValue(&(*out)->literal);
  }

  Status ParsePrimary(ExprPtr* out) {
    const Token& tok = Peek();
    switch (tok.type) {
      case TokenType::kInteger:
      case TokenType::kFloat:
      case TokenType::kString:
        return ParseLiteral(out);
      case TokenType::kSymbol:
        if (tok.symbol == '(') {
          Advance();
          ASQP_RETURN_NOT_OK(ParseExpr(out));
          return ExpectSymbol(')');
        }
        if (tok.symbol == '-') return ParseLiteral(out);
        return ErrorHere("unexpected symbol");
      case TokenType::kKeyword:
        if (tok.keyword == Keyword::kNull) {
          Advance();
          *out = Expr::Literal(storage::Value::Null());
          return Status::OK();
        }
        // Aggregate-function names act as identifiers when not called:
        // e.g. HAVING count >= 3 references the output column "count".
        if (AggregateOf(tok.keyword) != AggFunc::kNone &&
            !(Peek(1).type == TokenType::kSymbol && Peek(1).symbol == '(')) {
          std::string name = LowerIdentifier(tok.text);
          Advance();
          *out = Expr::ColumnRef("", std::move(name));
          return Status::OK();
        }
        return ErrorHere("unexpected keyword");
      case TokenType::kIdentifier: {
        std::string first = TakeIdentifier();
        if (AcceptSymbol('.')) {
          if (Peek().type != TokenType::kIdentifier) {
            return ErrorHere("expected column name after '.'");
          }
          *out = Expr::ColumnRef(std::move(first), TakeIdentifier());
        } else {
          *out = Expr::ColumnRef("", std::move(first));
        }
        return Status::OK();
      }
      case TokenType::kEnd:
        return ErrorHere("unexpected end of input");
    }
    return ErrorHere("unexpected token");
  }

  const std::vector<Token>& tokens_;
  size_t pos_ = 0;
};

}  // namespace

util::Result<SelectStatement> Parse(const std::string& sql) {
  // Each thread reuses one token buffer. The tokens view `sql`, which
  // outlives the parser; the buffer is cleared before its next use.
  thread_local std::vector<Token> tokens;
  ASQP_RETURN_NOT_OK(Tokenize(sql, &tokens));
  Parser parser(tokens);
  util::Result<SelectStatement> stmt(std::in_place);
  ASQP_RETURN_NOT_OK(parser.ParseSelect(&stmt.value()));
  return stmt;
}

}  // namespace sql
}  // namespace asqp

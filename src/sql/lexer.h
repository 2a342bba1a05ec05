// SQL tokenizer. Tokens are views: the lexer allocates nothing per token.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace asqp {
namespace sql {

enum class TokenType : uint8_t {
  kKeyword,     // recognized case-insensitively; `keyword` names it
  kIdentifier,  // table / column name, as written (the AST lower-cases it)
  kInteger,
  kFloat,
  kString,      // quoted string literal
  kSymbol,      // punctuation / operator: ( ) , . = <> < <= > >= + - * /
  kEnd,
};

/// The dialect's reserved words.
enum class Keyword : uint8_t {
  kNone,
  kSelect, kDistinct, kFrom, kWhere, kGroup, kBy, kOrder, kLimit, kAnd,
  kOr, kNot, kIn, kBetween, kLike, kIs, kNull, kAs, kJoin, kInner, kOn,
  kAsc, kDesc, kCount, kSum, kAvg, kMin, kMax, kHaving,
};

/// Upper-case spelling of `kw` ("" for kNone).
const char* KeywordName(Keyword kw);

/// Token::symbol of the two-character operators. A one-character symbol's
/// id is the character itself.
inline constexpr char kSymLe = 'L';  // <=
inline constexpr char kSymGe = 'G';  // >=
inline constexpr char kSymNe = 'N';  // <> (also spelled !=)

struct Token {
  /// kKeyword: the keyword's upper-case spelling. kSymbol: the operator,
  /// with `!=` reading `<>`. Both point at static storage. kIdentifier,
  /// kInteger, kFloat: the spelling in the input. kString: the characters
  /// between the quotes, a doubled quote still doubled. kEnd: empty.
  std::string_view text;
  int64_t int_value = 0;
  double float_value = 0.0;
  size_t position = 0;  // byte offset in the input, for error messages
  TokenType type = TokenType::kEnd;
  Keyword keyword = Keyword::kNone;  ///< kKeyword
  char symbol = 0;                   ///< kSymbol: the character or kSym*
  bool escaped = false;              ///< kString holding a doubled quote

  /// The token's normalized text: a keyword upper-case, an identifier
  /// lower-cased, a string literal unescaped, a symbol as in `text`;
  /// empty for numbers (see int_value / float_value) and the end.
  std::string Normalized() const;
};

/// Tokenize `input`. Keywords are recognized case-insensitively through a
/// fixed table; identifiers and string literals stay views of `input`,
/// which must outlive the tokens.
[[nodiscard]] util::Result<std::vector<Token>> Tokenize(std::string_view input);

/// As above, into `*tokens` (cleared first, its capacity reused).
[[nodiscard]] util::Status Tokenize(std::string_view input,
                                    std::vector<Token>* tokens);

/// Lower-case copy of an identifier's spelling (ASCII).
std::string LowerIdentifier(std::string_view text);

/// The value of a kString token: its text, with each doubled quote
/// collapsed when `escaped`.
std::string StringLiteralValue(const Token& token);

}  // namespace sql
}  // namespace asqp

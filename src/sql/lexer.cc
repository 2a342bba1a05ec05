#include "sql/lexer.h"

#include <array>
#include <charconv>
#include <cstdlib>
#include <iterator>

#include "util/string_util.h"

namespace asqp {
namespace sql {

namespace {

// ASCII character classes, one table load per character (the "C"
// locale's isspace / isdigit / isalpha, and '_' as a letter).
enum : uint8_t { kSpaceClass = 1, kDigitClass = 2, kLetterClass = 4 };

constexpr std::array<uint8_t, 256> MakeClasses() {
  std::array<uint8_t, 256> classes{};
  for (int c = 0; c < 256; ++c) {
    if (c == ' ' || (c >= '\t' && c <= '\r')) classes[c] = kSpaceClass;
    if (c >= '0' && c <= '9') classes[c] = kDigitClass;
    if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_') {
      classes[c] = kLetterClass;
    }
  }
  return classes;
}
constexpr std::array<uint8_t, 256> kClasses = MakeClasses();

bool Is(char c, uint8_t cls) {
  return (kClasses[static_cast<uint8_t>(c)] & cls) != 0;
}
bool IsSpace(char c) { return Is(c, kSpaceClass); }
bool IsDigit(char c) { return Is(c, kDigitClass); }
bool IsIdentStart(char c) { return Is(c, kLetterClass); }
bool IsIdentChar(char c) { return Is(c, kLetterClass | kDigitClass); }
char ToUpperAscii(char c) {
  return c >= 'a' && c <= 'z' ? static_cast<char>(c - 'a' + 'A') : c;
}
char ToLowerAscii(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

/// A word of up to eight characters packed into one integer, one byte per
/// character, so comparing a word with a keyword is one comparison.
constexpr uint64_t Pack(std::string_view word) {
  uint64_t packed = 0;
  for (size_t i = 0; i < word.size(); ++i) {
    packed |= static_cast<uint64_t>(static_cast<uint8_t>(word[i])) << (8 * i);
  }
  return packed;
}

struct KeywordEntry {
  std::string_view name;
  Keyword keyword;
  uint64_t packed;
};

constexpr KeywordEntry Entry(std::string_view name, Keyword keyword) {
  return KeywordEntry{name, keyword, Pack(name)};
}

/// Every keyword, by Keyword value (index = enum value); none is longer
/// than eight characters.
constexpr KeywordEntry kKeywords[] = {
    Entry("", Keyword::kNone),
    Entry("SELECT", Keyword::kSelect),    Entry("DISTINCT", Keyword::kDistinct),
    Entry("FROM", Keyword::kFrom),        Entry("WHERE", Keyword::kWhere),
    Entry("GROUP", Keyword::kGroup),      Entry("BY", Keyword::kBy),
    Entry("ORDER", Keyword::kOrder),      Entry("LIMIT", Keyword::kLimit),
    Entry("AND", Keyword::kAnd),          Entry("OR", Keyword::kOr),
    Entry("NOT", Keyword::kNot),          Entry("IN", Keyword::kIn),
    Entry("BETWEEN", Keyword::kBetween),  Entry("LIKE", Keyword::kLike),
    Entry("IS", Keyword::kIs),            Entry("NULL", Keyword::kNull),
    Entry("AS", Keyword::kAs),            Entry("JOIN", Keyword::kJoin),
    Entry("INNER", Keyword::kInner),      Entry("ON", Keyword::kOn),
    Entry("ASC", Keyword::kAsc),          Entry("DESC", Keyword::kDesc),
    Entry("COUNT", Keyword::kCount),      Entry("SUM", Keyword::kSum),
    Entry("AVG", Keyword::kAvg),          Entry("MIN", Keyword::kMin),
    Entry("MAX", Keyword::kMax),          Entry("HAVING", Keyword::kHaving),
};
constexpr size_t kMaxKeywordLength = 8;

/// A multiplicative hash that sends every packed keyword to its own slot
/// of a 64-entry table (the multiplier was found by search; kSlots below
/// proves it at compile time), so a probe is one multiply, one load and
/// one comparison.
constexpr uint64_t kSlotMultiplier = 0xed2f2a1688e78b31ULL;
constexpr size_t kSlotBits = 6;

constexpr size_t SlotOf(uint64_t packed) {
  return static_cast<size_t>((packed * kSlotMultiplier) >> (64 - kSlotBits));
}

struct SlotTable {
  uint8_t keyword[size_t{1} << kSlotBits] = {};  // kKeywords index; 0 = none
  bool collision_free = true;
};

constexpr SlotTable MakeSlotTable() {
  SlotTable table;
  for (size_t k = 1; k < std::size(kKeywords); ++k) {
    const size_t slot = SlotOf(kKeywords[k].packed);
    if (table.keyword[slot] != 0) table.collision_free = false;
    table.keyword[slot] = static_cast<uint8_t>(k);
  }
  return table;
}

constexpr SlotTable kSlots = MakeSlotTable();
static_assert(kSlots.collision_free, "two keywords share a hash slot");

/// The keyword a word spells, or null: `packed` is the word's first
/// eight characters upper-cased and packed, `length` its full length.
const KeywordEntry* FindKeyword(uint64_t packed, size_t length) {
  if (length < 2 || length > kMaxKeywordLength) return nullptr;
  const KeywordEntry& entry = kKeywords[kSlots.keyword[SlotOf(packed)]];
  return entry.packed == packed ? &entry : nullptr;
}

}  // namespace

const char* KeywordName(Keyword kw) {
  // Every name is a literal, so its view is NUL-terminated.
  return kKeywords[static_cast<size_t>(kw)].name.data();
}

std::string LowerIdentifier(std::string_view text) {
  std::string out(text.size(), '\0');
  char* dst = out.data();
  for (size_t i = 0; i < text.size(); ++i) dst[i] = ToLowerAscii(text[i]);
  return out;
}

std::string StringLiteralValue(const Token& token) {
  if (!token.escaped) return std::string(token.text);
  std::string out;
  out.reserve(token.text.size());
  for (size_t i = 0; i < token.text.size(); ++i) {
    out.push_back(token.text[i]);
    if (token.text[i] == '\'') ++i;  // '' stands for one quote
  }
  return out;
}

std::string Token::Normalized() const {
  switch (type) {
    case TokenType::kIdentifier:
      return LowerIdentifier(text);
    case TokenType::kString:
      return StringLiteralValue(*this);
    case TokenType::kKeyword:
    case TokenType::kSymbol:
      return std::string(text);
    case TokenType::kInteger:
    case TokenType::kFloat:
    case TokenType::kEnd:
      break;
  }
  return std::string();
}

util::Result<std::vector<Token>> Tokenize(std::string_view input) {
  std::vector<Token> tokens;
  ASQP_RETURN_NOT_OK(Tokenize(input, &tokens));
  return tokens;
}

util::Status Tokenize(std::string_view input, std::vector<Token>* out) {
  std::vector<Token>& tokens = *out;
  tokens.clear();
  // About one token per four bytes of SQL; one allocation for most queries.
  tokens.reserve(input.size() / 4 + 8);
  size_t i = 0;
  const size_t n = input.size();
  while (i < n) {
    const char c = input[i];
    if (IsSpace(c)) {
      ++i;
      continue;
    }
    Token& tok = tokens.emplace_back();
    tok.position = i;
    if (IsIdentStart(c)) {
      // Scan the word, packing its first eight characters upper-cased for
      // the keyword probe as it goes.
      size_t j = i;
      uint64_t packed = 0;
      for (; j < n && IsIdentChar(input[j]); ++j) {
        if (j - i < kMaxKeywordLength) {
          packed |= static_cast<uint64_t>(
                        static_cast<uint8_t>(ToUpperAscii(input[j])))
                    << (8 * (j - i));
        }
      }
      if (const KeywordEntry* kw = FindKeyword(packed, j - i)) {
        tok.type = TokenType::kKeyword;
        tok.keyword = kw->keyword;
        tok.text = kw->name;
      } else {
        tok.type = TokenType::kIdentifier;
        tok.text = input.substr(i, j - i);
      }
      i = j;
    } else if (IsDigit(c) || (c == '.' && i + 1 < n && IsDigit(input[i + 1]))) {
      size_t j = i;
      bool is_float = false;
      while (j < n && (IsDigit(input[j]) || input[j] == '.')) {
        if (input[j] == '.') {
          // `1.` followed by a non-digit is "1" then symbol "." (qualified
          // names never start with a digit, so this is unambiguous here).
          if (j + 1 >= n || !IsDigit(input[j + 1])) break;
          is_float = true;
        }
        ++j;
      }
      tok.text = input.substr(i, j - i);
      const char* first = input.data() + i;
      const char* last = input.data() + j;
      // from_chars reads the same longest prefix strtod / strtoll would
      // (`1.2.3` reads 1.2); only out-of-range spellings take the libc
      // path, for its saturated values (INT64_MAX, HUGE_VAL, 0).
      if (is_float) {
        tok.type = TokenType::kFloat;
        if (std::from_chars(first, last, tok.float_value).ec != std::errc()) {
          tok.float_value = std::strtod(std::string(tok.text).c_str(), nullptr);
        }
      } else {
        tok.type = TokenType::kInteger;
        if (std::from_chars(first, last, tok.int_value).ec != std::errc()) {
          tok.int_value =
              std::strtoll(std::string(tok.text).c_str(), nullptr, 10);
        }
      }
      i = j;
    } else if (c == '\'') {
      size_t j = i + 1;
      bool closed = false;
      while (j < n) {
        if (input[j] == '\'') {
          if (j + 1 < n && input[j + 1] == '\'') {  // escaped quote
            tok.escaped = true;
            j += 2;
            continue;
          }
          closed = true;
          break;
        }
        ++j;
      }
      if (!closed) {
        return util::Status::ParseError(
            util::Format("unterminated string literal at offset %zu", i));
      }
      tok.type = TokenType::kString;
      tok.text = input.substr(i + 1, j - i - 1);
      i = j + 1;
    } else {
      // Symbols, including two-character operators.
      tok.type = TokenType::kSymbol;
      const char next = i + 1 < n ? input[i + 1] : '\0';
      if (c == '<' && next == '=') {
        tok.symbol = kSymLe;
        tok.text = "<=";
      } else if (c == '>' && next == '=') {
        tok.symbol = kSymGe;
        tok.text = ">=";
      } else if ((c == '<' && next == '>') || (c == '!' && next == '=')) {
        tok.symbol = kSymNe;
        tok.text = "<>";
      } else {
        switch (c) {
          case '(': tok.text = "("; break;
          case ')': tok.text = ")"; break;
          case ',': tok.text = ","; break;
          case '.': tok.text = "."; break;
          case '=': tok.text = "="; break;
          case '<': tok.text = "<"; break;
          case '>': tok.text = ">"; break;
          case '+': tok.text = "+"; break;
          case '-': tok.text = "-"; break;
          case '*': tok.text = "*"; break;
          case '/': tok.text = "/"; break;
          default:
            return util::Status::ParseError(
                util::Format("unexpected character '%c' at offset %zu", c, i));
        }
        tok.symbol = c;
      }
      i += tok.text.size();
    }
  }
  Token& end = tokens.emplace_back();
  end.type = TokenType::kEnd;
  end.position = n;
  return util::Status::OK();
}

}  // namespace sql
}  // namespace asqp

#ifndef CCDB_LANG_LEXER_H_
#define CCDB_LANG_LEXER_H_

/// \file lexer.h
/// Tokenizer for the CQA/CDB ASCII surface syntax.
///
/// §3.3 of the paper: "instead of using the operator symbols ... we use
/// their English equivalents in CQA/CDB. This allows queries to be
/// representable in ASCII, for portability". The same token set serves the
/// step-based query language, selection conditions, and the relation data
/// file format.
///
/// `TokenizeScript` reads a script once into one `Statement` per line;
/// dispatch, the cache key and the compiler all read that list.

#include <string>
#include <vector>

#include "util/status.h"

namespace ccdb::lang {

enum class TokenKind {
  kIdentifier,  ///< attribute / relation names, keywords
  kNumber,      ///< 12, 2.5 (sign handled by the parser)
  kString,      ///< "quoted"
  kSymbol,      ///< = == <= < >= > != + - * / , ; ( ) :
  kEnd,
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;
  size_t position = 0;  ///< byte offset, for error messages

  bool Is(TokenKind k) const { return kind == k; }
  bool IsSymbol(const std::string& s) const {
    return kind == TokenKind::kSymbol && text == s;
  }
  /// Case-insensitive keyword test.
  bool IsKeyword(const std::string& word) const;
};

/// Tokenizes one line/fragment. Comparison operators are emitted as single
/// symbol tokens ("<=", "!=", "==", ...). Fails on unterminated strings or
/// unknown characters.
Result<std::vector<Token>> Tokenize(const std::string& text);

/// One statement: a source line's 1-based number and its tokens, ending
/// with the kEnd sentinel (positions count from the line's start).
struct Statement {
  size_t line = 0;
  std::vector<Token> tokens;
};

/// One Statement per line, blank and comment-only lines skipped. Fails on
/// the first tokenizer error, prefixed with its line number.
Result<std::vector<Statement>> TokenizeScript(const std::string& script);

/// `status` with its message prefixed by "line N: "; OK passes through.
Status AtLine(size_t line, const Status& status);

/// Token cursor with convenience accessors used by all parsers.
class TokenStream {
 public:
  explicit TokenStream(std::vector<Token> tokens)
      : tokens_(std::move(tokens)) {}

  const Token& Peek(size_t ahead = 0) const;
  Token Next();
  bool AtEnd() const { return Peek().Is(TokenKind::kEnd); }

  /// Consumes the next token if it is the given symbol.
  bool TrySymbol(const std::string& symbol);
  /// Consumes the next token if it is the given keyword (case-insensitive).
  bool TryKeyword(const std::string& word);

  /// Consumes an identifier or fails with a ParseError naming `what`.
  Result<std::string> ExpectIdentifier(const std::string& what);
  /// Consumes the given symbol or fails.
  Status ExpectSymbol(const std::string& symbol);
  /// Consumes the given keyword or fails.
  Status ExpectKeyword(const std::string& word);

 private:
  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace ccdb::lang

#endif  // CCDB_LANG_LEXER_H_

#include "lang/lexer.h"

#include <cctype>
#include <sstream>

#include "util/string_util.h"

namespace ccdb::lang {

bool Token::IsKeyword(const std::string& word) const {
  return kind == TokenKind::kIdentifier && EqualsIgnoreCase(text, word);
}

Result<std::vector<Token>> Tokenize(const std::string& text) {
  std::vector<Token> tokens;
  size_t i = 0;
  const size_t n = text.size();
  while (i < n) {
    char c = text[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '#') break;  // comment to end of line
    size_t start = i;
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      while (i < n && (std::isalnum(static_cast<unsigned char>(text[i])) ||
                       text[i] == '_')) {
        ++i;
      }
      tokens.push_back(
          {TokenKind::kIdentifier, text.substr(start, i - start), start});
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(text[i + 1])))) {
      bool seen_dot = false;
      while (i < n && (std::isdigit(static_cast<unsigned char>(text[i])) ||
                       (text[i] == '.' && !seen_dot))) {
        if (text[i] == '.') seen_dot = true;
        ++i;
      }
      tokens.push_back(
          {TokenKind::kNumber, text.substr(start, i - start), start});
      continue;
    }
    if (c == '"') {
      ++i;
      std::string value;
      while (i < n && text[i] != '"') {
        value += text[i];
        ++i;
      }
      if (i == n) {
        return Status::ParseError("unterminated string literal at offset " +
                                  std::to_string(start));
      }
      ++i;  // closing quote
      tokens.push_back({TokenKind::kString, value, start});
      continue;
    }
    // Multi-char comparison symbols first.
    auto two = text.substr(i, 2);
    if (two == "<=" || two == ">=" || two == "!=" || two == "==" ||
        two == "<>") {
      tokens.push_back({TokenKind::kSymbol, two == "<>" ? "!=" : two, start});
      i += 2;
      continue;
    }
    if (std::string("=<>+-*/,;():").find(c) != std::string::npos) {
      tokens.push_back({TokenKind::kSymbol, std::string(1, c), start});
      ++i;
      continue;
    }
    return Status::ParseError(std::string("unexpected character '") + c +
                              "' at offset " + std::to_string(i));
  }
  tokens.push_back({TokenKind::kEnd, "", n});
  return tokens;
}

Result<std::vector<Statement>> TokenizeScript(const std::string& script) {
  std::vector<Statement> statements;
  std::istringstream in(script);
  std::string text;
  for (size_t line = 1; std::getline(in, text); ++line) {
    Result<std::vector<Token>> tokens = Tokenize(text);
    if (!tokens.ok()) return AtLine(line, tokens.status());
    if (tokens->size() > 1) statements.push_back({line, std::move(*tokens)});
  }
  return statements;
}

Status AtLine(size_t line, const Status& status) {
  if (status.ok()) return status;
  return Status(status.code(),
                "line " + std::to_string(line) + ": " + status.message());
}

const Token& TokenStream::Peek(size_t ahead) const {
  size_t idx = pos_ + ahead;
  if (idx >= tokens_.size()) idx = tokens_.size() - 1;  // kEnd sentinel
  return tokens_[idx];
}

Token TokenStream::Next() {
  Token t = Peek();
  if (pos_ + 1 < tokens_.size()) ++pos_;
  return t;
}

bool TokenStream::TrySymbol(const std::string& symbol) {
  if (Peek().IsSymbol(symbol)) {
    Next();
    return true;
  }
  return false;
}

bool TokenStream::TryKeyword(const std::string& word) {
  if (Peek().IsKeyword(word)) {
    Next();
    return true;
  }
  return false;
}

Result<std::string> TokenStream::ExpectIdentifier(const std::string& what) {
  if (!Peek().Is(TokenKind::kIdentifier)) {
    return Status::ParseError("expected " + what + ", got '" + Peek().text +
                              "' at offset " + std::to_string(Peek().position));
  }
  return Next().text;
}

Status TokenStream::ExpectSymbol(const std::string& symbol) {
  if (!TrySymbol(symbol)) {
    return Status::ParseError("expected '" + symbol + "', got '" +
                              Peek().text + "' at offset " +
                              std::to_string(Peek().position));
  }
  return Status::OK();
}

Status TokenStream::ExpectKeyword(const std::string& word) {
  if (!TryKeyword(word)) {
    return Status::ParseError("expected '" + word + "', got '" + Peek().text +
                              "' at offset " +
                              std::to_string(Peek().position));
  }
  return Status::OK();
}

}  // namespace ccdb::lang

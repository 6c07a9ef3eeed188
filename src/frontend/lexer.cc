#include "frontend/lexer.h"

#include <cctype>
#include <stdexcept>

#include "support/utils.h"

namespace scalehls {

namespace {

class Lexer
{
  public:
    explicit Lexer(const std::string &source) : src_(source) {}

    std::vector<Token>
    run()
    {
        std::vector<Token> tokens;
        while (true) {
            skipTrivia();
            Token tok = next();
            tokens.push_back(tok);
            if (tok.kind == TokKind::Eof)
                break;
        }
        return tokens;
    }

  private:
    char
    peek(int offset = 0) const
    {
        size_t i = pos_ + offset;
        return i < src_.size() ? src_[i] : '\0';
    }

    char
    advance()
    {
        char c = peek();
        ++pos_;
        if (c == '\n') {
            ++line_;
            column_ = 1;
        } else {
            ++column_;
        }
        return c;
    }

    void
    skipTrivia()
    {
        while (true) {
            char c = peek();
            if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
                advance();
            } else if (c == '/' && peek(1) == '/') {
                while (peek() && peek() != '\n')
                    advance();
            } else if (c == '/' && peek(1) == '*') {
                advance();
                advance();
                while (peek() && !(peek() == '*' && peek(1) == '/'))
                    advance();
                if (peek()) {
                    advance();
                    advance();
                }
            } else if (c == '#') {
                // Preprocessor / pragma lines are ignored by the front-end.
                while (peek() && peek() != '\n')
                    advance();
            } else {
                break;
            }
        }
    }

    Token
    make(TokKind kind, std::string text)
    {
        Token tok;
        tok.kind = kind;
        tok.text = std::move(text);
        tok.line = line_;
        tok.column = column_;
        return tok;
    }

    Token
    next()
    {
        if (pos_ >= src_.size())
            return make(TokKind::Eof, "");
        char c = peek();
        if (std::isalpha(c) || c == '_')
            return identifier();
        if (std::isdigit(c) ||
            (c == '.' && std::isdigit(peek(1))))
            return number();
        return punctuation();
    }

    Token
    identifier()
    {
        std::string text;
        while (std::isalnum(peek()) || peek() == '_')
            text += advance();
        TokKind kind = TokKind::Identifier;
        if (text == "void")
            kind = TokKind::KwVoid;
        else if (text == "int")
            kind = TokKind::KwInt;
        else if (text == "float")
            kind = TokKind::KwFloat;
        else if (text == "double")
            kind = TokKind::KwDouble;
        else if (text == "for")
            kind = TokKind::KwFor;
        else if (text == "if")
            kind = TokKind::KwIf;
        else if (text == "else")
            kind = TokKind::KwElse;
        else if (text == "return")
            kind = TokKind::KwReturn;
        Token tok = make(kind, text);
        return tok;
    }

    Token
    number()
    {
        int line = line_;
        int col = column_;
        std::string text;
        bool is_float = false;
        while (std::isdigit(peek()))
            text += advance();
        if (peek() == '.') {
            is_float = true;
            text += advance();
            while (std::isdigit(peek()))
                text += advance();
        }
        if (peek() == 'e' || peek() == 'E') {
            is_float = true;
            text += advance();
            if (peek() == '+' || peek() == '-')
                text += advance();
            while (std::isdigit(peek()))
                text += advance();
        }
        if (peek() == 'f' || peek() == 'F') {
            is_float = true;
            advance();
        }
        Token tok = make(is_float ? TokKind::FloatLiteral
                                  : TokKind::IntLiteral,
                         text);
        // stod/stoll throw std::out_of_range past double / int64 range;
        // that is a diagnostic, not an abort.
        try {
            if (is_float)
                tok.floatValue = std::stod(text);
            else
                tok.intValue = std::stoll(text);
        } catch (const std::out_of_range &) {
            fatal("lexer: " + std::string(is_float ? "float" : "integer") +
                  " literal out of range at line " + std::to_string(line) +
                  ", column " + std::to_string(col));
        }
        return tok;
    }

    Token
    punctuation()
    {
        int line = line_;
        int col = column_;
        char c = advance();
        auto two = [&](char second, TokKind with, TokKind without) {
            if (peek() == second) {
                advance();
                Token tok = make(with, std::string{c, second});
                tok.line = line;
                tok.column = col;
                return tok;
            }
            Token tok = make(without, std::string{c});
            tok.line = line;
            tok.column = col;
            return tok;
        };
        switch (c) {
          case '(':
            return make(TokKind::LParen, "(");
          case ')':
            return make(TokKind::RParen, ")");
          case '{':
            return make(TokKind::LBrace, "{");
          case '}':
            return make(TokKind::RBrace, "}");
          case '[':
            return make(TokKind::LBracket, "[");
          case ']':
            return make(TokKind::RBracket, "]");
          case ';':
            return make(TokKind::Semicolon, ";");
          case ',':
            return make(TokKind::Comma, ",");
          case '+':
            if (peek() == '+') {
                advance();
                return make(TokKind::PlusPlus, "++");
            }
            return two('=', TokKind::PlusAssign, TokKind::Plus);
          case '-':
            if (peek() == '-') {
                advance();
                return make(TokKind::MinusMinus, "--");
            }
            return two('=', TokKind::MinusAssign, TokKind::Minus);
          case '*':
            return two('=', TokKind::StarAssign, TokKind::Star);
          case '/':
            return make(TokKind::Slash, "/");
          case '%':
            return make(TokKind::Percent, "%");
          case '<':
            return two('=', TokKind::LessEqual, TokKind::Less);
          case '>':
            return two('=', TokKind::GreaterEqual, TokKind::Greater);
          case '=':
            return two('=', TokKind::EqualEqual, TokKind::Assign);
          case '!':
            if (peek() == '=') {
                advance();
                return make(TokKind::NotEqual, "!=");
            }
            break;
          case '?':
            return make(TokKind::Question, "?");
          case ':':
            return make(TokKind::Colon, ":");
          default:
            break;
        }
        fatal("lexer: unexpected character '" + std::string{c} +
              "' at line " + std::to_string(line));
    }

    const std::string &src_;
    size_t pos_ = 0;
    int line_ = 1;
    int column_ = 1;
};

} // namespace

std::vector<Token>
tokenize(const std::string &source)
{
    return Lexer(source).run();
}

std::string
tokKindName(TokKind kind)
{
    switch (kind) {
      case TokKind::Eof:
        return "<eof>";
      case TokKind::Identifier:
        return "identifier";
      case TokKind::IntLiteral:
        return "integer literal";
      case TokKind::FloatLiteral:
        return "float literal";
      case TokKind::Semicolon:
        return "';'";
      case TokKind::LParen:
        return "'('";
      case TokKind::RParen:
        return "')'";
      case TokKind::LBrace:
        return "'{'";
      case TokKind::RBrace:
        return "'}'";
      case TokKind::LBracket:
        return "'['";
      case TokKind::RBracket:
        return "']'";
      case TokKind::Comma:
        return "','";
      case TokKind::Assign:
        return "'='";
      default:
        return "token";
    }
}

} // namespace scalehls

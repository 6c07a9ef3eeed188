#include "support/json.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace scalehls {

namespace {

class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    std::optional<JsonValue>
    parse()
    {
        JsonValue value;
        if (!parseValue(value))
            return std::nullopt;
        skipSpace();
        if (pos_ != text_.size())
            return std::nullopt; // Trailing garbage.
        return value;
    }

  private:
    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool
    literal(const char *word)
    {
        size_t n = std::string(word).size();
        if (text_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    bool
    parseValue(JsonValue &out)
    {
        skipSpace();
        if (pos_ >= text_.size())
            return false;
        char c = text_[pos_];
        if (c == '{')
            return parseObject(out);
        if (c == '[')
            return parseArray(out);
        if (c == '"') {
            out.kind = JsonValue::Kind::String;
            return parseString(out.string);
        }
        if (c == 't') {
            out.kind = JsonValue::Kind::Bool;
            out.boolean = true;
            return literal("true");
        }
        if (c == 'f') {
            out.kind = JsonValue::Kind::Bool;
            out.boolean = false;
            return literal("false");
        }
        if (c == 'n') {
            out.kind = JsonValue::Kind::Null;
            return literal("null");
        }
        return parseNumber(out);
    }

    bool
    parseObject(JsonValue &out)
    {
        out.kind = JsonValue::Kind::Object;
        ++pos_; // '{'
        skipSpace();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipSpace();
            std::string key;
            if (pos_ >= text_.size() || text_[pos_] != '"' ||
                !parseString(key))
                return false;
            skipSpace();
            if (pos_ >= text_.size() || text_[pos_] != ':')
                return false;
            ++pos_;
            JsonValue value;
            if (!parseValue(value))
                return false;
            out.object[key] = std::move(value);
            skipSpace();
            if (pos_ >= text_.size())
                return false;
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    parseArray(JsonValue &out)
    {
        out.kind = JsonValue::Kind::Array;
        ++pos_; // '['
        skipSpace();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            JsonValue value;
            if (!parseValue(value))
                return false;
            out.array.push_back(std::move(value));
            skipSpace();
            if (pos_ >= text_.size())
                return false;
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    parseString(std::string &out)
    {
        ++pos_; // '"'
        while (pos_ < text_.size()) {
            char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= text_.size())
                return false;
            char esc = text_[pos_++];
            switch (esc) {
            case '"':
            case '\\':
            case '/':
                out.push_back(esc);
                break;
            case 'b':
                out.push_back('\b');
                break;
            case 'f':
                out.push_back('\f');
                break;
            case 'n':
                out.push_back('\n');
                break;
            case 'r':
                out.push_back('\r');
                break;
            case 't':
                out.push_back('\t');
                break;
            case 'u': {
                // \uXXXX: decoded to UTF-8 for the BMP; the protocol's
                // identifiers are ASCII so this path is exercised only
                // by hostile input, which must still not crash.
                if (pos_ + 4 > text_.size())
                    return false;
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return false;
                }
                if (code < 0x80) {
                    out.push_back(static_cast<char>(code));
                } else if (code < 0x800) {
                    out.push_back(
                        static_cast<char>(0xc0 | (code >> 6)));
                    out.push_back(
                        static_cast<char>(0x80 | (code & 0x3f)));
                } else {
                    out.push_back(
                        static_cast<char>(0xe0 | (code >> 12)));
                    out.push_back(static_cast<char>(
                        0x80 | ((code >> 6) & 0x3f)));
                    out.push_back(
                        static_cast<char>(0x80 | (code & 0x3f)));
                }
                break;
            }
            default:
                return false;
            }
        }
        return false; // Unterminated.
    }

    bool
    parseNumber(JsonValue &out)
    {
        size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        if (pos_ == start)
            return false;
        std::string token = text_.substr(start, pos_ - start);
        char *end = nullptr;
        double value = std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size())
            return false;
        out.kind = JsonValue::Kind::Number;
        out.number = value;
        out.string = std::move(token);
        return true;
    }

    const std::string &text_;
    size_t pos_ = 0;
};

} // namespace

std::optional<JsonValue>
parseJson(const std::string &text)
{
    return Parser(text).parse();
}

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (unsigned char c : text) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\r':
            out += "\\r";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out.push_back(static_cast<char>(c));
            }
        }
    }
    return out;
}

} // namespace scalehls

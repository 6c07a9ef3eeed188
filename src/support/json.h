/**
 * @file
 * A minimal JSON reader/writer for the scalehls-serve wire protocol
 * (newline-delimited JSON requests and responses) and for tests that
 * parse responses back. Supports objects, arrays, strings, numbers,
 * booleans and null — no comments, no trailing commas. Numbers are kept
 * as doubles plus their literal text, so integer fields can be decoded
 * exactly (an integer's text, not a rounded double).
 */

#ifndef SCALEHLS_SUPPORT_JSON_H
#define SCALEHLS_SUPPORT_JSON_H

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace scalehls {

/** One parsed JSON value. Object members keep the map's sorted order
 * (the protocol never depends on member order). */
struct JsonValue
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Object,
        Array
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0;
    /** A String's contents, or a Number's literal text as written. */
    std::string string;
    std::map<std::string, JsonValue> object;
    std::vector<JsonValue> array;

    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    /** The number truncated toward zero, saturated to the int64 range
     * (a bare cast of an out-of-range double is undefined). */
    int64_t
    asInt() const
    {
        if (!(number > -9223372036854775808.0))
            return INT64_MIN;
        if (!(number < 9223372036854775808.0))
            return INT64_MAX;
        return static_cast<int64_t>(number);
    }

    /** The member of an object, or nullptr. */
    const JsonValue *
    get(const std::string &key) const
    {
        if (kind != Kind::Object)
            return nullptr;
        auto it = object.find(key);
        return it == object.end() ? nullptr : &it->second;
    }
};

/** Parse one JSON document; nullopt on any syntax error (including
 * trailing non-whitespace). */
std::optional<JsonValue> parseJson(const std::string &text);

/** Escape @p text for embedding inside a JSON string literal (adds no
 * surrounding quotes). */
std::string jsonEscape(const std::string &text);

} // namespace scalehls

#endif // SCALEHLS_SUPPORT_JSON_H

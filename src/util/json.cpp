#include "util/json.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unordered_set>

#include "util/error.hpp"

namespace deepstrike {

Json::Json() = default;
Json::Json(bool value) : kind_(Kind::Bool), bool_(value) {}
Json::Json(double value) : kind_(Kind::Number), number_(value) {}
Json::Json(std::int64_t value) : kind_(Kind::Integer), integer_(value) {}
Json::Json(std::uint64_t value)
    : kind_(Kind::Integer), integer_(static_cast<std::int64_t>(value)) {}
Json::Json(int value) : kind_(Kind::Integer), integer_(value) {}
Json::Json(const char* value) : kind_(Kind::String), string_(value) {}
Json::Json(std::string value) : kind_(Kind::String), string_(std::move(value)) {}

Json Json::object() {
    Json j;
    j.kind_ = Kind::Object;
    return j;
}

Json Json::array() {
    Json j;
    j.kind_ = Kind::Array;
    return j;
}

/// Recursive-descent parser over the full input string. Keeps position
/// for error messages; depth-capped so corrupt input cannot blow the
/// stack.
class Json::Parser {
public:
    explicit Parser(const std::string& text) : text_(text) {}

    Json parse_document() {
        Json value = parse_value(0);
        skip_ws();
        if (pos_ != text_.size()) fail("trailing characters after document");
        return value;
    }

private:
    static constexpr int kMaxDepth = 64;

    [[noreturn]] void fail(const std::string& what) const {
        throw FormatError("json parse at offset " + std::to_string(pos_) + ": " +
                          what);
    }

    void skip_ws() {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
            ++pos_;
        }
    }

    char peek() {
        if (pos_ >= text_.size()) fail("unexpected end of input");
        return text_[pos_];
    }

    void expect(char c) {
        if (peek() != c) fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool consume_literal(const char* literal) {
        const std::size_t n = std::strlen(literal);
        if (text_.compare(pos_, n, literal) != 0) return false;
        pos_ += n;
        return true;
    }

    Json parse_value(int depth) {
        if (depth > kMaxDepth) fail("nesting too deep");
        skip_ws();
        switch (peek()) {
            case '{': return parse_object(depth);
            case '[': return parse_array(depth);
            case '"': return Json(parse_string());
            case 't':
                if (consume_literal("true")) return Json(true);
                fail("invalid literal");
            case 'f':
                if (consume_literal("false")) return Json(false);
                fail("invalid literal");
            case 'n':
                if (consume_literal("null")) return Json();
                fail("invalid literal");
            default: return parse_number();
        }
    }

    Json parse_object(int depth) {
        expect('{');
        Json obj = Json::object();
        skip_ws();
        if (peek() == '}') {
            ++pos_;
            return obj;
        }
        // Keys seen so far: a repeated key is an error, never a silent
        // overwrite, and members are appended without Json::set's scan.
        std::unordered_set<std::string> keys;
        while (true) {
            skip_ws();
            std::string key = parse_string();
            if (!keys.insert(key).second) fail("duplicate object key");
            skip_ws();
            expect(':');
            obj.members_.emplace_back(std::move(key), parse_value(depth + 1));
            skip_ws();
            const char c = peek();
            ++pos_;
            if (c == '}') return obj;
            if (c != ',') fail("expected ',' or '}' in object");
        }
    }

    Json parse_array(int depth) {
        expect('[');
        Json arr = Json::array();
        skip_ws();
        if (peek() == ']') {
            ++pos_;
            return arr;
        }
        while (true) {
            arr.push(parse_value(depth + 1));
            skip_ws();
            const char c = peek();
            ++pos_;
            if (c == ']') return arr;
            if (c != ',') fail("expected ',' or ']' in array");
        }
    }

    std::string parse_string() {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size()) fail("unterminated string");
            const unsigned char c = static_cast<unsigned char>(text_[pos_++]);
            if (c == '"') return out;
            if (c < 0x20) fail("unescaped control character in string");
            if (c != '\\') {
                out += static_cast<char>(c);
                continue;
            }
            if (pos_ >= text_.size()) fail("unterminated escape");
            const char esc = text_[pos_++];
            switch (esc) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'n': out += '\n'; break;
                case 'r': out += '\r'; break;
                case 't': out += '\t'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'u': out += parse_unicode_escape(); break;
                default: fail("unknown escape sequence");
            }
        }
    }

    std::string parse_unicode_escape() {
        if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
        unsigned value = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = text_[pos_++];
            value <<= 4;
            if (c >= '0' && c <= '9') value |= static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f') value |= static_cast<unsigned>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F') value |= static_cast<unsigned>(c - 'A' + 10);
            else fail("bad hex digit in \\u escape");
        }
        // Encode the BMP code point as UTF-8 (the writer only ever emits
        // \u00xx control escapes; surrogate pairs are out of scope).
        std::string out;
        if (value < 0x80) {
            out += static_cast<char>(value);
        } else if (value < 0x800) {
            out += static_cast<char>(0xC0 | (value >> 6));
            out += static_cast<char>(0x80 | (value & 0x3F));
        } else {
            out += static_cast<char>(0xE0 | (value >> 12));
            out += static_cast<char>(0x80 | ((value >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (value & 0x3F));
        }
        return out;
    }

    /// RFC 8259: -? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
    Json parse_number() {
        const std::size_t start = pos_;
        const auto at = [&](char c) { return pos_ < text_.size() && text_[pos_] == c; };
        const auto digits = [&] {
            const std::size_t first = pos_;
            while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
            return pos_ - first;
        };
        if (at('-')) ++pos_;
        const std::size_t int_start = pos_;
        const std::size_t int_digits = digits();
        if (int_digits == 0) fail("invalid value");
        if (int_digits > 1 && text_[int_start] == '0') fail("leading zero in a number");
        bool integral = true;
        if (at('.')) {
            ++pos_;
            integral = false;
            if (digits() == 0) fail("no digits after the decimal point");
        }
        if (at('e') || at('E')) {
            ++pos_;
            integral = false;
            if (at('+') || at('-')) ++pos_;
            if (digits() == 0) fail("no digits in the exponent");
        }
        const std::string token = text_.substr(start, pos_ - start);
        errno = 0;
        char* end = nullptr;
        if (integral) {
            const long long v = std::strtoll(token.c_str(), &end, 10);
            if (errno == 0 && end != nullptr && *end == '\0') {
                return Json(static_cast<std::int64_t>(v));
            }
            // Fall through on overflow: represent as double.
        }
        errno = 0;
        const double d = std::strtod(token.c_str(), &end);
        if (end == nullptr || *end != '\0') fail("malformed number");
        if (!std::isfinite(d)) fail("number out of range");
        return Json(d);
    }

    const std::string& text_;
    std::size_t pos_ = 0;
};

namespace {

[[noreturn]] void wrong_kind(const char* wanted) {
    throw FormatError(std::string("json value is not ") + wanted);
}

} // namespace

Json Json::parse(const std::string& text) {
    return Parser(text).parse_document();
}

bool Json::as_bool() const {
    if (kind_ != Kind::Bool) wrong_kind("a bool");
    return bool_;
}

std::int64_t Json::as_int() const {
    if (kind_ != Kind::Integer) wrong_kind("an integer");
    return integer_;
}

std::uint64_t Json::as_uint() const {
    if (kind_ != Kind::Integer || integer_ < 0) wrong_kind("a non-negative integer");
    return static_cast<std::uint64_t>(integer_);
}

double Json::as_number() const {
    if (kind_ == Kind::Integer) return static_cast<double>(integer_);
    if (kind_ != Kind::Number) wrong_kind("a number");
    return number_;
}

const std::string& Json::as_string() const {
    if (kind_ != Kind::String) wrong_kind("a string");
    return string_;
}

const Json* Json::find(const std::string& key) const {
    if (kind_ != Kind::Object) return nullptr;
    for (const auto& [k, v] : members_) {
        if (k == key) return &v;
    }
    return nullptr;
}

const Json& Json::at(const std::string& key) const {
    const Json* member = find(key);
    if (member == nullptr) throw FormatError("json object has no member '" + key + "'");
    return *member;
}

const Json& Json::at(std::size_t index) const {
    if (kind_ != Kind::Array || index >= elements_.size()) {
        throw FormatError("json array index " + std::to_string(index) +
                          " out of range");
    }
    return elements_[index];
}

std::size_t Json::size() const {
    if (kind_ == Kind::Array) return elements_.size();
    if (kind_ == Kind::Object) return members_.size();
    return 0;
}

std::vector<std::string> Json::keys() const {
    std::vector<std::string> out;
    if (kind_ == Kind::Object) {
        out.reserve(members_.size());
        for (const auto& member : members_) out.push_back(member.first);
    }
    return out;
}

Json& Json::set(const std::string& key, Json value) {
    if (kind_ == Kind::Null) kind_ = Kind::Object;
    expects(kind_ == Kind::Object, "Json::set on a non-object");
    for (auto& [k, v] : members_) {
        if (k == key) {
            v = std::move(value);
            return *this;
        }
    }
    members_.emplace_back(key, std::move(value));
    return *this;
}

Json& Json::push(Json value) {
    if (kind_ == Kind::Null) kind_ = Kind::Array;
    expects(kind_ == Kind::Array, "Json::push on a non-array");
    elements_.push_back(std::move(value));
    return *this;
}

std::string Json::escape(const std::string& s) {
    std::string out;
    out.reserve(s.size() + 2);
    for (unsigned char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            case '\b': out += "\\b"; break;
            case '\f': out += "\\f"; break;
            default:
                if (c < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                    out += buf;
                } else {
                    out += static_cast<char>(c);
                }
        }
    }
    return out;
}

std::string Json::dump(int indent) const {
    std::string out;
    dump_to(out, indent, 0);
    return out;
}

void Json::dump_to(std::string& out, int indent, int depth) const {
    const auto newline = [&](int d) {
        if (indent <= 0) return;
        out += '\n';
        out.append(static_cast<std::size_t>(indent * d), ' ');
    };

    switch (kind_) {
        case Kind::Null:
            out += "null";
            return;
        case Kind::Bool:
            out += bool_ ? "true" : "false";
            return;
        case Kind::Integer:
            out += std::to_string(integer_);
            return;
        case Kind::Number: {
            if (!std::isfinite(number_)) {
                out += "null"; // JSON has no NaN/Inf
                return;
            }
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%.12g", number_);
            out += buf;
            return;
        }
        case Kind::String:
            out += '"';
            out += escape(string_);
            out += '"';
            return;
        case Kind::Object: {
            out += '{';
            bool first = true;
            for (const auto& [k, v] : members_) {
                if (!first) out += ',';
                first = false;
                newline(depth + 1);
                out += '"';
                out += escape(k);
                out += "\":";
                if (indent > 0) out += ' ';
                v.dump_to(out, indent, depth + 1);
            }
            if (!members_.empty()) newline(depth);
            out += '}';
            return;
        }
        case Kind::Array: {
            out += '[';
            bool first = true;
            for (const Json& v : elements_) {
                if (!first) out += ',';
                first = false;
                newline(depth + 1);
                v.dump_to(out, indent, depth + 1);
            }
            if (!elements_.empty()) newline(depth);
            out += ']';
            return;
        }
    }
}

} // namespace deepstrike

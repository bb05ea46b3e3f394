// Minimal JSON document builder + reader.
//
// Campaign reports and CLI outputs need machine-readable exports; this is
// a small value tree with correct string escaping and deterministic key
// order (insertion order), not a general-purpose JSON library. The
// checkpoint journal reads its records back through parse() and the
// typed accessors; both sides round-trip through the same tree.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace deepstrike {

class Json {
public:
    /// Scalar constructors.
    Json();                     // null
    Json(bool value);           // NOLINT(google-explicit-constructor)
    Json(double value);         // NOLINT(google-explicit-constructor)
    Json(std::int64_t value);   // NOLINT(google-explicit-constructor)
    Json(std::uint64_t value);  // NOLINT(google-explicit-constructor)
    Json(int value);            // NOLINT(google-explicit-constructor)
    Json(const char* value);    // NOLINT(google-explicit-constructor)
    Json(std::string value);    // NOLINT(google-explicit-constructor)

    static Json object();
    static Json array();

    /// Parses one RFC 8259 JSON document (trailing whitespace allowed,
    /// nothing else). Integral number literals come back as the Integer
    /// kind, everything else numeric as Number. Throws FormatError on any
    /// syntax error, including trailing garbage, a duplicate object key, a
    /// number outside the RFC grammar (a leading '+' or zero, a bare '.',
    /// an empty exponent) and a number that overflows a double.
    static Json parse(const std::string& text);

    /// Object insertion (first call on a null turns it into an object).
    Json& set(const std::string& key, Json value);

    /// Array append (first call on a null turns it into an array).
    Json& push(Json value);

    bool is_null() const { return kind_ == Kind::Null; }
    bool is_bool() const { return kind_ == Kind::Bool; }
    bool is_integer() const { return kind_ == Kind::Integer; }
    bool is_number() const { return kind_ == Kind::Number || kind_ == Kind::Integer; }
    bool is_string() const { return kind_ == Kind::String; }
    bool is_object() const { return kind_ == Kind::Object; }
    bool is_array() const { return kind_ == Kind::Array; }

    // Typed readers; each throws FormatError when the value is not of
    // the requested kind (as_uint additionally on negative integers).
    bool as_bool() const;
    std::int64_t as_int() const;
    std::uint64_t as_uint() const;
    double as_number() const; // Number or Integer
    const std::string& as_string() const;

    /// Object member lookup; nullptr when absent (or not an object).
    const Json* find(const std::string& key) const;
    /// Object member access; throws FormatError when absent.
    const Json& at(const std::string& key) const;
    /// Array element access; throws FormatError out of range.
    const Json& at(std::size_t index) const;
    /// Element count (array) / member count (object); 0 otherwise.
    std::size_t size() const;
    /// Object member keys in insertion order; empty for non-objects.
    std::vector<std::string> keys() const;

    /// Serializes; `indent` > 0 pretty-prints with that many spaces.
    std::string dump(int indent = 0) const;

    static std::string escape(const std::string& s);

private:
    enum class Kind { Null, Bool, Number, Integer, String, Object, Array };
    class Parser; // parse()'s recursive descent (json.cpp)

    void dump_to(std::string& out, int indent, int depth) const;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double number_ = 0.0;
    std::int64_t integer_ = 0;
    std::string string_;
    std::vector<std::pair<std::string, Json>> members_;
    std::vector<Json> elements_;
};

} // namespace deepstrike

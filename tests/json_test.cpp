#include <gtest/gtest.h>

#include "util/error.hpp"
#include "util/json.hpp"

namespace deepstrike {
namespace {

TEST(Json, Scalars) {
    EXPECT_EQ(Json().dump(), "null");
    EXPECT_EQ(Json(true).dump(), "true");
    EXPECT_EQ(Json(false).dump(), "false");
    EXPECT_EQ(Json(42).dump(), "42");
    EXPECT_EQ(Json(std::int64_t{-7}).dump(), "-7");
    EXPECT_EQ(Json(1.5).dump(), "1.5");
    EXPECT_EQ(Json("hello").dump(), "\"hello\"");
}

TEST(Json, NonFiniteNumbersBecomeNull) {
    EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(), "null");
    EXPECT_EQ(Json(std::numeric_limits<double>::quiet_NaN()).dump(), "null");
}

TEST(Json, StringEscaping) {
    EXPECT_EQ(Json::escape("a\"b"), "a\\\"b");
    EXPECT_EQ(Json::escape("back\\slash"), "back\\\\slash");
    EXPECT_EQ(Json::escape("line\nfeed\ttab"), "line\\nfeed\\ttab");
    EXPECT_EQ(Json::escape(std::string(1, '\x01')), "\\u0001");
}

TEST(Json, ObjectInsertionOrderPreserved) {
    Json obj = Json::object();
    obj.set("zeta", 1).set("alpha", 2).set("mid", 3);
    EXPECT_EQ(obj.dump(), "{\"zeta\":1,\"alpha\":2,\"mid\":3}");
}

TEST(Json, ObjectSetOverwrites) {
    Json obj = Json::object();
    obj.set("k", 1);
    obj.set("k", 2);
    EXPECT_EQ(obj.dump(), "{\"k\":2}");
}

TEST(Json, ArraysAndNesting) {
    Json arr = Json::array();
    arr.push(1).push("two");
    Json inner = Json::object();
    inner.set("deep", true);
    arr.push(std::move(inner));
    EXPECT_EQ(arr.dump(), "[1,\"two\",{\"deep\":true}]");
}

TEST(Json, NullPromotesOnFirstUse) {
    Json j;
    j.set("auto", 1);
    EXPECT_TRUE(j.is_object());

    Json k;
    k.push(5);
    EXPECT_TRUE(k.is_array());
}

TEST(Json, TypeMisuseThrows) {
    Json arr = Json::array();
    EXPECT_THROW(arr.set("k", 1), ContractError);
    Json obj = Json::object();
    EXPECT_THROW(obj.push(1), ContractError);
    Json scalar(5);
    EXPECT_THROW(scalar.set("k", 1), ContractError);
    EXPECT_THROW(scalar.push(1), ContractError);
}

TEST(Json, PrettyPrinting) {
    Json obj = Json::object();
    obj.set("a", 1);
    Json arr = Json::array();
    arr.push(2);
    obj.set("b", std::move(arr));
    EXPECT_EQ(obj.dump(2),
              "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}");
}

TEST(Json, EmptyContainers) {
    EXPECT_EQ(Json::object().dump(), "{}");
    EXPECT_EQ(Json::array().dump(), "[]");
    EXPECT_EQ(Json::object().dump(2), "{}");
}

// ------------------------------------------------------------------ parse

TEST(JsonParse, Scalars) {
    EXPECT_TRUE(Json::parse("null").is_null());
    EXPECT_EQ(Json::parse("true").as_bool(), true);
    EXPECT_EQ(Json::parse("false").as_bool(), false);
    EXPECT_EQ(Json::parse("42").as_int(), 42);
    EXPECT_EQ(Json::parse("-7").as_int(), -7);
    EXPECT_DOUBLE_EQ(Json::parse("1.5").as_number(), 1.5);
    EXPECT_DOUBLE_EQ(Json::parse("-2e3").as_number(), -2000.0);
    EXPECT_EQ(Json::parse("\"hello\"").as_string(), "hello");
}

TEST(JsonParse, IntegersKeepTheirKind) {
    EXPECT_TRUE(Json::parse("42").is_integer());
    EXPECT_FALSE(Json::parse("42.0").is_integer());
    EXPECT_TRUE(Json::parse("42.0").is_number());
    EXPECT_EQ(Json::parse("42").as_uint(), 42u);
    EXPECT_THROW(Json::parse("-1").as_uint(), FormatError);
}

TEST(JsonParse, ObjectsArraysAndAccessors) {
    const Json doc = Json::parse(
        R"({"name":"sweep","count":3,"ok":true,"items":[1,2,3],"inner":{"x":-1.25}})");
    EXPECT_EQ(doc.at("name").as_string(), "sweep");
    EXPECT_EQ(doc.at("count").as_uint(), 3u);
    EXPECT_TRUE(doc.at("ok").as_bool());
    ASSERT_EQ(doc.at("items").size(), 3u);
    EXPECT_EQ(doc.at("items").at(2).as_int(), 3);
    EXPECT_DOUBLE_EQ(doc.at("inner").at("x").as_number(), -1.25);
    EXPECT_EQ(doc.find("absent"), nullptr);
    EXPECT_THROW(doc.at("absent"), FormatError);
    EXPECT_THROW(doc.at("items").at(3), FormatError);
}

TEST(JsonParse, StringEscapesRoundTrip) {
    const std::string original = "line\nfeed\ttab \"quote\" back\\slash \x01";
    Json obj = Json::object();
    obj.set("s", original);
    EXPECT_EQ(Json::parse(obj.dump()).at("s").as_string(), original);
    EXPECT_EQ(Json::parse("\"\\u0041\"").as_string(), "A");
}

TEST(JsonParse, DumpParseRoundTripPreservesStructure) {
    Json root = Json::object();
    root.set("a", 1).set("b", 2.5).set("c", "x");
    Json arr = Json::array();
    arr.push(true).push(Json());
    root.set("d", std::move(arr));
    const Json reparsed = Json::parse(root.dump());
    EXPECT_EQ(reparsed.dump(), root.dump());
    EXPECT_EQ(Json::parse(root.dump(2)).dump(), root.dump());
}

TEST(JsonParse, RejectsMalformedInput) {
    for (const char* bad :
         {"", "{", "[1,", "{\"k\":}", "tru", "01x", "\"unterminated",
          "{\"k\":1} trailing", "[1 2]", "\"bad\\q\"", "nul"}) {
        EXPECT_THROW(Json::parse(bad), FormatError) << bad;
    }
}

TEST(JsonParse, RejectsNonJsonNumbersAndDuplicateKeys) {
    // Each of these once parsed to a value; a journal record edited this
    // way (with its checksum recomputed) would have resumed as a
    // different record.
    for (const char* bad :
         {R"({"a":1,"a":2})", R"({"a":{"b":1,"b":1}})", R"([{"k":0},{"k":1,"k":1}])",
          R"({"index":007})", "+1", ".5", "1.", "1.e5", "01", "-01", "-", "--1", "1e",
          "1e+", "1E-", "0x10", "1.5.2", "1e999", "-1e999", "[1e400]"}) {
        EXPECT_THROW(Json::parse(bad), FormatError) << bad;
    }
    // The RFC 8259 forms still parse, including every form the writer's
    // %.12g and std::to_string produce.
    EXPECT_EQ(Json::parse("0").as_int(), 0);
    EXPECT_EQ(Json::parse("-0").as_int(), 0);
    EXPECT_EQ(Json::parse("10").as_int(), 10);
    EXPECT_DOUBLE_EQ(Json::parse("0.5").as_number(), 0.5);
    EXPECT_DOUBLE_EQ(Json::parse("-0.25e-3").as_number(), -0.25e-3);
    EXPECT_DOUBLE_EQ(Json::parse("1E+5").as_number(), 1e5);
    EXPECT_DOUBLE_EQ(Json::parse("1e5").as_number(), 1e5);
    EXPECT_EQ(Json::parse(R"({"a":1,"A":2})").size(), 2u);
    for (const double v : {1e20, -1.5e-7, 0.1, 123456789.125, -0.0, 1e300}) {
        const std::string text = Json(v).dump();
        EXPECT_DOUBLE_EQ(Json::parse(text).as_number(), v) << text;
    }
    // An integer past int64 still reads as a finite double.
    EXPECT_DOUBLE_EQ(Json::parse("99999999999999999999").as_number(), 1e20);
}

TEST(JsonParse, RejectsAbsurdNesting) {
    std::string deep(100, '[');
    deep += std::string(100, ']');
    EXPECT_THROW(Json::parse(deep), FormatError);
}

TEST(JsonParse, TypedAccessorMismatchesThrow) {
    const Json doc = Json::parse("{\"n\":1,\"s\":\"x\"}");
    EXPECT_THROW(doc.at("s").as_int(), FormatError);
    EXPECT_THROW(doc.at("n").as_string(), FormatError);
    EXPECT_THROW(doc.at("n").as_bool(), FormatError);
    EXPECT_THROW(doc.at(0), FormatError); // object, not array
}

} // namespace
} // namespace deepstrike

/**
 * Tests for the shared JSON codec (util/json.hh, consumed by both the
 * serve wire protocol and the sweep checkpoint format): round trips,
 * deterministic serialization (sorted keys, shortest round-trip
 * numbers, integers as integers), structured parse errors with byte
 * offsets, escape handling including surrogate pairs, the depth
 * bound, the non-finite-number rejection the admission contract
 * relies on, and the SolveError round trip error cells ride on.
 * The number formatter is checked byte for byte against the plain
 * 1..17 precision search it replaces, on a million seeded random bit
 * patterns and on the edge cases of %g formatting.
 */

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "util/json.hh"

namespace snoop {
namespace {

JsonValue
parsed(const std::string &text)
{
    auto v = parseJson(text);
    EXPECT_TRUE(bool(v)) << text;
    return v ? std::move(v).value() : JsonValue();
}

TEST(Json, RoundTripsScalars)
{
    EXPECT_EQ(serializeJson(parsed("null")), "null");
    EXPECT_EQ(serializeJson(parsed("true")), "true");
    EXPECT_EQ(serializeJson(parsed("false")), "false");
    EXPECT_EQ(serializeJson(parsed("42")), "42");
    EXPECT_EQ(serializeJson(parsed("-1.5")), "-1.5");
    EXPECT_EQ(serializeJson(parsed("\"hi\"")), "\"hi\"");
}

TEST(Json, IntegersStayIntegers)
{
    // %.1g would print 30 as "3e+01", which round-trips but reads
    // badly in response logs; the serializer special-cases integers.
    EXPECT_EQ(serializeJson(JsonValue(30)), "30");
    EXPECT_EQ(serializeJson(JsonValue(1e6)), "1000000");
    EXPECT_EQ(serializeJson(JsonValue(-7.0)), "-7");
}

TEST(Json, NumbersRoundTripShortest)
{
    // The shortest form that parses back to the same bits.
    double v = 0.1;
    auto r = parseJson(serializeJson(JsonValue(v)));
    ASSERT_TRUE(bool(r));
    EXPECT_EQ(r.value().asNumber(), v);
    EXPECT_EQ(serializeJson(JsonValue(0.1)), "0.1");
}

/**
 * The formatter's specification as a plain search: integers below
 * 1e15 in fixed notation, everything else as the first %.*g precision
 * in 1..17 that round-trips. serializeNumber starts the same search
 * at std::to_chars' shortest digit count; this oracle proves the
 * bytes did not move.
 */
std::string
oracleNumber(double v)
{
    char buf[40];
    if (v == std::floor(v) && std::fabs(v) < 1e15) {
        std::snprintf(buf, sizeof buf, "%.0f", v);
        return buf;
    }
    for (int prec = 1; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof buf, "%.*g", prec, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    return buf;
}

/** Count of formatter/oracle disagreements; prints the first few. */
size_t
mismatches(const std::vector<double> &values)
{
    size_t bad = 0;
    for (double v : values) {
        std::string got = serializeJson(JsonValue(v));
        std::string want = oracleNumber(v);
        if (got != want && ++bad <= 5) {
            ADD_FAILURE() << "bits " << std::hexfloat << v << ": got "
                          << got << ", oracle " << want;
        }
    }
    return bad;
}

double
fromBits(uint64_t bits)
{
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
}

TEST(JsonNumbers, MatchTheFullPrecisionSearchOnRandomBitPatterns)
{
    std::mt19937_64 rng(20240611);
    std::vector<double> values;
    values.reserve(1 << 16);
    size_t bad = 0;
    for (int chunk = 0; chunk < 16; ++chunk) {
        values.clear();
        for (int i = 0; i < (1 << 16); ++i)
            values.push_back(fromBits(rng()));
        bad += mismatches(values);
    }
    EXPECT_EQ(bad, 0u) << "over 2^20 random bit patterns";
}

TEST(JsonNumbers, MatchTheFullPrecisionSearchOnEdgeCases)
{
    std::vector<double> values;
    auto withNeighbours = [&values](double v) {
        for (double x : {v, std::nextafter(v, 0.0),
                         std::nextafter(v, HUGE_VAL),
                         std::nextafter(v, -HUGE_VAL)}) {
            values.push_back(x);
            values.push_back(-x);
        }
    };
    // Every power of two down to the smallest subnormal, 2^-1074 -
    // where %.Pg can round to the other neighbour and need P+1.
    for (int e = 1023; e >= -1074; --e)
        withNeighbours(std::ldexp(1.0, e));
    // Subnormals: the extremes and a seeded spread between them.
    withNeighbours(std::numeric_limits<double>::denorm_min());
    withNeighbours(DBL_MIN);
    std::mt19937_64 rng(7);
    for (int i = 0; i < 4096; ++i)
        values.push_back(fromBits(rng() & ((uint64_t{1} << 52) - 1)));
    // The %g switch from fixed to scientific below 1e-4.
    for (double v : {1e-4, 1e-5, 9.99999e-5, 1.00001e-4, 0.00012345,
                     0.000012345, 9.9999999999999991e-5})
        withNeighbours(v);
    // The 1e15 integer cut-off, and the %g switch above it.
    for (double v : {1e15, 1e15 + 1, 1e15 - 1, 1e15 + 0.5, 1e15 - 0.5,
                     999999999999999.9, 1e16, 1e17, 9007199254740992.0,
                     123456789012345.67, 1e21, 1e22})
        withNeighbours(v);
    // -0.0, the extremes, and values that need all 17 digits.
    for (double v : {0.0, DBL_MAX, DBL_EPSILON, 0.1 + 0.2, 1.0 / 3.0,
                     2.0 / 3.0, 5e-324, 1.7976931348623157e308,
                     2.2250738585072009e-308, 0.30000000000000004,
                     9007199254740993.0 / 3.0, 4.35, 0.1, 1e23,
                     8.41e21, 5.0e-310})
        withNeighbours(v);
    values.push_back(-0.0);
    values.push_back(HUGE_VAL);
    values.push_back(-HUGE_VAL);
    EXPECT_EQ(mismatches(values), 0u);
    EXPECT_EQ(serializeJson(JsonValue(-0.0)), "-0");
    EXPECT_EQ(serializeJson(JsonValue(DBL_MAX)),
              "1.7976931348623157e+308");
    EXPECT_EQ(serializeJson(JsonValue(0.1 + 0.2)),
              "0.30000000000000004");
    EXPECT_EQ(serializeJson(JsonValue(1e-5)), "1e-05");
    EXPECT_EQ(serializeJson(JsonValue(0.0001)), "0.0001");
    EXPECT_EQ(serializeJson(JsonValue(1e15)), "1e+15");
    EXPECT_EQ(serializeJson(JsonValue(999999999999999.0)),
              "999999999999999");
}

TEST(Json, ObjectKeysSerializeSorted)
{
    auto v = parsed("{\"b\":1,\"a\":2,\"c\":3}");
    EXPECT_EQ(serializeJson(v), "{\"a\":2,\"b\":1,\"c\":3}");
}

TEST(Json, NestedStructuresRoundTrip)
{
    std::string text =
        "{\"a\":[1,2,{\"b\":null}],\"c\":{\"d\":[true,false]}}";
    EXPECT_EQ(serializeJson(parsed(text)), text);
}

TEST(Json, StringEscapesRoundTrip)
{
    auto v = parsed("\"line\\nquote\\\"tab\\tback\\\\slash\\/\"");
    EXPECT_EQ(v.asString(), "line\nquote\"tab\tback\\slash/");
    auto again = parseJson(serializeJson(v));
    ASSERT_TRUE(bool(again));
    EXPECT_EQ(again.value().asString(), v.asString());
}

TEST(Json, UnicodeEscapesDecodeToUtf8)
{
    EXPECT_EQ(parsed("\"\\u0041\"").asString(), "A");
    EXPECT_EQ(parsed("\"\\u00e9\"").asString(), "\xc3\xa9");
    // Surrogate pair: U+1F600.
    EXPECT_EQ(parsed("\"\\ud83d\\ude00\"").asString(),
              "\xf0\x9f\x98\x80");
}

TEST(Json, UnpairedSurrogateIsRejected)
{
    EXPECT_FALSE(bool(parseJson("\"\\ud83d\"")));
    EXPECT_FALSE(bool(parseJson("\"\\ud83dx\"")));
}

TEST(Json, ControlCharactersEscapeOnOutput)
{
    // Split the literal: "\x01b" would be one hex escape (0x1B).
    JsonValue v(std::string("a\x01"
                            "b"));
    EXPECT_EQ(serializeJson(v), "\"a\\u0001b\"");
}

TEST(Json, ParseErrorsCarryByteOffsets)
{
    auto r = parseJson("{\"a\": }");
    ASSERT_FALSE(bool(r));
    EXPECT_EQ(r.error().code, SolveErrorCode::InvalidArgument);
    EXPECT_NE(r.error().message.find("at byte"), std::string::npos);
}

TEST(Json, TrailingGarbageIsRejected)
{
    EXPECT_FALSE(bool(parseJson("{} trailing")));
    EXPECT_FALSE(bool(parseJson("1 2")));
}

TEST(Json, NonFiniteNumbersAreRejected)
{
    // JSON has no NaN/inf literal; an overflowing exponent is the
    // only route to a non-finite double, and it must not parse.
    EXPECT_FALSE(bool(parseJson("1e999")));
    EXPECT_FALSE(bool(parseJson("[-1e999]")));
    EXPECT_FALSE(bool(parseJson("nan")));
    EXPECT_FALSE(bool(parseJson("Infinity")));
}

TEST(Json, DepthBoundRejectsRunawayNesting)
{
    std::string deep;
    for (int i = 0; i < 100; ++i)
        deep += "[";
    EXPECT_FALSE(bool(parseJson(deep)));
    // 32 levels is comfortably inside the bound.
    std::string ok(32, '[');
    ok += std::string(32, ']');
    EXPECT_TRUE(bool(parseJson(ok)));
}

TEST(Json, AccessorsAndLookup)
{
    auto v = parsed("{\"x\":1,\"y\":[true]}");
    ASSERT_TRUE(v.isObject());
    ASSERT_NE(v.get("x"), nullptr);
    EXPECT_EQ(v.get("x")->asNumber(), 1.0);
    EXPECT_EQ(v.get("missing"), nullptr);
    ASSERT_TRUE(v.get("y")->isArray());
    EXPECT_TRUE(v.get("y")->asArray()[0].asBool());
}

TEST(Json, SolveErrorRoundTripsExactly)
{
    SolveError e = makeError(SolveErrorCode::NonConvergence,
                             "MvaSolver::solve",
                             "residual 1e-3 after 40 iterations");
    e.withContext("cell (2, 1)").withContext("runSweep");
    SolveError back;
    ASSERT_TRUE(solveErrorFromJson(solveErrorToJson(e), back).ok());
    EXPECT_EQ(back.code, e.code);
    EXPECT_EQ(back.site, e.site);
    EXPECT_EQ(back.message, e.message);
    EXPECT_EQ(back.context, e.context);
    EXPECT_EQ(back.describe(), e.describe());
    // Serialization is canonical, so the round trip is bit-stable.
    EXPECT_EQ(serializeJson(solveErrorToJson(back)),
              serializeJson(solveErrorToJson(e)));
}

TEST(Json, SolveErrorEveryCodeRoundTrips)
{
    for (SolveErrorCode c :
         {SolveErrorCode::InvalidArgument,
          SolveErrorCode::UnknownProtocol,
          SolveErrorCode::NonConvergence,
          SolveErrorCode::NonFiniteIterate,
          SolveErrorCode::NumericRange, SolveErrorCode::BudgetExhausted,
          SolveErrorCode::InjectedFault, SolveErrorCode::IoError,
          SolveErrorCode::Internal}) {
        SolveError e = makeError(c, "site", "msg");
        SolveError back;
        ASSERT_TRUE(solveErrorFromJson(solveErrorToJson(e), back).ok())
            << to_string(c);
        EXPECT_EQ(back.code, c);
    }
}

TEST(Json, MalformedSolveErrorsAreRejected)
{
    SolveError out;
    EXPECT_FALSE(solveErrorFromJson(JsonValue(1.0), out).ok());
    EXPECT_FALSE(solveErrorFromJson(parsed("{}"), out).ok());
    auto bad_code = solveErrorFromJson(parsed(
        "{\"code\":\"bogus\",\"site\":\"s\",\"message\":\"m\"}"), out);
    ASSERT_FALSE(bad_code.ok());
    EXPECT_NE(bad_code.error().message.find("bogus"),
              std::string::npos);
    EXPECT_FALSE(solveErrorFromJson(parsed(
        "{\"code\":\"internal\",\"site\":\"s\",\"message\":\"m\","
        "\"context\":\"not-an-array\"}"), out).ok());
    EXPECT_FALSE(solveErrorFromJson(parsed(
        "{\"code\":\"internal\",\"site\":\"s\",\"message\":\"m\","
        "\"context\":[1]}"), out).ok());
}

} // namespace
} // namespace snoop

// Core JSON codec tests (core/json.hpp): bit-exact number round trips
// (including the `%.17g` spelling older journals and machine files use),
// the strict RFC 8259 grammar, \u escapes, the nesting cap, the checked
// integer accessor, the BENCH-section merge, and a seed-deterministic
// mutation loop over the document kinds the tree reads.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>

#include "core/json.hpp"

namespace xct {
namespace {

std::uint64_t bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

std::string read_file(const std::filesystem::path& p)
{
    std::ifstream in(p);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TEST(Json, DoublesRoundTripBitExactlyInBothSpellings)
{
    std::mt19937_64 rng(20211114);
    std::uniform_real_distribution<double> typical(-1e6, 1e6);
    for (int i = 0; i < 20000; ++i) {
        // Half random bit patterns (every exponent, subnormals included),
        // half values of the magnitude the tree actually writes.
        double v = i % 2 == 0 ? std::bit_cast<double>(rng()) : typical(rng);
        if (!std::isfinite(v)) v = static_cast<double>(i);
        char legacy[40];
        std::snprintf(legacy, sizeof(legacy), "%.17g", v);
        EXPECT_EQ(bits(Json::parse(legacy).number), bits(v)) << legacy;
        const std::string shortest = json_number(v);
        EXPECT_EQ(bits(Json::parse(shortest).number), bits(v)) << shortest;
    }
    EXPECT_EQ(json_number(0.1), "0.1");
    EXPECT_EQ(json_number(64.0), "64");
    EXPECT_EQ(bits(Json::parse("-0").number), bits(-0.0));
}

TEST(Json, NonFiniteNumbersPrintAsNull)
{
    EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "null");
    EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
    EXPECT_EQ(json_number(-std::numeric_limits<double>::infinity()), "null");
}

TEST(Json, NestingIsCappedWithAByteOffset)
{
    const auto nested = [](int depth) {
        return std::string(static_cast<std::size_t>(depth), '[') +
               std::string(static_cast<std::size_t>(depth), ']');
    };
    EXPECT_EQ(Json::parse(nested(Json::kMaxDepth)).type, Json::Type::Array);
    EXPECT_THROW(Json::parse(nested(Json::kMaxDepth + 1)), std::invalid_argument);
    try {
        Json::parse(std::string(200000, '['));
        ADD_FAILURE() << "a 200 kB line of '[' parsed";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("nesting deeper than 64 at byte 64"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_THROW(Json::parse(std::string(100000, '{')), std::invalid_argument);
}

TEST(Json, ValueCountIsCappedNamingTheLimit)
{
    // A flat array nests one deep, so only the value cap bounds its tree.
    const auto flat = [](std::size_t values) {
        std::string s = "[0";
        for (std::size_t i = 1; i < values; ++i) s += ",0";
        return s + "]";
    };
    EXPECT_EQ(Json::parse(flat(Json::kMaxNodes - 1)).array.size(), Json::kMaxNodes - 1);
    EXPECT_THROW(Json::parse(flat(Json::kMaxNodes)), std::invalid_argument);
    try {
        Json::parse(flat((16u << 20) / 2 - 1));  // one 16 MiB request line
        ADD_FAILURE() << "a 16 MiB flat array parsed";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("more than 262144 values"), std::string::npos)
            << e.what();
    }
}

TEST(Json, UnicodeEscapesDecodeToUtf8)
{
    EXPECT_EQ(Json::parse(R"("\u0041")").string, "A");
    EXPECT_EQ(Json::parse(R"("\u00e9")").string, "\xc3\xa9");
    EXPECT_EQ(Json::parse(R"("\u20AC")").string, "\xe2\x82\xac");
    EXPECT_EQ(Json::parse(R"("\ud83d\ude00")").string, "\xf0\x9f\x98\x80");
    EXPECT_EQ(Json::parse(R"("a\u0000b")").string, std::string("a\0b", 3));
    for (const char* bad : {R"("\ud83d")", R"("\ude00")", R"("\ud83dA")", R"("\u12")",
                            R"("\u12g4")", R"("\x41")"})
        EXPECT_THROW(Json::parse(bad), std::invalid_argument) << bad;
}

TEST(Json, EveryControlCharacterRoundTripsThroughQuote)
{
    for (int c = 0; c < 0x20; ++c) {
        const std::string s = std::string("a") + static_cast<char>(c) + "b";
        const std::string q = json_quote(s);
        for (const char ch : q) EXPECT_GE(static_cast<unsigned char>(ch), 0x20) << c;
        EXPECT_EQ(Json::parse(q).string, s) << c;
    }
    EXPECT_EQ(json_quote("a\x01"
                         "b"),
              "\"a\\u0001b\"");
    const std::string specials = "quote\" backslash\\ slash/ high\x7f\xc3\xa9";
    EXPECT_EQ(Json::parse(json_quote(specials)).string, specials);
    // A raw control character inside a string is not JSON.
    EXPECT_THROW(Json::parse("\"a\x01z\""), std::invalid_argument);
}

TEST(Json, RejectsWhatRfc8259Rejects)
{
    for (const char* bad :
         {"+1", "01", "-01", ".5", "1.", "-", "1e", "1e+", "0x10", "nan", "inf", "-inf",
          "Infinity", "1e999", "{} x", "1 2", "[1,]", "[,1]", "{\"a\":1,}", "{,}",
          "{\"a\" 1}", "{\"b\": 1 \"c\": 2}", "{\"a\":1,\"a\":2}", "{\"a\":{},\"b\":1,\"a\":[]}",
          "{a:1}", "'x'", "tru", "nul", "", "   ", "[", "{\"a\":", "\"abc"})
        EXPECT_THROW(Json::parse(bad), std::invalid_argument) << bad;
    try {
        Json::parse(R"({"a": 1, "b": 2, "a": 3})");
        ADD_FAILURE() << "duplicate key accepted";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("duplicate key \"a\""), std::string::npos);
    }
}

TEST(Json, AcceptsTheWholeGrammar)
{
    const Json j = Json::parse(
        " {\"n\": -0.5e-3, \"i\": 10, \"z\": 0, \"e\": 1E+2, \"t\": true, \"f\": false,"
        " \"nil\": null, \"s\": \"x\\\"\\\\\\/\\b\\f\\n\\r\\t\", \"a\": [[], {}, [1, [2]]]}\r\n");
    EXPECT_DOUBLE_EQ(j.at("n").as_number("n"), -0.5e-3);
    EXPECT_EQ(j.at("i").as_integer<int>("i"), 10);
    EXPECT_DOUBLE_EQ(j.at("e").number, 100.0);
    EXPECT_TRUE(j.at("t").as_bool("t"));
    EXPECT_FALSE(j.at("f").as_bool("f"));
    EXPECT_EQ(j.at("nil").type, Json::Type::Null);
    EXPECT_EQ(j.at("s").as_string("s"), "x\"\\/\b\f\n\r\t");
    EXPECT_EQ(j.at("a").array.size(), 3u);
    EXPECT_EQ(j.object.front().first, "n");  // insertion order kept
    EXPECT_EQ(j.find("missing"), nullptr);
    EXPECT_THROW(j.at("missing"), std::invalid_argument);
    EXPECT_THROW(j.at("s").as_number("s"), std::invalid_argument);
}

TEST(Json, CheckedIntegersNameTheField)
{
    const Json j = Json::parse(
        R"({"neg": -1, "frac": 1.5, "big": 18446744073709551616, "i63": 9223372036854775808,
            "max53": 9007199254740992, "zero": -0})");
    try {
        j.at("neg").as_integer<std::uint64_t>("id");
        ADD_FAILURE() << "-1 accepted as an unsigned id";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("id must be an integer"), std::string::npos)
            << e.what();
    }
    EXPECT_THROW(j.at("frac").as_integer<std::int64_t>("frac"), std::invalid_argument);
    EXPECT_THROW(j.at("big").as_integer<std::uint64_t>("big"), std::invalid_argument);
    EXPECT_THROW(j.at("i63").as_integer<std::int64_t>("i63"), std::invalid_argument);
    EXPECT_EQ(j.at("i63").as_integer<std::uint64_t>("i63"), std::uint64_t{1} << 63);
    EXPECT_EQ(j.at("neg").as_integer<std::int64_t>("neg"), -1);
    EXPECT_EQ(j.at("max53").as_integer<std::int64_t>("max53"), std::int64_t{1} << 53);
    EXPECT_EQ(j.at("zero").as_integer<std::uint64_t>("zero"), 0u);
    EXPECT_THROW(j.at("max53").as_integer<std::int32_t>("max53"), std::invalid_argument);
}

TEST(Json, AppendMembersMergesAndRefusesNonObjects)
{
    const auto path = std::filesystem::temp_directory_path() / "xct_json_append_test.json";
    std::filesystem::remove(path);
    append_json_members(path.string(), R"("a": {"x": 1})", /*fresh=*/false);  // missing file
    append_json_members(path.string(), R"("b": {"y": "z"})", /*fresh=*/false);
    const Json merged = Json::parse(read_file(path));
    ASSERT_EQ(merged.object.size(), 2u);
    EXPECT_EQ(merged.object[1].first, "b");

    // A section that already exists would make a document the codec
    // rejects, so the merge refuses it and keeps the file.
    const std::string before = read_file(path);
    EXPECT_THROW(append_json_members(path.string(), R"("a": {})", false), std::runtime_error);
    EXPECT_EQ(read_file(path), before);

    for (const char* existing : {"[1, 2]\n", "not json\n", "{\"a\": 1\n"}) {
        std::ofstream(path) << existing;
        EXPECT_THROW(append_json_members(path.string(), R"("c": {})", false),
                     std::runtime_error)
            << existing;
        EXPECT_EQ(read_file(path), existing);
    }
    append_json_members(path.string(), R"("c": {})", /*fresh=*/true);
    EXPECT_EQ(Json::parse(read_file(path)).object.size(), 1u);
    std::ofstream(path) << "{}";
    append_json_members(path.string(), R"("d": {})", false);
    EXPECT_EQ(Json::parse(read_file(path)).object.at(0).first, "d");
    std::filesystem::remove(path);
}

TEST(Json, MutatedDocumentsParseOrThrowInvalidArgument)
{
    const std::vector<std::string> seeds = {
        // A submit request as xct_serve --client sends it.
        R"({"op":"submit","spec":{"geometry":{"dso":118.55,"dsd":1187.5,"num_proj":125,)"
        R"("nu":84,"nv":48,"du":0.79,"dv":0.79,"vol":[32,32,32],"dx":0.045,"dy":0.045,)"
        R"("dz":0.045,"sigma_u":-2.5,"sigma_v":0,"sigma_cor":0.12,"scan_range":6.283185307179586},)"
        R"("phantom_seed":0,"batches":8,"device_capacity":67108864,"priority":"high",)"
        R"("tenant":"t\u00e9 \"q\"","deadline_s":30,"output":""}})",
        read_file(std::filesystem::path(XCT_SOURCE_DIR) / "bench" / "BENCH_baseline.json"),
        "{\n  \"schema\": \"xct.machine.v1\",\n  \"bw_load_gbps\": 2.5,\n"
        "  \"bw_store_gbps\": 2.5,\n  \"th_flt_geps\": 0.03,\n  \"th_bp_gups\": 0.07,\n"
        "  \"th_reduce_gbps\": 4,\n  \"bw_h2d_gbps\": 11.75,\n  \"bw_d2h_gbps\": 12e0\n}\n",
        "[\n{\n  \"directory\": \"/src/build\",\n  \"command\": \"c++ -Isrc -o x.o -c "
        "src/core/json.cpp\",\n  \"file\": \"src/core/json.cpp\",\n"
        "  \"output\": \"x.o\"\n}\n]\n",
    };
    for (const std::string& s : seeds) ASSERT_NO_THROW(Json::parse(s)) << s.substr(0, 60);

    const std::string alphabet = "{}[]:,\"\\-+.eE0123456789 \ntfnul\x01\xff";
    std::mt19937 rng(1234);
    int parsed = 0, rejected = 0;
    for (int iter = 0; iter < 20000; ++iter) {
        std::string m = seeds[static_cast<std::size_t>(iter) % seeds.size()];
        const int edits = 1 + static_cast<int>(rng() % 4);
        for (int e = 0; e < edits && !m.empty(); ++e) {
            const std::size_t at = rng() % m.size();
            const char c = alphabet[rng() % alphabet.size()];
            switch (rng() % 5) {
                case 0: m[at] = c; break;
                case 1: m.insert(m.begin() + static_cast<std::ptrdiff_t>(at), c); break;
                case 2: m.erase(at, 1 + rng() % 3); break;
                case 3: m.insert(at, m.substr(rng() % m.size(), 1 + rng() % 16)); break;
                default: m.resize(at); break;
            }
        }
        try {
            Json::parse(m);
            ++parsed;
        } catch (const std::invalid_argument&) {
            ++rejected;
        } catch (const std::exception& e) {
            ADD_FAILURE() << "mutant " << iter << " threw a non-parse error: " << e.what();
        }
    }
    EXPECT_GT(parsed, 0);
    EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace xct

// Bench-gate tests: BENCH JSON parsing, glob classification, the five
// metric classes (exact / higher-better / lower-better / cap / floor),
// missing and novel metrics, tolerance scaling, and the default rule
// table against realistic section names.
#include <gtest/gtest.h>

#include "gate.hpp"

namespace xct::bench_gate {
namespace {

Doc doc(std::string json)
{
    return parse(json);
}

const char* kBaseline = R"({
  "backproj": {
    "simd_backend": "avx2",
    "simd_lanes": 8,
    "updates_per_s_simd": 2.0e9,
    "speedup": 4.0,
    "warm_heap_events": 0
  },
  "filter": {
    "us_per_transform": 12.5
  },
  "flight": {
    "overhead_percent": 0.4
  },
  "transport": {
    "h2d_bytes": 1048576
  }
})";

TEST(BenchGateParse, RoundTripsSectionsKeysAndValueTypes)
{
    const Doc d = doc(kBaseline);
    ASSERT_EQ(d.size(), 4u);
    EXPECT_FALSE(d.at("backproj").at("simd_backend").is_number);
    EXPECT_EQ(d.at("backproj").at("simd_backend").text, "avx2");
    EXPECT_TRUE(d.at("backproj").at("updates_per_s_simd").is_number);
    EXPECT_DOUBLE_EQ(d.at("backproj").at("updates_per_s_simd").number, 2.0e9);
    EXPECT_DOUBLE_EQ(d.at("transport").at("h2d_bytes").number, 1048576.0);
}

TEST(BenchGateParse, RejectsMalformedAndOverNestedInput)
{
    EXPECT_THROW(doc("not json"), std::invalid_argument);
    EXPECT_THROW(doc(R"({"a": {"b": {"c": 1}}})"), std::invalid_argument);
    EXPECT_THROW(doc(R"({"a": {"b": )"), std::invalid_argument);
    EXPECT_THROW(parse_file("/nonexistent/BENCH.json"), std::invalid_argument);
    // A trailing-garbage number, a missing comma, stray commas and
    // trailing data are malformed, not silently skipped.
    EXPECT_THROW(doc(R"({"a": {"b": 1x}})"), std::invalid_argument);
    EXPECT_THROW(doc(R"({"a": {"b": 1 "c": 2}})"), std::invalid_argument);
    EXPECT_THROW(doc(R"({"a": {"b": 1,, "c": 2}})"), std::invalid_argument);
    EXPECT_THROW(doc(R"({"a": {"b": 1,}})"), std::invalid_argument);
    EXPECT_THROW(doc(R"({, "a": {"b": 1}})"), std::invalid_argument);
    EXPECT_THROW(doc(R"({"a": {"b": 1}} {"c": {}})"), std::invalid_argument);
    EXPECT_THROW(doc(R"({"a": {"b": 1, "b": 2}})"), std::invalid_argument);
    EXPECT_THROW(doc(R"({"a": {"b": true}})"), std::invalid_argument);
    EXPECT_THROW(doc(R"({"a": 1})"), std::invalid_argument);
}

TEST(BenchGateGlob, MatchesLiteralPrefixSuffixAndInfixStars)
{
    EXPECT_TRUE(glob_match("flight.overhead_percent", "flight.overhead_percent"));
    EXPECT_TRUE(glob_match("*.warm_heap_events", "backproj.warm_heap_events"));
    EXPECT_TRUE(glob_match("*per_s*", "backproj.updates_per_s_simd"));
    EXPECT_TRUE(glob_match("*bytes*", "transport.h2d_bytes"));
    EXPECT_FALSE(glob_match("*.warm_heap_events", "warm_heap_events"));
    EXPECT_FALSE(glob_match("fft.n", "fft.nn"));
    EXPECT_TRUE(glob_match("*", "anything.at.all"));
}

TEST(BenchGate, IdenticalDocumentsPass)
{
    const GateResult r = compare(doc(kBaseline), doc(kBaseline), default_rules());
    EXPECT_TRUE(r.pass);
    for (const Finding& f : r.findings) EXPECT_FALSE(f.fail) << f.metric << ": " << f.message;
}

TEST(BenchGate, ThroughputCollapseFailsButNoiseDoesNot)
{
    Doc cur = doc(kBaseline);
    cur["backproj"]["updates_per_s_simd"].number = 1.9e9;  // -5%: within tolerance
    EXPECT_TRUE(compare(doc(kBaseline), cur, default_rules()).pass);
    cur["backproj"]["updates_per_s_simd"].number = 0.5e9;  // -75%: collapse
    const GateResult r = compare(doc(kBaseline), cur, default_rules());
    EXPECT_FALSE(r.pass);
    bool flagged = false;
    for (const Finding& f : r.findings)
        if (f.metric == "backproj.updates_per_s_simd") flagged = f.fail;
    EXPECT_TRUE(flagged);
}

TEST(BenchGate, LatencyRegressionFails)
{
    Doc cur = doc(kBaseline);
    cur["filter"]["us_per_transform"].number = 12.5 * 4.0;  // 4x slower
    EXPECT_FALSE(compare(doc(kBaseline), cur, default_rules()).pass);
}

TEST(BenchGate, ExactMetricsPinDeterministicValues)
{
    Doc cur = doc(kBaseline);
    cur["backproj"]["warm_heap_events"].number = 3.0;  // allocation crept in
    EXPECT_FALSE(compare(doc(kBaseline), cur, default_rules()).pass);

    cur = doc(kBaseline);
    cur["transport"]["h2d_bytes"].number = 1048580.0;  // pipeline moves different data
    EXPECT_FALSE(compare(doc(kBaseline), cur, default_rules()).pass);

    cur = doc(kBaseline);
    cur["backproj"]["simd_lanes"].number = 4.0;  // compiled width changed
    EXPECT_FALSE(compare(doc(kBaseline), cur, default_rules()).pass);

    // The simd backend string is machine-dependent and deliberately
    // ungated — changing it alone is a note, not a failure.
    cur = doc(kBaseline);
    cur["backproj"]["simd_backend"].text = "scalar";
    EXPECT_TRUE(compare(doc(kBaseline), cur, default_rules()).pass);
}

TEST(BenchGate, CapIsAbsoluteNotRelative)
{
    // Baseline overhead 0.4%; tripling it stays under the 2% cap...
    Doc cur = doc(kBaseline);
    cur["flight"]["overhead_percent"].number = 1.2;
    EXPECT_TRUE(compare(doc(kBaseline), cur, default_rules()).pass);
    // ...but crossing the cap fails even if the baseline had been high.
    cur["flight"]["overhead_percent"].number = 2.5;
    EXPECT_FALSE(compare(doc(kBaseline), cur, default_rules()).pass);
}

TEST(BenchGate, FloorIsAbsoluteNotRelative)
{
    // The q8 PSNR holds an absolute quality floor: sitting anywhere above
    // it passes regardless of the baseline value...
    const char* base = R"({"transport": {"q8_psnr_db": 57.0}})";
    Doc cur = doc(base);
    cur["transport"]["q8_psnr_db"].number = 41.0;
    EXPECT_TRUE(compare(doc(base), cur, default_rules()).pass);
    // ...and dropping below fails even when the baseline was lower still.
    cur["transport"]["q8_psnr_db"].number = 39.5;
    EXPECT_FALSE(compare(doc(base), cur, default_rules()).pass);
    // Floors, like caps, ignore the tolerance scale.
    EXPECT_FALSE(compare(doc(base), cur, default_rules(), 10.0).pass);
}

TEST(BenchGate, TransportAndAutotuneRulesOutrankTheByteGlobs)
{
    // The q8 ratio metrics must hit their Cap/Floor rules, not the broad
    // '*bytes*' Exact glob; the byte counts themselves gate lower-better
    // (compression may only improve).
    const char* base = R"({
      "transport": {
        "h2d_bytes": 1048576,
        "h2d_bytes_q8": 262144,
        "q8_bytes_over_raw": 0.25,
        "q8_psnr_db": 57.0,
        "q8_max_err_vs_bound": 0.9
      },
      "autotune": {
        "picked_ng": 2,
        "candidates_scored": 301,
        "planned_over_fixed_runtime": 0.24,
        "jobs_per_hour": 4.0e6
      }
    })";
    EXPECT_TRUE(compare(doc(base), doc(base), default_rules()).pass);

    Doc cur = doc(base);
    cur["transport"]["h2d_bytes_q8"].number = 200000.0;  // fewer bytes is fine
    EXPECT_TRUE(compare(doc(base), cur, default_rules()).pass);
    cur["transport"]["h2d_bytes_q8"].number = 400000.0;  // compression regressed
    EXPECT_FALSE(compare(doc(base), cur, default_rules()).pass);

    cur = doc(base);
    cur["transport"]["q8_bytes_over_raw"].number = 0.4;  // above the 1/3 bar
    EXPECT_FALSE(compare(doc(base), cur, default_rules()).pass);

    cur = doc(base);
    cur["transport"]["q8_max_err_vs_bound"].number = 1.04;  // bound violated
    EXPECT_FALSE(compare(doc(base), cur, default_rules()).pass);

    cur = doc(base);
    cur["autotune"]["planned_over_fixed_runtime"].number = 1.1;  // worse than fixed
    EXPECT_FALSE(compare(doc(base), cur, default_rules()).pass);

    cur = doc(base);
    cur["autotune"]["picked_ng"].number = 4.0;  // deterministic pick drifted
    EXPECT_FALSE(compare(doc(base), cur, default_rules()).pass);

    cur = doc(base);
    cur["autotune"]["jobs_per_hour"].number = 1.0e6;  // throughput collapse
    EXPECT_FALSE(compare(doc(base), cur, default_rules()).pass);
}

TEST(BenchGate, MissingMetricFailsAndNewMetricIsANote)
{
    Doc cur = doc(kBaseline);
    cur["filter"].erase("us_per_transform");
    const GateResult dropped = compare(doc(kBaseline), cur, default_rules());
    EXPECT_FALSE(dropped.pass);

    cur = doc(kBaseline);
    cur["filter"]["rows_per_s_new"] = Value{true, 1e6, ""};
    const GateResult grown = compare(doc(kBaseline), cur, default_rules());
    EXPECT_TRUE(grown.pass);
    bool noted = false;
    for (const Finding& f : grown.findings)
        if (f.metric == "filter.rows_per_s_new")
            noted = f.message.find("new metric") != std::string::npos && !f.fail;
    EXPECT_TRUE(noted);
}

TEST(BenchGate, ToleranceScaleWidensRelativeRulesOnly)
{
    Doc cur = doc(kBaseline);
    cur["backproj"]["speedup"].number = 4.0 * 0.5;  // -50%: outside 35%
    EXPECT_FALSE(compare(doc(kBaseline), cur, default_rules()).pass);
    EXPECT_TRUE(compare(doc(kBaseline), cur, default_rules(), 2.0).pass);
    // Caps are not scaled: 2.5% overhead fails even at scale 10.
    cur = doc(kBaseline);
    cur["flight"]["overhead_percent"].number = 2.5;
    EXPECT_FALSE(compare(doc(kBaseline), cur, default_rules(), 10.0).pass);
}

const char* kSoakBaseline = R"({
  "soak": {
    "detection_ratio": 1,
    "sites_match": 1,
    "wedged_jobs": 0,
    "live_bitwise_identical": 1,
    "p99_vs_predicted": 0.97,
    "jobs_per_hour": 1000.0,
    "latency_p99_s": 0.05
  },
  "filter": {
    "us_per_transform": 12.5
  }
})";

TEST(BenchGateSoak, InvariantMetricsAreExact)
{
    // A missed detection, a wedged job or a live-tier mismatch must fail
    // even when the drift is "small" — these are invariants, not trends.
    for (const char* key : {"detection_ratio", "sites_match", "live_bitwise_identical"}) {
        Doc cur = doc(kSoakBaseline);
        cur["soak"][key].number = 0.999;
        EXPECT_FALSE(compare(doc(kSoakBaseline), cur, default_rules(), 10.0).pass) << key;
    }
    Doc cur = doc(kSoakBaseline);
    cur["soak"]["wedged_jobs"].number = 1.0;
    EXPECT_FALSE(compare(doc(kSoakBaseline), cur, default_rules(), 10.0).pass);
}

TEST(BenchGateSoak, TailRatioIsCappedAtTheBoundAndThroughputIsRelative)
{
    // The p99/bound ratio has an absolute ceiling of 1.0: the bound IS
    // the budget, regardless of what the baseline machine recorded.
    Doc cur = doc(kSoakBaseline);
    cur["soak"]["p99_vs_predicted"].number = 1.01;
    EXPECT_FALSE(compare(doc(kSoakBaseline), cur, default_rules(), 10.0).pass);
    cur["soak"]["p99_vs_predicted"].number = 0.999;
    EXPECT_TRUE(compare(doc(kSoakBaseline), cur, default_rules()).pass);
    // Throughput: a 20% dip passes (schedule rebalance), a collapse fails.
    cur = doc(kSoakBaseline);
    cur["soak"]["jobs_per_hour"].number = 800.0;
    EXPECT_TRUE(compare(doc(kSoakBaseline), cur, default_rules()).pass);
    cur["soak"]["jobs_per_hour"].number = 100.0;
    EXPECT_FALSE(compare(doc(kSoakBaseline), cur, default_rules()).pass);
    // Latency percentiles ride the generous lower-better class.
    cur = doc(kSoakBaseline);
    cur["soak"]["latency_p99_s"].number = 0.05 * 4.0;
    EXPECT_FALSE(compare(doc(kSoakBaseline), cur, default_rules()).pass);
}

TEST(BenchGateSoak, FilterSectionsRestrictsBothDocuments)
{
    // The soak-smoke gate checks only the `soak` section: a regression in
    // another section is invisible, a soak regression still fails.
    Doc base = doc(kSoakBaseline);
    Doc cur = doc(kSoakBaseline);
    cur["filter"]["us_per_transform"].number = 1e6;
    EXPECT_FALSE(compare(base, cur, default_rules()).pass);
    EXPECT_TRUE(compare(filter_sections(base, {"soak"}), filter_sections(cur, {"soak"}),
                        default_rules())
                    .pass);
    cur["soak"]["wedged_jobs"].number = 2.0;
    EXPECT_FALSE(compare(filter_sections(base, {"soak"}), filter_sections(cur, {"soak"}),
                         default_rules())
                     .pass);
    // Unknown section names simply produce an empty document.
    EXPECT_TRUE(filter_sections(base, {"no_such_section"}).empty());
}

TEST(BenchGate, FormatListsEveryFindingAndTheVerdict)
{
    Doc cur = doc(kBaseline);
    cur["backproj"]["warm_heap_events"].number = 1.0;
    const GateResult r = compare(doc(kBaseline), cur, default_rules());
    const std::string text = format(r);
    EXPECT_NE(text.find("FAIL backproj.warm_heap_events"), std::string::npos);
    EXPECT_NE(text.find("bench_gate: FAIL"), std::string::npos);
    EXPECT_NE(format(compare(doc(kBaseline), doc(kBaseline), default_rules()))
                  .find("bench_gate: PASS"),
              std::string::npos);
}

}  // namespace
}  // namespace xct::bench_gate

// q8 band-codec tests (src/io/band_codec, DESIGN.md §3j): the round-trip
// error bound, bitwise agreement with the QuantizedTexture3 dequantiser,
// the wire-size win, digest verification at the band.decode fault gate
// with retry recovery, and the end-to-end pipeline contracts — threaded
// runs are bitwise their in-order twin, q8 runs stay within the
// quantisation quality bar while moving ~4x fewer host->device bytes.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>

#include "core/names.hpp"
#include "core/scratch.hpp"
#include "faults/fault.hpp"
#include "faults/retry.hpp"
#include "integrity/integrity.hpp"
#include "io/band_codec.hpp"
#include "recon/distributed.hpp"
#include "recon/fdk.hpp"
#include "recon/quality.hpp"
#include "recon/slab_backprojector.hpp"
#include "scoped_threads.hpp"
#include "sim/device.hpp"
#include "telemetry/metrics.hpp"

namespace xct::io {
namespace {

ProjectionStack random_band(index_t views = 6, Range band = Range{5, 21}, index_t cols = 32,
                            std::uint32_t seed = 17)
{
    ProjectionStack s(views, band, cols);
    std::mt19937 rng(seed);
    std::uniform_real_distribution<float> dist(-1.5f, 2.5f);
    for (float& v : s.span()) v = dist(rng);
    return s;
}

// ---- round trip ---------------------------------------------------------

TEST(BandCodec, RoundTripStaysWithinTheDocumentedBound)
{
    const ProjectionStack band = random_band();
    const EncodedBand e = encode_band(band);
    EXPECT_EQ(e.views, band.views());
    EXPECT_EQ(e.cols, band.cols());
    EXPECT_EQ(e.band.lo, band.band().lo);
    EXPECT_EQ(e.band.hi, band.band().hi);
    EXPECT_EQ(e.payload.size(), static_cast<std::size_t>(band.count()));

    const ProjectionStack back = decode_band(e);
    ASSERT_EQ(back.count(), band.count());
    EXPECT_EQ(back.band().lo, band.band().lo);
    const float bound = q8_error_bound(e);
    EXPECT_GT(bound, 0.0f);
    float max_err = 0.0f;
    for (index_t i = 0; i < band.count(); ++i)
        max_err = std::max(max_err, std::abs(back.span()[static_cast<std::size_t>(i)] -
                                             band.span()[static_cast<std::size_t>(i)]));
    EXPECT_LE(max_err, bound);
}

TEST(BandCodec, ConstantBandDecodesExactly)
{
    // hi == lo: payload stays zero and every texel decodes to lo.
    const ProjectionStack band(3, Range{0, 4}, 8, 0.75f);
    const EncodedBand e = encode_band(band);
    EXPECT_EQ(e.lo, e.hi);
    EXPECT_EQ(q8_error_bound(e), 0.0f);
    const ProjectionStack back = decode_band(e);
    for (const float v : back.span()) EXPECT_EQ(v, 0.75f);
}

TEST(BandCodec, DequantisesBitIdenticallyToQuantizedTexture3)
{
    // The wire codec and the texture ablation share one quantisation
    // story; encode+decode must reproduce QuantizedTexture3's
    // copy_planes+fetch bit for bit (same mapping, same expression order).
    const ProjectionStack band = random_band(5, Range{2, 14}, 24, 99);
    const EncodedBand e = encode_band(band);
    const ProjectionStack back = decode_band(e);

    sim::Device dev(64u << 20);
    sim::QuantizedTexture3 tex(dev, band.cols(), band.rows(), band.views(), e.lo, e.hi);
    tex.copy_planes(band.span(), 0, band.views());
    for (index_t s = 0; s < band.views(); ++s)
        for (index_t v = band.band().lo; v < band.band().hi; ++v)
            for (index_t u = 0; u < band.cols(); ++u) {
                const float a = back.at(s, v, u);
                const float b = tex.fetch(u, v - band.band().lo, s);
                EXPECT_EQ(std::bit_cast<std::uint32_t>(a), std::bit_cast<std::uint32_t>(b))
                    << "at view " << s << " row " << v << " col " << u;
            }
}

TEST(BandCodec, WireIsAtLeastThreeTimesSmallerThanRaw)
{
    const ProjectionStack band = random_band(4, Range{3, 19}, 64);
    const EncodedBand e = encode_band(band);
    EXPECT_GE(static_cast<double>(e.raw_bytes()) / static_cast<double>(e.wire_bytes()), 3.0);
}

TEST(BandCodec, NamesRoundTripAndRejectUnknownCodecs)
{
    EXPECT_EQ(band_codec_from_name("raw"), BandCodec::Raw);
    EXPECT_EQ(band_codec_from_name("q8"), BandCodec::Q8);
    EXPECT_STREQ(band_codec_name(BandCodec::Raw), "raw");
    EXPECT_STREQ(band_codec_name(BandCodec::Q8), "q8");
    EXPECT_THROW(band_codec_from_name("q16"), std::invalid_argument);
}

TEST(BandCodec, RejectsMalformedBands)
{
    EXPECT_THROW(encode_band(ProjectionStack()), std::invalid_argument);
    EncodedBand e;
    EXPECT_THROW(decode_band(e), std::invalid_argument);  // empty payload
    e = encode_band(random_band());
    e.views += 1;  // payload no longer matches the claimed extents
    EXPECT_THROW(decode_band(e), std::invalid_argument);
}

// ---- the band.decode fault gate -----------------------------------------

TEST(BandCodec, DigestCatchesInjectedCorruptionAndRetryRecoversBitwise)
{
    integrity::ScopedEnable on;
    const ProjectionStack band = random_band();
    const EncodedBand e = encode_band(band);
    const ProjectionStack clean = decode_band(e);

    auto& reg = telemetry::registry();
    const auto injected_before =
        reg.counter(std::string(names::kMetricFaultsInjectedPrefix) + names::kSiteBandDecode)
            .value();
    const auto detected_before =
        reg.counter(std::string(names::kMetricIntegrityDetectedPrefix) + names::kSiteBandDecode)
            .value();

    faults::ScopedPlan install(
        faults::FaultPlan::parse("band.decode:kind=corrupt,flips=3,after=0,count=1"));
    // The corrupted transit copy must be detected, and because the source
    // EncodedBand stays intact, the retried decode recovers bitwise.
    faults::RetryPolicy policy;
    policy.max_attempts = 3;
    policy.base_delay_s = 0.0;
    const ProjectionStack retried = faults::with_retry(names::kSiteBandDecode, policy,
                                                       [&] { return decode_band(e); });
    ASSERT_EQ(retried.count(), clean.count());
    EXPECT_EQ(std::memcmp(retried.span().data(), clean.span().data(),
                          static_cast<std::size_t>(clean.count()) * sizeof(float)),
              0);

    // Counter twins: exactly one injection, exactly one detection.
    EXPECT_EQ(reg.counter(std::string(names::kMetricFaultsInjectedPrefix) +
                          names::kSiteBandDecode)
                      .value() -
                  injected_before,
              1u);
    EXPECT_EQ(reg.counter(std::string(names::kMetricIntegrityDetectedPrefix) +
                          names::kSiteBandDecode)
                      .value() -
                  detected_before,
              1u);
}

TEST(BandCodec, ThrowClassFaultsFireBeforeTheTransitCopy)
{
    const EncodedBand e = encode_band(random_band());
    faults::ScopedPlan install(faults::FaultPlan::parse("band.decode:after=0,count=1"));
    EXPECT_THROW(decode_band(e), faults::TransientError);
    EXPECT_NO_THROW(decode_band(e));  // count=1 consumed
}

// ---- thread-count invariance --------------------------------------------

using testutil::ScopedThreads;

/// Large enough to cross the codec's parallel threshold and span two
/// min/max chunks, with a +0 / -0 tie for the minimum in different chunks:
/// a one-pass scan keeps the first (+0), which a thread-order-dependent
/// reduction could get wrong.
ProjectionStack wide_band()
{
    ProjectionStack s(4, Range{0, 100}, 251);
    std::mt19937 rng(23);
    std::uniform_real_distribution<float> dist(0.5f, 2.5f);
    for (float& v : s.span()) v = dist(rng);
    s.span()[5] = 0.0f;
    s.span()[70000] = -0.0f;
    return s;
}

TEST(BandCodec, EncodeIsBitwiseSerialAtAnyThreadCount)
{
    integrity::ScopedEnable on;
    const ProjectionStack band = wide_band();
    const std::span<const float> src = band.span();

    // The single-threaded reference: one left-to-right pass.
    float lo = src[0], hi = src[0];
    for (const float v : src) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    const float scale = 255.0f / (hi - lo);
    std::vector<std::uint8_t> payload(src.size());
    for (std::size_t i = 0; i < src.size(); ++i) {
        float t = (src[i] - lo) * scale;
        t = t < 0.0f ? 0.0f : (t > 255.0f ? 255.0f : t);
        payload[i] = static_cast<std::uint8_t>(t + 0.5f);
    }
    ASSERT_FALSE(std::signbit(lo));

    for (const int threads : {1, 4}) {
        ScopedThreads pin(threads);
        const EncodedBand e = encode_band(band);
        EXPECT_EQ(std::bit_cast<std::uint32_t>(e.lo), std::bit_cast<std::uint32_t>(lo))
            << threads << " threads";
        EXPECT_EQ(std::bit_cast<std::uint32_t>(e.hi), std::bit_cast<std::uint32_t>(hi))
            << threads << " threads";
        EXPECT_TRUE(e.payload == payload) << threads << " threads";
        EXPECT_EQ(e.digest, integrity::checksum_of<std::uint8_t>(std::span(payload)))
            << threads << " threads";
    }
}

TEST(BandCodec, DecodeIsBitwiseSerialAtAnyThreadCount)
{
    const EncodedBand e = encode_band(wide_band());
    std::vector<float> want(e.payload.size());
    const float range = e.hi - e.lo;
    for (std::size_t i = 0; i < want.size(); ++i)
        want[i] = e.lo + static_cast<float>(e.payload[i]) * range / 255.0f;

    for (const int threads : {1, 4}) {
        ScopedThreads pin(threads);
        const ProjectionStack back = decode_band(e);
        ASSERT_EQ(back.span().size(), want.size());
        EXPECT_EQ(std::memcmp(back.span().data(), want.data(), want.size() * sizeof(float)), 0)
            << threads << " threads";
    }
}

TEST(BandCodec, ValueRangeIsTheSerialFoldAtAnyThreadCount)
{
    // Two kRangeChunk chunks past the parallel threshold: signed zeros at
    // the start and later (the minimum ties), NaN at src[0] and NaN
    // elsewhere, the second chunk's first texel included.
    const float nan = std::numeric_limits<float>::quiet_NaN();
    std::vector<std::vector<float>> cases(3, std::vector<float>(100000));
    std::mt19937 rng(5);
    std::uniform_real_distribution<float> dist(0.5f, 2.5f);
    for (auto& c : cases)
        for (float& v : c) v = dist(rng);
    cases[0][0] = -0.0f;
    cases[0][70000] = 0.0f;
    cases[1][0] = nan;
    cases[2][3] = nan;
    cases[2][65536] = nan;
    cases[2][90000] = 0.0f;
    cases[2][90001] = -0.0f;
    for (const auto& c : cases) {
        float lo = c[0], hi = c[0];
        for (const float v : c) {
            lo = std::min(lo, v);
            hi = std::max(hi, v);
        }
        for (const int threads : {1, 4}) {
            ScopedThreads pin(threads);
            const Extent got = value_range(c);
            EXPECT_EQ(std::bit_cast<std::uint32_t>(got.lo), std::bit_cast<std::uint32_t>(lo));
            EXPECT_EQ(std::bit_cast<std::uint32_t>(got.hi), std::bit_cast<std::uint32_t>(hi));
        }
    }
}

// ---- the one-pass band path: filter extent, staging, faults -------------

CbctGeometry geo(index_t n = 24, index_t np = 36);

TEST(BandCodec, FilterUnpackFoldsTheValueRangeBitwise)
{
    // 37 views x 40 rows x 48 columns: two value_range chunks.  Views of
    // -0 and +0 at the start and later, a NaN reaching src[0], a NaN
    // elsewhere, and an all-zero band whose extent is a tie from start to
    // end.  (The filter maps zero rows of either sign to +0, so the -0/+0
    // tie rule itself is pinned by Extent.PartsMergedInOrderAreTheSerialFold
    // and ValueRangeIsTheSerialFoldAtAnyThreadCount.)  encode_band against
    // the folded extent is encode_band's own scan, field for field.
    integrity::ScopedEnable on;
    const CbctGeometry g = geo();
    const filter::FilterEngine eng(g);
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const auto bits = [](float f) { return std::bit_cast<std::uint32_t>(f); };
    const auto zero_view = [](ProjectionStack& b, index_t s, float zero) {
        for (index_t v = b.band().lo; v < b.band().hi; ++v)
            std::fill(b.row(s, v).begin(), b.row(s, v).end(), zero);
    };
    std::vector<std::pair<const char*, ProjectionStack>> cases;
    const ProjectionStack base = random_band(37, Range{4, 44}, g.nu, 61);
    cases.emplace_back("random", base);
    cases.emplace_back("zero views", base);
    zero_view(cases.back().second, 0, -0.0f);
    zero_view(cases.back().second, 20, 0.0f);
    cases.emplace_back("NaN at src[0]", base);
    cases.back().second.span()[0] = nan;
    cases.emplace_back("NaN later", base);
    cases.back().second.row(30, 10)[7] = nan;
    cases.emplace_back("all zero", ProjectionStack(37, Range{4, 44}, g.nu, 0.0f));
    for (const auto& [name, in] : cases)
        for (const int threads : {1, 2, 3, 4}) {
            ScopedThreads pin(threads);
            ProjectionStack plain = in, folded = in;
            eng.apply(plain);
            Extent extent;
            eng.apply(folded, {}, &extent);
            ASSERT_EQ(std::memcmp(folded.span().data(), plain.span().data(),
                                  plain.span().size_bytes()),
                      0)
                << name;
            const Extent want = value_range(plain.span());
            EXPECT_EQ(bits(extent.lo), bits(want.lo)) << name << ", " << threads << " threads";
            EXPECT_EQ(bits(extent.hi), bits(want.hi)) << name << ", " << threads << " threads";
            const EncodedBand a = encode_band(plain), b = encode_band(plain, extent);
            EXPECT_EQ(bits(a.lo), bits(b.lo)) << name;
            EXPECT_EQ(bits(a.hi), bits(b.hi)) << name;
            EXPECT_TRUE(a.payload == b.payload) << name;
            EXPECT_EQ(a.digest, b.digest) << name;
        }
}

using recon::SlabBackprojector;

/// An engine config over views [0, views) of `g`.
SlabBackprojector::Config share(const CbctGeometry& g, index_t views)
{
    SlabBackprojector::Config cfg;
    cfg.geometry = g;
    cfg.views = Range{0, views};
    return cfg;
}

void expect_same_staging(const SlabBackprojector::StagedBand& a,
                         const SlabBackprojector::StagedBand& b, const std::string& what)
{
    ASSERT_EQ(a.segments.size(), b.segments.size()) << what;
    for (std::size_t i = 0; i < a.segments.size(); ++i) {
        EXPECT_EQ(a.segments[i].depth, b.segments[i].depth) << what;
        EXPECT_EQ(a.segments[i].nplanes, b.segments[i].nplanes) << what;
    }
    ASSERT_EQ(a.planes.size(), b.planes.size()) << what;
    EXPECT_EQ(std::memcmp(a.planes.data(), b.planes.data(), a.planes.size() * sizeof(float)), 0)
        << what;
}

TEST(SlabBackprojector, StagingAQ8BandIsBitwiseDecodeThenGather)
{
    // A 24-deep texture: bands that wrap it (origins 0 and 5), start at an
    // odd row or end at its last depth; 1 view and 36 views (past the
    // decode's parallel threshold); random and constant bands.
    const CbctGeometry g = geo();
    struct Case {
        index_t origin;
        Range rows;
        std::size_t segments;
    };
    for (const Case c : {Case{0, Range{13, 33}, 2}, Case{5, Range{3, 6}, 2},
                         Case{0, Range{21, 24}, 1}, Case{0, Range{7, 8}, 1}})
        for (const index_t views : {1, 36})
            for (const bool constant : {false, true}) {
                const SlabBackprojector bp(share(g, views), 24,
                                           c.origin, 4);
                const ProjectionStack band =
                    constant ? ProjectionStack(views, c.rows, g.nu, 0.75f)
                             : random_band(views, c.rows, g.nu, 11);
                const EncodedBand e = encode_band(band);
                ASSERT_EQ(e.hi == e.lo, constant);
                const SlabBackprojector::StagedBand want = bp.stage_band(decode_band(e));
                ASSERT_EQ(want.segments.size(), c.segments);
                for (const int threads : {1, 2, 3, 4}) {
                    ScopedThreads pin(threads);
                    const SlabBackprojector::StagedBand got = bp.stage_band(e);
                    expect_same_staging(got, want,
                                        "rows [" + std::to_string(c.rows.lo) + ", " +
                                            std::to_string(c.rows.hi) + ") origin " +
                                            std::to_string(c.origin) + ", " +
                                            std::to_string(views) + " views, " +
                                            std::to_string(threads) + " threads");
                    EXPECT_EQ(got.wire_bytes, e.wire_bytes());
                }
            }
}

TEST(SlabBackprojector, CorruptDecodeUnderRetryStagesTheSamePlanes)
{
    integrity::ScopedEnable on;
    const CbctGeometry g = geo();
    SlabBackprojector::Config cfg = share(g, 36);
    faults::RetryPolicy policy;
    policy.max_attempts = 3;
    policy.base_delay_s = 0.0;
    cfg.retry = policy;
    const SlabBackprojector bp(cfg, 24, 0, 4);
    const EncodedBand e = encode_band(random_band(36, Range{13, 33}, g.nu, 3));
    const SlabBackprojector::StagedBand clean = bp.stage_band(e);

    auto& reg = telemetry::registry();
    auto& injected =
        reg.counter(std::string(names::kMetricFaultsInjectedPrefix) + names::kSiteBandDecode);
    auto& detected =
        reg.counter(std::string(names::kMetricIntegrityDetectedPrefix) + names::kSiteBandDecode);
    auto& decodes = reg.counter(names::kMetricBandDecodes);
    const auto injected_before = injected.value(), detected_before = detected.value(),
               decodes_before = decodes.value();
    faults::ScopedPlan install(
        faults::FaultPlan::parse("band.decode:kind=corrupt,flips=3,after=0,count=1"));
    const SlabBackprojector::StagedBand retried = bp.stage_band(e);
    expect_same_staging(retried, clean, "retried decode");
    EXPECT_EQ(injected.value() - injected_before, 1u);
    EXPECT_EQ(detected.value() - detected_before, 1u);
    EXPECT_EQ(decodes.value() - decodes_before, 1u);  // only the verified attempt decodes
}

TEST(SlabBackprojector, WarmStagingLeavesTheHeapAlone)
{
    const CbctGeometry g = geo();
    const SlabBackprojector bp(share(g, 36), 24, 0, 4);
    const ProjectionStack band = random_band(36, Range{13, 33}, g.nu, 9);
    const EncodedBand e = encode_band(band);
    const std::uint64_t cold = scratch::heap_events();
    SlabBackprojector::StagedBand staged = bp.stage_band(e);
    EXPECT_GT(scratch::heap_events(), cold);  // fresh staging storage is an allocation
    for (const int threads : {1, 2, 3, 4}) {
        ScopedThreads pin(threads);
        std::uint64_t before = scratch::heap_events();
        staged = bp.stage_band(e, std::move(staged.planes));
        EXPECT_EQ(scratch::heap_events() - before, 0u) << threads << " threads";
        before = scratch::heap_events();
        staged = bp.stage_band(band, std::move(staged.planes));
        EXPECT_EQ(scratch::heap_events() - before, 0u) << threads << " threads, raw";
    }
}

TEST(SlabBackprojector, RejectsABandThatDoesNotFitTheTexture)
{
    // An engine over an 8-view share.  Before the fit checks, a 6-view band
    // staged 6 views per plane and commit_band read past the buffer.
    const CbctGeometry g = geo();
    const std::vector<SlabPlan> plans = plan_slabs(g, Range{0, g.vol.z}, 4);
    index_t depth = 1;
    for (const SlabPlan& p : plans) depth = std::max(depth, p.rows.length());
    SlabBackprojector bp(share(g, 8), plans);
    const Range rows = plans[0].rows;
    for (const ProjectionStack& band :
         {ProjectionStack(6, rows, g.nu), ProjectionStack(8, rows, g.nu - 1),
          ProjectionStack(8, Range{0, depth + 1}, g.nu)}) {
        EXPECT_THROW(bp.commit_band(bp.stage_band(band)), std::invalid_argument);
        EXPECT_THROW(bp.commit_band(bp.stage_band(encode_band(band))), std::invalid_argument);
    }
    // commit_band takes only segments that cover the staged planes exactly.
    SlabBackprojector::StagedBand staged = bp.stage_band(ProjectionStack(8, rows, g.nu));
    staged.segments.back().nplanes += 1;
    EXPECT_THROW(bp.commit_band(staged), std::invalid_argument);
    staged.segments.back().nplanes -= 2;
    EXPECT_THROW(bp.commit_band(staged), std::invalid_argument);
    staged.segments.back().nplanes += 1;
    EXPECT_NO_THROW(bp.commit_band(staged));
}

// ---- end-to-end pipeline contracts --------------------------------------

CbctGeometry geo(index_t n, index_t np)
{
    CbctGeometry g;
    g.dso = 100.0;
    g.dsd = 250.0;
    g.num_proj = np;
    g.nu = 2 * n;
    g.nv = 2 * n;
    g.du = 0.5;
    g.dv = 0.5;
    g.vol = {n, n, n};
    g.dx = g.dy = g.dz = CbctGeometry::natural_pitch(g.du, g.dsd, g.dso, g.nu, g.vol.x) * 0.7;
    return g;
}

recon::DistributedConfig dist_config(const CbctGeometry& g)
{
    recon::DistributedConfig cfg;
    cfg.geometry = g;
    cfg.layout = GroupLayout{2, 2};
    cfg.batches = 4;
    return cfg;
}

recon::SourceFactory phantom_factory(const std::vector<phantom::Ellipsoid>& ph,
                                     const CbctGeometry& g)
{
    return [&ph, g](RankId) { return std::make_unique<recon::PhantomSource>(ph, g); };
}

TEST(BandCodecPipeline, ThreadedRunsAreBitwiseTheInOrderTwin)
{
    // The stage threads and the in-order twin run the same band path, so
    // the execution order never shows in the volume, raw or q8.
    const CbctGeometry g = geo();
    const auto ph = phantom::shepp_logan_3d(g.dx * static_cast<double>(g.vol.x) / 2.4);
    for (const BandCodec codec : {BandCodec::Raw, BandCodec::Q8}) {
        SCOPED_TRACE(band_codec_name(codec));
        recon::DistributedConfig serial = dist_config(g);
        serial.band_codec = codec;
        serial.threaded = false;
        const recon::DistributedResult a = reconstruct_distributed(serial, phantom_factory(ph, g));

        recon::DistributedConfig threaded = dist_config(g);
        threaded.band_codec = codec;
        threaded.queue_depth = 3;
        const recon::DistributedResult b =
            reconstruct_distributed(threaded, phantom_factory(ph, g));

        ASSERT_EQ(a.volume.count(), b.volume.count());
        EXPECT_EQ(std::memcmp(a.volume.span().data(), b.volume.span().data(),
                              static_cast<std::size_t>(a.volume.count()) * sizeof(float)),
                  0);
        // The staging ran on the prefetch stage.
        double t_prefetch = 0.0;
        for (const recon::RankStats& rs : b.ranks) t_prefetch += rs.t_prefetch;
        EXPECT_GT(t_prefetch, 0.0);
    }
}

TEST(BandCodecPipeline, Q8CutsTransportBytesAndHoldsTheQualityBar)
{
    const CbctGeometry g = geo();
    const auto ph = phantom::shepp_logan_3d(g.dx * static_cast<double>(g.vol.x) / 2.4);
    auto& h2d = telemetry::registry().counter(names::kMetricSimH2dBytes);

    recon::DistributedConfig raw = dist_config(g);
    const auto h2d_before_raw = h2d.value();
    const recon::DistributedResult a = reconstruct_distributed(raw, phantom_factory(ph, g));
    const auto raw_bytes = h2d.value() - h2d_before_raw;

    recon::DistributedConfig q8 = dist_config(g);
    q8.band_codec = io::BandCodec::Q8;
    const auto h2d_before_q8 = h2d.value();
    const recon::DistributedResult b = reconstruct_distributed(q8, phantom_factory(ph, g));
    const auto q8_bytes = h2d.value() - h2d_before_q8;

    // The acceptance bar: at least 3x fewer pfs->device band bytes.
    EXPECT_GE(static_cast<double>(raw_bytes), 3.0 * static_cast<double>(q8_bytes));
    // Quantisation stays benign end to end (same floor the BENCH gate
    // holds; the measured value sits well above it).
    EXPECT_GE(recon::psnr(a.volume, b.volume), 40.0);
}

}  // namespace
}  // namespace xct::io

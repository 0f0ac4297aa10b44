// q8 band-codec tests (src/io/band_codec, DESIGN.md §3j): the round-trip
// error bound, bitwise agreement with the QuantizedTexture3 dequantiser,
// the wire-size win, digest verification at the band.decode fault gate
// with retry recovery, and the end-to-end pipeline contracts — raw runs
// are bitwise independent of the prefetch switch, q8 runs stay within the
// quantisation quality bar while moving ~4x fewer host->device bytes.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <random>

#include "core/names.hpp"
#include "faults/fault.hpp"
#include "faults/retry.hpp"
#include "integrity/integrity.hpp"
#include "io/band_codec.hpp"
#include "recon/distributed.hpp"
#include "recon/fdk.hpp"
#include "recon/quality.hpp"
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

// ---- end-to-end pipeline contracts --------------------------------------

CbctGeometry geo(index_t n = 24, index_t np = 36)
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

TEST(BandCodecPipeline, RawRunsAreBitwiseIndependentOfPrefetch)
{
    const CbctGeometry g = geo();
    const auto ph = phantom::shepp_logan_3d(g.dx * static_cast<double>(g.vol.x) / 2.4);

    recon::DistributedConfig off = dist_config(g);
    const recon::DistributedResult a = reconstruct_distributed(off, phantom_factory(ph, g));

    recon::DistributedConfig on = dist_config(g);
    on.prefetch = true;
    on.queue_depth = 3;
    const recon::DistributedResult b = reconstruct_distributed(on, phantom_factory(ph, g));

    ASSERT_EQ(a.volume.count(), b.volume.count());
    EXPECT_EQ(std::memcmp(a.volume.span().data(), b.volume.span().data(),
                          static_cast<std::size_t>(a.volume.count()) * sizeof(float)),
              0);
    // The staging stage actually ran on the prefetch side.
    double t_prefetch = 0.0;
    for (const recon::RankStats& rs : b.ranks) t_prefetch += rs.t_prefetch;
    EXPECT_GT(t_prefetch, 0.0);
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
    q8.prefetch = true;
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

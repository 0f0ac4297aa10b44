#include "io/band_codec.hpp"

#include <algorithm>

#include "core/names.hpp"
#include "core/parallel.hpp"
#include "core/scratch.hpp"
#include "core/types.hpp"
#include "faults/fault.hpp"
#include "telemetry/metrics.hpp"

namespace xct::io {
namespace {

// The codec loops run on the worker pool with results bitwise equal to a
// serial scan at any thread count: quantise and dequantise are
// element-wise, and the [lo, hi] reduction folds fixed kRangeChunk
// chunks (independent of the thread count, each in lanes by extent_of)
// and merges them in order (Extent), so ties between +0 and -0 and a NaN
// in src[0] resolve exactly as in one left-to-right pass.

/// Elements per pool chunk of the element-wise loops: a band this short
/// stays on the calling thread.
constexpr index_t kGrain = index_t{1} << 15;
constexpr std::size_t kRangeChunk = std::size_t{1} << 16;

}  // namespace

BandCodec band_codec_from_name(const std::string& name)
{
    if (name == "raw") return BandCodec::Raw;
    if (name == "q8") return BandCodec::Q8;
    throw std::invalid_argument("band_codec_from_name: unknown codec '" + name +
                                "' (expected raw|q8)");
}

const char* band_codec_name(BandCodec codec)
{
    return codec == BandCodec::Raw ? "raw" : "q8";
}

std::size_t EncodedBand::wire_bytes() const
{
    // Payload plus the header fields a serialised band would carry:
    // extents + band range + scale/offset + digest.
    return payload.size() + 3 * sizeof(index_t) + 2 * sizeof(index_t) + 2 * sizeof(float) +
           sizeof(integrity::digest_t);
}

Extent value_range(std::span<const float> src)
{
    require(!src.empty(), "value_range: empty band");
    const index_t chunks = static_cast<index_t>((src.size() + kRangeChunk - 1) / kRangeChunk);
    scratch::Buffer<Extent> part(static_cast<std::size_t>(chunks));
    parallel::parallel_for(chunks, 1, [&](index_t c, std::size_t) {
        const std::size_t begin = static_cast<std::size_t>(c) * kRangeChunk;
        part[static_cast<std::size_t>(c)] =
            extent_of(src.subspan(begin, std::min(kRangeChunk, src.size() - begin)));
    });
    Extent r{src[0], src[0]};
    for (const Extent& p : part.span()) r.merge(p);
    return r;
}

EncodedBand encode_band(const ProjectionStack& band)
{
    return encode_band(band, value_range(band.span()));
}

EncodedBand encode_band(const ProjectionStack& band, Extent extent)
{
    const std::span<const float> src = band.span();
    require(!src.empty(), "encode_band: empty band");
    EncodedBand e;
    e.views = band.views();
    e.cols = band.cols();
    e.band = band.band();
    const float lo = extent.lo, hi = extent.hi;
    e.lo = lo;
    e.hi = hi;
    e.payload.resize(src.size());
    if (hi > lo) {
        // Round-to-nearest against the band's own range — exactly the
        // QuantizedTexture3 mapping, so the ablation's error story carries
        // over verbatim: |decode(encode(v)) - v| <= (hi-lo)/510.
        const float scale = 255.0f / (hi - lo);
        const float* const in = src.data();
        std::uint8_t* const out = e.payload.data();
        // By value: the byte store may alias anything the body reaches
        // through a reference (3x on the quantise loop at four threads).
        parallel::parallel_for(static_cast<index_t>(src.size()), kGrain,
                               [=](index_t i, std::size_t) {
                                   float t = (in[i] - lo) * scale;
                                   t = t < 0.0f ? 0.0f : (t > 255.0f ? 255.0f : t);
                                   out[i] = static_cast<std::uint8_t>(t + 0.5f);
                               });
    }
    // hi == lo: constant band, payload stays zero, decode returns lo.
    e.digest =
        integrity::enabled() ? integrity::checksum_of<std::uint8_t>(std::span(e.payload)) : 0;
    auto& reg = telemetry::registry();
    reg.counter(names::kMetricBandEncodes).add(1);
    reg.counter(names::kMetricBandEncodeBytesIn).add(src.size() * sizeof(float));
    reg.counter(names::kMetricBandEncodeBytesOut).add(e.wire_bytes());
    return e;
}

void decode_band_into(const EncodedBand& e, std::span<float> dst, RowOrder order)
{
    const index_t views = e.views, rows = e.band.length(), cols = e.cols;
    require(!e.payload.empty(), "decode_band: empty payload");
    require(static_cast<index_t>(e.payload.size()) == views * rows * cols &&
                dst.size() == e.payload.size(),
            "decode_band: payload size mismatch");
    // Throw-class faults fire before the transit copy, like every other
    // gated movement.
    faults::check(names::kSiteBandDecode);
    // The wire hop: the payload is copied into a transit buffer where a
    // corrupt-class fault can flip bits; the digest verify catches the
    // flip before any texel is dequantised.  The source EncodedBand is
    // untouched, so the retry layer's re-decode recovers bitwise.
    scratch::Buffer<std::uint8_t> transit(e.payload.size());
    std::copy(e.payload.begin(), e.payload.end(), transit.data());
    faults::corrupt(names::kSiteBandDecode, std::as_writable_bytes(transit.span()));
    integrity::verify_of<std::uint8_t>(names::kSiteBandDecode, transit.span(), e.digest);
    // Same expression (and evaluation order) as QuantizedTexture3::fetch,
    // so the two q8 paths dequantise bit-identically.  Destination row k
    // is source row (s, r); each participant writes, and so first touches,
    // its own runs of destination rows, about kGrain texels at a time.
    const float lo = e.lo, range = e.hi - e.lo;
    const bool upload = order == RowOrder::Upload;
    const std::uint8_t* const q = transit.data();
    float* const out0 = dst.data();
    const index_t grain = std::max<index_t>(1, kGrain / cols);
    parallel::parallel_for(views * rows, grain, [=](index_t k, std::size_t) {
        const index_t s = upload ? k % views : k / rows;
        const index_t r = upload ? k / views : k % rows;
        const std::uint8_t* in = q + (s * rows + r) * cols;
        float* out = out0 + k * cols;
        for (index_t u = 0; u < cols; ++u) out[u] = lo + static_cast<float>(in[u]) * range / 255.0f;
    });
    telemetry::registry().counter(names::kMetricBandDecodes).add(1);
}

ProjectionStack decode_band(const EncodedBand& e)
{
    ProjectionStack out(e.views, e.band, e.cols);
    decode_band_into(e, out.span(), RowOrder::Stack);
    return out;
}

float q8_error_bound(const EncodedBand& e)
{
    return e.hi > e.lo ? (e.hi - e.lo) / 510.0f : 0.0f;
}

}  // namespace xct::io

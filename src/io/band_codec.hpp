#pragma once
// q8 differential band transport codec (DESIGN.md §3j).
//
// The decomposed-FDK memory analysis (arXiv:1708.07515) identifies the
// band byte volume on the pfs->host->device path as the second throughput
// lever after the decomposition choice, and the QuantizedTexture3 ablation
// established that 8-bit storage against a per-range scale preserves the
// reconstruction to its documented error bound.  This codec applies the
// same quantisation *on the wire* instead of in the texture: each
// differential band (Eq. 6) is quantised per-band against its own
// [lo, hi], shipped as one byte per texel plus a small header, and
// dequantised on upload — the device texture stays full fp32, so kernel
// arithmetic is untouched.
//
// Like every other bulk movement in the tree, the payload is XXH64
// digested at the producer and verified at the consumer (fault site
// "band.decode"); a bit flipped in transit raises integrity::IntegrityError,
// which is a faults::TransientError — the retry layer re-runs the decode
// from the still-intact EncodedBand.
//
// The raw path (BandCodec::Raw) never touches this module: --band-codec
// raw runs are bitwise-identical to the seed.

#include <cstdint>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "core/volume.hpp"
#include "integrity/integrity.hpp"

namespace xct::io {

/// Wire format of the differential band transport.
enum class BandCodec {
    Raw,  ///< fp32 texels, bitwise-identical to the seed pipeline
    Q8,   ///< per-band 8-bit quantisation with stored scale/offset
};

BandCodec band_codec_from_name(const std::string& name);
const char* band_codec_name(BandCodec codec);

/// One encoded differential band: the q8 wire representation of a
/// ProjectionStack restricted to detector rows `band`.
struct EncodedBand {
    index_t views = 0;
    index_t cols = 0;
    Range band{};  ///< global detector rows, as ProjectionStack::band()
    float lo = 0.0f;
    float hi = 0.0f;  ///< hi == lo encodes a constant band (payload all 0)
    integrity::digest_t digest = 0;        ///< XXH64 over `payload`
    std::vector<std::uint8_t> payload;     ///< views*rows*cols texels, 1 byte each

    /// Bytes this band occupies on the wire (payload + header fields).
    std::size_t wire_bytes() const;
    /// Bytes the same band occupies as raw fp32 texels.
    std::size_t raw_bytes() const { return payload.size() * sizeof(float); }
};

/// The serial fold (Extent) of `src`, over fixed chunks on the worker pool.
Extent value_range(std::span<const float> src);

/// Quantise `band` to q8 against its own [min, max].  Round-to-nearest,
/// exactly the QuantizedTexture3 mapping: q = round((v-lo)*255/(hi-lo)).
/// The `extent` overload takes value_range(band.span()) as already folded
/// (by FilterEngine::apply's unpack) and only quantises and digests.
EncodedBand encode_band(const ProjectionStack& band);
EncodedBand encode_band(const ProjectionStack& band, Extent extent);

/// Row order of a decoded band: ProjectionStack's [view][row][col], or the
/// circular texture's upload order [row][view][col] (StagedBand::planes).
enum class RowOrder { Stack, Upload };

/// The one dequantiser.  The payload crosses the "band.decode" fault gate
/// (throw-class faults fire before the copy, a corrupt-class fault flips
/// bits in the transit copy) and is digest verified; only then is each
/// (view, row) row dequantised into `dst` in `order`, rows spread over
/// the worker pool.  The source EncodedBand stays intact, so a retried
/// decode recovers bitwise.  decode_band is the same into a fresh stack.
void decode_band_into(const EncodedBand& e, std::span<float> dst, RowOrder order);
ProjectionStack decode_band(const EncodedBand& e);

/// Maximum absolute round-trip error of encode+decode for this band:
/// half a quantisation step, (hi - lo) / (2 * 255).
float q8_error_bound(const EncodedBand& e);

}  // namespace xct::io

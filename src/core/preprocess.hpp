#pragma once
// Beer-law projection preprocessing (Sec. 2.1, Eq. 1):
//
//     P = -log((lambda - lambda_dark) / (lambda_blank - lambda_dark))
//
// converting raw photon counts into line integrals of attenuation.  The
// dark/blank fields may be scalars (tomobank-style constants of Table 4) or
// full per-pixel calibration images.

#include <algorithm>
#include <optional>
#include <span>

#include "core/simd.hpp"
#include "core/types.hpp"
#include "core/volume.hpp"

namespace xct {

/// Scalar dark/blank calibration (Table 4 style: lambda_dark = 0,
/// lambda_blank = 2^16 for the coffee-bean dataset).
struct BeerLawScalar {
    float dark = 0.0f;
    float blank = 65536.0f;
};

/// Eq. 1 for one count, the element form of every Eq. 1 loop (here and in
/// FilterEngine::apply's pack).  Counts are clamped to a tiny positive
/// transmission so dead pixels give large-but-finite attenuation.  The log
/// is simd::log_, glibc's logf algorithm written out, so the bits follow
/// this code rather than the host's libm: on every count it equals
/// -std::log of the clamped ratio under glibc 2.36, and the clamp leaves
/// log_ only positive normals, +inf and NaN.  The sign flips bitwise, so a
/// count equal to blank gives -0.
inline float beer_law_texel(float count, float dark, float blank)
{
    return -simd::log_(std::max((count - dark) / (blank - dark), 1e-6f));
}

/// Eq. 1 on a vector of counts: beer_law_texel in every lane, bit for bit
/// (the same ops in the same order, the clamp as std::max's compare).
inline simd::VecF beer_law_lanes(simd::VecF count, simd::VecF dark, simd::VecF blank)
{
    const simd::VecF floor = simd::splat(1e-6f);
    const simd::VecF t = (count - dark) / (blank - dark);
    return -simd::log_(simd::blend(simd::cmp_gt(floor, t), floor, t));
}

/// Apply Eq. 1 in place to a span of raw counts with scalar calibration.
void beer_law(std::span<float> counts, const BeerLawScalar& cal);

/// Apply Eq. 1 in place with per-pixel dark/blank images (each the size of
/// one projection); `counts` must be a whole number of projections.
void beer_law(std::span<float> counts, std::span<const float> dark, std::span<const float> blank);

/// Apply Eq. 1 to every projection of a stack (scalar calibration).
void beer_law(ProjectionStack& stack, const BeerLawScalar& cal);

/// Inverse of Eq. 1 (used by the synthetic raw-count generator):
/// lambda = dark + (blank - dark) * exp(-P).
void inverse_beer_law(std::span<float> line_integrals, const BeerLawScalar& cal);

}  // namespace xct

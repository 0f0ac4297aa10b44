#include "core/preprocess.hpp"

#include <algorithm>
#include <cmath>

#include "core/parallel.hpp"

namespace xct {
namespace {

/// Elements per pool chunk: a span this short stays on the calling
/// thread, where handing it out would cost more than the loop.  The Eq. 1
/// loops and their inverse are element-wise (an Eq. 1 lane is its element
/// form bit for bit), so any split gives bitwise the same result at any
/// thread count.
constexpr index_t kGrain = index_t{1} << 15;

}  // namespace

void beer_law(std::span<float> counts, const BeerLawScalar& cal)
{
    require(cal.blank > cal.dark, "beer_law: blank must exceed dark");
    const index_t n = static_cast<index_t>(counts.size());
    const simd::VecF dark = simd::splat(cal.dark), blank = simd::splat(cal.blank);
    parallel::parallel_for((n + kGrain - 1) / kGrain, 1, [=](index_t c, std::size_t) {
        const std::size_t begin = static_cast<std::size_t>(c * kGrain);
        const std::span<float> part =
            counts.subspan(begin, std::min<std::size_t>(kGrain, counts.size() - begin));
        std::size_t i = 0;
        for (; i + simd::kLanes <= part.size(); i += simd::kLanes)
            simd::store(&part[i], beer_law_lanes(simd::load(&part[i]), dark, blank));
        for (; i < part.size(); ++i) part[i] = beer_law_texel(part[i], cal.dark, cal.blank);
    });
}

void beer_law(std::span<float> counts, std::span<const float> dark, std::span<const float> blank)
{
    require(dark.size() == blank.size() && !dark.empty(),
            "beer_law: dark/blank images must be non-empty and equal-sized");
    require(counts.size() % dark.size() == 0,
            "beer_law: counts must be a whole number of projections");
    const std::size_t pix = dark.size();
    const index_t projections = static_cast<index_t>(counts.size() / pix);
    const index_t grain = std::max<index_t>(1, kGrain / static_cast<index_t>(pix));
    parallel::parallel_for(projections, grain, [=](index_t s, std::size_t) {
        const std::span<float> proj = counts.subspan(static_cast<std::size_t>(s) * pix, pix);
        std::size_t i = 0;
        for (; i + simd::kLanes <= pix; i += simd::kLanes)
            simd::store(&proj[i], beer_law_lanes(simd::load(&proj[i]), simd::load(&dark[i]),
                                                 simd::load(&blank[i])));
        for (; i < pix; ++i) proj[i] = beer_law_texel(proj[i], dark[i], blank[i]);
    });
}

void beer_law(ProjectionStack& stack, const BeerLawScalar& cal)
{
    beer_law(stack.span(), cal);
}

void inverse_beer_law(std::span<float> line_integrals, const BeerLawScalar& cal)
{
    require(cal.blank > cal.dark, "inverse_beer_law: blank must exceed dark");
    const index_t n = static_cast<index_t>(line_integrals.size());
    parallel::parallel_for(n, kGrain, [=](index_t i, std::size_t) {
        float& p = line_integrals[static_cast<std::size_t>(i)];
        p = cal.dark + (cal.blank - cal.dark) * std::exp(-p);
    });
}

}  // namespace xct

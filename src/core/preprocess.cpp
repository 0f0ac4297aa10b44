#include "core/preprocess.hpp"

#include <cmath>

namespace xct {
namespace {

/// Spans shorter than this stay on the calling thread: below it, opening
/// a parallel region costs more than the loop.  Both Eq. 1 loops are
/// element-wise, so the OpenMP split gives bitwise the same result at any
/// thread count.
constexpr std::size_t kParallelMin = std::size_t{1} << 15;

}  // namespace

void beer_law(std::span<float> counts, const BeerLawScalar& cal)
{
    require(cal.blank > cal.dark, "beer_law: blank must exceed dark");
    const index_t n = static_cast<index_t>(counts.size());
#pragma omp parallel for schedule(static) if (counts.size() >= kParallelMin)
    for (index_t i = 0; i < n; ++i) {
        float& c = counts[static_cast<std::size_t>(i)];
        c = beer_law_texel(c, cal.dark, cal.blank);
    }
}

void beer_law(std::span<float> counts, std::span<const float> dark, std::span<const float> blank)
{
    require(dark.size() == blank.size() && !dark.empty(),
            "beer_law: dark/blank images must be non-empty and equal-sized");
    require(counts.size() % dark.size() == 0,
            "beer_law: counts must be a whole number of projections");
    const std::size_t pix = dark.size();
    const index_t n = static_cast<index_t>(counts.size());
#pragma omp parallel for schedule(static) if (counts.size() >= kParallelMin)
    for (index_t i = 0; i < n; ++i) {
        const std::size_t at = static_cast<std::size_t>(i);
        const std::size_t p = at % pix;
        counts[at] = beer_law_texel(counts[at], dark[p], blank[p]);
    }
}

void beer_law(ProjectionStack& stack, const BeerLawScalar& cal)
{
    beer_law(stack.span(), cal);
}

void inverse_beer_law(std::span<float> line_integrals, const BeerLawScalar& cal)
{
    require(cal.blank > cal.dark, "inverse_beer_law: blank must exceed dark");
    for (float& p : line_integrals) p = cal.dark + (cal.blank - cal.dark) * std::exp(-p);
}

}  // namespace xct

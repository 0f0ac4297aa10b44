#include "core/preprocess.hpp"

#include <cmath>

#include "core/parallel.hpp"

namespace xct {
namespace {

/// Elements per pool chunk: a span this short stays on the calling
/// thread, where handing it out would cost more than the loop.  The Eq. 1
/// loops and their inverse are element-wise, so any split gives bitwise
/// the same result at any thread count.
constexpr index_t kGrain = index_t{1} << 15;

}  // namespace

void beer_law(std::span<float> counts, const BeerLawScalar& cal)
{
    require(cal.blank > cal.dark, "beer_law: blank must exceed dark");
    const index_t n = static_cast<index_t>(counts.size());
    parallel::parallel_for(n, kGrain, [=](index_t i, std::size_t) {
        float& c = counts[static_cast<std::size_t>(i)];
        c = beer_law_texel(c, cal.dark, cal.blank);
    });
}

void beer_law(std::span<float> counts, std::span<const float> dark, std::span<const float> blank)
{
    require(dark.size() == blank.size() && !dark.empty(),
            "beer_law: dark/blank images must be non-empty and equal-sized");
    require(counts.size() % dark.size() == 0,
            "beer_law: counts must be a whole number of projections");
    const std::size_t pix = dark.size();
    const index_t n = static_cast<index_t>(counts.size());
    parallel::parallel_for(n, kGrain, [=](index_t i, std::size_t) {
        const std::size_t at = static_cast<std::size_t>(i);
        const std::size_t p = at % pix;
        counts[at] = beer_law_texel(counts[at], dark[p], blank[p]);
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

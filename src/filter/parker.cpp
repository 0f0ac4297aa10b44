#include "filter/parker.hpp"

#include <cmath>
#include <numbers>

namespace xct::filter {

double fan_half_angle(const CbctGeometry& g)
{
    const double cu = (static_cast<double>(g.nu) - 1.0) / 2.0 + g.sigma_u;
    const double left = std::abs((0.0 - cu) * g.du);
    const double right = std::abs((static_cast<double>(g.nu) - 1.0 - cu) * g.du);
    return std::atan(std::max(left, right) / g.dsd);
}

double parker_weight(double beta, double gamma, double delta_cap)
{
    constexpr double pi = std::numbers::pi;
    if (beta < 0.0 || beta > pi + 2.0 * delta_cap) return 0.0;

    const double ramp_up_end = 2.0 * (delta_cap - gamma);
    const double ramp_down_begin = pi - 2.0 * gamma;
    if (beta < ramp_up_end) {
        const double denom = delta_cap - gamma;
        if (denom <= 0.0) return 1.0;  // degenerate edge ray
        const double s = std::sin(pi / 4.0 * beta / denom);
        return s * s;
    }
    if (beta <= ramp_down_begin) return 1.0;
    const double denom = delta_cap + gamma;
    if (denom <= 0.0) return 1.0;
    const double s = std::sin(pi / 4.0 * (pi + 2.0 * delta_cap - beta) / denom);
    return s * s;
}

ParkerWeights::ParkerWeights(const CbctGeometry& g, Range views) : views_(views), nu_(g.nu)
{
    g.validate();
    require(g.short_scan(), "ParkerWeights: geometry is a full scan (no redundancy weighting)");
    require(!views.empty() && views.lo >= 0 && views.hi <= g.num_proj,
            "ParkerWeights: views out of range");
    const double delta = fan_half_angle(g);
    constexpr double pi = std::numbers::pi;
    require(g.scan_range >= pi + 2.0 * delta - 1e-9,
            "ParkerWeights: scan_range below pi + fan angle (insufficient data)");
    const double delta_cap = (g.scan_range - pi) / 2.0;

    const double cu = (static_cast<double>(g.nu) - 1.0) / 2.0 + g.sigma_u;
    w_.resize(static_cast<std::size_t>(views.length() * g.nu));
    for (index_t s = views.lo; s < views.hi; ++s) {
        const double beta = g.angle_of(s);
        for (index_t u = 0; u < g.nu; ++u) {
            const double gamma = std::atan((static_cast<double>(u) - cu) * g.du / g.dsd);
            w_[static_cast<std::size_t>((s - views.lo) * g.nu + u)] =
                static_cast<float>(parker_weight(beta, gamma, delta_cap));
        }
    }
}

void ParkerWeights::apply(ProjectionStack& stack) const
{
    require(stack.cols() == nu_, "ParkerWeights: stack width mismatch");
    require(stack.views() == views_.length(), "ParkerWeights: view count mismatch");
    for (index_t s = 0; s < stack.views(); ++s) {
        const std::span<const float> w = view(s);
        for (index_t v = stack.row_begin(); v < stack.band().hi; ++v) {
            const std::span<float> row = stack.row(s, v);
            for (std::size_t u = 0; u < row.size(); ++u) row[u] *= w[u];
        }
    }
}

}  // namespace xct::filter

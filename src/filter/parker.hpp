#pragma once
// Short-scan (partial-arc) support: generalised Parker redundancy
// weighting.
//
// The paper evaluates full 360-degree scans; production CBCT devices
// (C-arms in particular, cf. the paper's Table-4 calibration discussion)
// frequently acquire only pi + fan-angle arcs.  A short scan measures
// part of the rays twice and part once; Parker's weights [Parker, Med.
// Phys. 1982] smoothly down-weight the doubly-measured rays so every
// physical line integral contributes exactly once:
//
//   w(beta, gamma) = sin^2( pi/4 * beta / (D - gamma) )             beta in [0, 2(D - gamma))
//                  = 1                                              beta in [2(D - gamma), pi - 2 gamma)
//                  = sin^2( pi/4 * (pi + 2 D - beta) / (D + gamma)) beta in [pi - 2 gamma, pi + 2 D]
//
// where gamma = atan(u_mm / Dsd) is the ray's fan angle, D =
// (scan_range - pi)/2 the (generalised, Silver-style) over-scan
// half-angle, and conjugate rays pair as (beta, gamma) ~
// (beta + pi + 2 gamma, -gamma) with w + w_conjugate = 1.
//
// The weight depends only on (view, detector column) — never on the
// detector row — so it composes freely with the paper's row-band
// decomposition: each rank weights its own view share of whatever row
// band it loaded.

#include "core/geometry.hpp"
#include "core/volume.hpp"

namespace xct::filter {

/// Largest fan (in-plane) half-angle of any detector column [radians];
/// accounts for detector offsets making the fan asymmetric.
double fan_half_angle(const CbctGeometry& g);

/// The generalised Parker weight for source angle `beta` (in
/// [0, scan_range)) and fan angle `gamma`, with over-scan half-angle
/// `delta_cap` = (scan_range - pi)/2.  Pure function (unit tested for the
/// conjugate-pair identity).
double parker_weight(double beta, double gamma, double delta_cap);

/// Precomputed per-(view, column) weight table for one rank's view range.
class ParkerWeights {
public:
    /// Throws unless g.short_scan() and scan_range >= pi + 2*fan_half_angle
    /// (the data-sufficiency condition).
    ParkerWeights(const CbctGeometry& g, Range views);

    /// Weight of (global view s, detector column u).
    float at(index_t s, index_t u) const
    {
        require(views_.contains(s), "ParkerWeights: view out of range");
        return w_[static_cast<std::size_t>((s - views_.lo) * nu_ + u)];
    }

    /// Weights of the table's s-th view (global view views().lo + s).
    std::span<const float> view(index_t s) const
    {
        XCT_CHECK_BOUNDS(s >= 0 && s < views_.length(), "ParkerWeights: view out of range");
        return std::span<const float>(w_).subspan(static_cast<std::size_t>(s * nu_),
                                                  static_cast<std::size_t>(nu_));
    }

    /// Multiply every pixel of the stack (whose views are global indices
    /// views.lo + s) by its weight.  Row bands are irrelevant — the weight
    /// is row-independent.
    void apply(ProjectionStack& stack) const;

    Range views() const { return views_; }
    index_t cols() const { return nu_; }

private:
    Range views_{};
    index_t nu_ = 0;
    std::vector<float> w_;
};

}  // namespace xct::filter

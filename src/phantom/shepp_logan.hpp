#pragma once
// Synthetic data substrate: analytic ellipsoid phantoms and their *exact*
// cone-beam forward projection.
//
// The paper evaluates on six real scans (coffee bean, bumblebee, four
// tomobank sets).  Raw data and a beamline are not available here, so —
// per the substitution policy of DESIGN.md §2 — we generate projections
// through the *same geometries* from analytic phantoms:
//
//   * the classical 3D Shepp-Logan head (the paper itself uses it for its
//     numerical assessment, Sec. 6.1);
//   * a procedural porous "bean" (ellipsoid shell plus seeded ellipsoidal
//     voids) standing in for the micro-CT coffee-bean sample.
//
// Being ellipsoid compositions, both admit closed-form line integrals, so
// the forward projections carry no discretisation error — the oracle side
// of every end-to-end test.

#include <cstdint>
#include <vector>

#include "core/geometry.hpp"
#include "core/volume.hpp"

namespace xct::phantom {

/// One ellipsoid: semi-axes (a, b, c) [mm], centre [mm], rotation about the
/// Z axis [radians], additive density.
struct Ellipsoid {
    double density = 0.0;
    double a = 0.0, b = 0.0, c = 0.0;
    double cx = 0.0, cy = 0.0, cz = 0.0;
    double phi = 0.0;
};

/// The ten-ellipsoid 3D Shepp-Logan head, scaled so the outer skull
/// ellipsoid has semi-axis `radius_mm` along Y (the classical table is
/// defined on the unit cube).  Densities follow the "modified" contrast
/// variant common in the literature.
std::vector<Ellipsoid> shepp_logan_3d(double radius_mm);

/// Procedural porous bean: an ellipsoidal body of density `body_density`
/// with `num_voids` seeded ellipsoidal pores of negative density (air).
/// Deterministic for a given `seed`.
std::vector<Ellipsoid> porous_bean(double radius_mm, index_t num_voids, std::uint64_t seed);

/// Sum of densities of all ellipsoids containing the point (x, y, z) [mm].
double density_at(const std::vector<Ellipsoid>& e, double x, double y, double z);

/// Exact line integral of the phantom along the segment src -> dst [mm]:
/// the per-ray arithmetic forward_project runs, over every ellipsoid.
double line_integral(const std::vector<Ellipsoid>& e, const Vec3& src, const Vec3& dst);

/// The rays forward_project integrates in view `s` of `g`, in the object
/// frame [mm].  The object rotates by +phi, so source and detector
/// counter-rotate by -phi; at phi = 0 the source sits at
/// (-sigma_cor, -Dso, 0) and pixel (u, v) at
/// ((u - cu) du - sigma_cor, Dsd - Dso, (v - cv) dv).  Their arithmetic
/// follows the projector's fusion rule (DESIGN.md §3e), so a caller gets
/// the projector's own ray bits at any -march.  Holds `g` by pointer: it
/// must not outlive it.
struct ViewRays {
    ViewRays(const CbctGeometry& g, index_t s);
    /// Far end of pixel (u, v)'s ray: the pixel centre on the detector.
    Vec3 pixel(index_t u, index_t v) const;

    const CbctGeometry* g;
    double cph, sph;  ///< cos and sin of the view angle
    double cu, cv;    ///< detector centre [pixels], sigma_u / sigma_v included
    Vec3 src;         ///< the source, the near end of every ray
};

/// Rasterise the phantom onto the reconstruction grid of `g` (voxel-centre
/// sampling) — the ground-truth volume for RMSE assessments.
Volume voxelize(const std::vector<Ellipsoid>& e, const CbctGeometry& g);

/// Analytically forward-project the phantom through geometry `g` for the
/// given view range and detector-row band (global coordinates), honouring
/// the sigma_u / sigma_v / sigma_cor calibration terms.  Returns a stack
/// whose view index 0 corresponds to global view `views.lo`.  Pixel (u, v)
/// of view s is float(line_integral(e, ViewRays(g, s).src,
/// ViewRays(g, s).pixel(u, v))) bit for bit, though rays run simd::kLanesD
/// to a vector and each vector tests only the ellipsoids whose detector
/// footprint holds one of its pixels (DESIGN.md §3e, "Phantom projector").
ProjectionStack forward_project(const std::vector<Ellipsoid>& e, const CbctGeometry& g, Range views,
                                Range band);

/// Full-detector, all-views convenience overload.
ProjectionStack forward_project(const std::vector<Ellipsoid>& e, const CbctGeometry& g);

}  // namespace xct::phantom

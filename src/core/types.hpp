#pragma once
// Fundamental value types shared by every xct module.
//
// Conventions (see DESIGN.md §6):
//  * voxel / pixel centres sit at integer coordinates;
//  * geometry setup is done in double precision, the bulk data path in float;
//  * sizes are signed 64-bit (std::int64_t) so index arithmetic over
//    multi-gigavoxel volumes never overflows and can go transiently negative
//    during offset computations.

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>

namespace xct {

/// Signed index type used for all voxel/pixel coordinates and counts.
using index_t = std::int64_t;

// Flat indices are products like i + j*Nx + k*Nx*Ny: a >2G-voxel volume
// (e.g. the paper's 4096^3 target) overflows 32-bit arithmetic long before
// it exhausts memory, so the multiplications MUST happen in index_t.
static_assert(sizeof(index_t) >= 8, "index_t must be 64-bit for >2G-voxel volumes");

/// 3-component double vector (geometry math).
struct Vec3 {
    double x = 0.0, y = 0.0, z = 0.0;

    constexpr Vec3 operator+(const Vec3& o) const { return {x + o.x, y + o.y, z + o.z}; }
    constexpr Vec3 operator-(const Vec3& o) const { return {x - o.x, y - o.y, z - o.z}; }
    constexpr Vec3 operator*(double s) const { return {x * s, y * s, z * s}; }
    constexpr double dot(const Vec3& o) const { return x * o.x + y * o.y + z * o.z; }
    double norm() const { return std::sqrt(dot(*this)); }
};

/// 4-component double vector (homogeneous coordinates).
struct Vec4 {
    double x = 0.0, y = 0.0, z = 0.0, w = 0.0;

    constexpr double dot(const Vec4& o) const { return x * o.x + y * o.y + z * o.z + w * o.w; }
};

/// Row-major 3x4 projection matrix (Sec. 4.1 of the paper): maps a
/// homogeneous voxel position to homogeneous detector coordinates.
struct Mat34 {
    std::array<Vec4, 3> row{};

    Vec4& operator[](int r) { return row[static_cast<std::size_t>(r)]; }
    const Vec4& operator[](int r) const { return row[static_cast<std::size_t>(r)]; }
};

/// Row-major 4x4 matrix used only while composing projection matrices.
struct Mat44 {
    std::array<std::array<double, 4>, 4> m{};

    static Mat44 identity()
    {
        Mat44 r;
        for (int i = 0; i < 4; ++i) r.m[static_cast<std::size_t>(i)][static_cast<std::size_t>(i)] = 1.0;
        return r;
    }
};

/// Multiply a 3x4 by a 4x4 (projection-matrix composition).
Mat34 multiply(const Mat34& a, const Mat44& b);

/// Multiply two 4x4 matrices.
Mat44 multiply(const Mat44& a, const Mat44& b);

/// Integer triple describing a 3D extent (x fastest-varying).
struct Dim3 {
    index_t x = 0, y = 0, z = 0;

    constexpr index_t count() const { return x * y * z; }
    constexpr bool operator==(const Dim3&) const = default;
};

/// Half-open integer interval [lo, hi).  Used for detector-row bands and
/// volume slabs.
struct Range {
    index_t lo = 0;
    index_t hi = 0;

    constexpr index_t length() const { return hi - lo; }
    constexpr bool empty() const { return hi <= lo; }
    constexpr bool contains(index_t v) const { return v >= lo && v < hi; }
    constexpr bool operator==(const Range&) const = default;
};

/// Intersection of two half-open ranges (may be empty).
constexpr Range intersect(Range a, Range b)
{
    Range r{a.lo > b.lo ? a.lo : b.lo, a.hi < b.hi ? a.hi : b.hi};
    if (r.hi < r.lo) r.hi = r.lo;
    return r;
}

/// Smallest range covering both inputs (empty inputs are ignored).
constexpr Range hull(Range a, Range b)
{
    if (a.empty()) return b;
    if (b.empty()) return a;
    return {a.lo < b.lo ? a.lo : b.lo, a.hi > b.hi ? a.hi : b.hi};
}

/// Value extent [lo, hi] of a float sequence (the q8 range) and the one
/// definition of its fold: from {x0, x0}, std::min / std::max each value,
/// so the first of tied -0/+0 wins, a NaN at x0 poisons both ends and a
/// later NaN is skipped.  Parts folded from the empty extent and merged in
/// order into {x0, x0} give that serial pass bit for bit at any split.
struct Extent {
    float lo = std::numeric_limits<float>::infinity();
    float hi = -std::numeric_limits<float>::infinity();

    constexpr void merge(const Extent& part)
    {
        lo = part.lo < lo ? part.lo : lo;
        hi = hi < part.hi ? part.hi : hi;
    }
    constexpr void add(float v) { merge(Extent{v, v}); }
};

/// The fold of `xs` from the empty extent: Extent::add over xs in order,
/// bit for bit, in vector lanes.  Each lane folds every kLanes-th value
/// with the same compare-and-select, and the lanes merge in lane order.
/// Lane order can only pick a different one of tied values when they are
/// -0 and +0, so a span whose lo or hi comes out zero is folded again
/// left to right.
Extent extent_of(std::span<const float> xs);

/// Throw std::invalid_argument with `msg` when `cond` is false.  Used to
/// validate public API arguments eagerly (P.7: catch run-time errors early).
inline void require(bool cond, const std::string& msg)
{
    if (!cond) throw std::invalid_argument(msg);
}

}  // namespace xct

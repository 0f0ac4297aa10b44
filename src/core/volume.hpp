#pragma once
// Dense single-precision containers for the two bulk data objects of the
// reconstruction pipeline:
//
//   * Volume          — the 3D image I of size Nz x Ny x Nx (z slowest);
//   * ProjectionStack — filtered projections P of size Np x Nv x Nu in the
//                       paper's Algorithm-1 layout (view slowest, then
//                       detector row, then detector column), optionally
//                       restricted to a detector-row band [row0, row0+rows).
//
// Both are plain owning containers (RAII, no naked new/delete) with checked
// accessors (assert in Debug, unconditional abort under -DXCT_BOUNDS_CHECK=ON
// — see core/check.hpp) and span-based raw access for kernels.  Their
// storage is scratch::Pages: a large +0.0f-filled one is a fresh
// kernel-zeroed mapping, never written by the constructor.

#include <vector>

#include "core/check.hpp"
#include "core/scratch.hpp"
#include "core/types.hpp"

namespace xct {

/// Owning 3D float image, laid out x-fastest: index = (k*Ny + j)*Nx + i.
class Volume {
public:
    Volume() = default;

    explicit Volume(Dim3 size, float fill = 0.0f)
        : size_(size), data_(scratch::filled(static_cast<std::size_t>(size.count()), fill))
    {
        require(size.x > 0 && size.y > 0 && size.z > 0, "Volume: extents must be positive");
    }

    const Dim3& size() const { return size_; }
    index_t count() const { return size_.count(); }

    float& at(index_t i, index_t j, index_t k)
    {
        XCT_CHECK_BOUNDS(i >= 0 && i < size_.x && j >= 0 && j < size_.y && k >= 0 && k < size_.z,
                         "Volume::at");
        return data_[static_cast<std::size_t>((k * size_.y + j) * size_.x + i)];
    }
    float at(index_t i, index_t j, index_t k) const
    {
        XCT_CHECK_BOUNDS(i >= 0 && i < size_.x && j >= 0 && j < size_.y && k >= 0 && k < size_.z,
                         "Volume::at");
        return data_[static_cast<std::size_t>((k * size_.y + j) * size_.x + i)];
    }

    std::span<float> span() { return data_; }
    std::span<const float> span() const { return data_; }

    /// Mutable view of one z-slice (Ny*Nx contiguous floats).
    std::span<float> slice(index_t k)
    {
        XCT_CHECK_BOUNDS(k >= 0 && k < size_.z, "Volume::slice");
        return std::span<float>(data_).subspan(static_cast<std::size_t>(k * size_.y * size_.x),
                                               static_cast<std::size_t>(size_.y * size_.x));
    }
    std::span<const float> slice(index_t k) const
    {
        XCT_CHECK_BOUNDS(k >= 0 && k < size_.z, "Volume::slice");
        return std::span<const float>(data_).subspan(
            static_cast<std::size_t>(k * size_.y * size_.x),
            static_cast<std::size_t>(size_.y * size_.x));
    }

    void fill(float v) { std::fill(data_.begin(), data_.end(), v); }

private:
    Dim3 size_{};
    std::vector<float, scratch::Pages<float>> data_;
};

/// Owning stack of (partial) projections.
///
/// Layout matches Algorithm 1: P[s][v][u] with s (view) slowest.  A stack
/// may hold only a detector-row *band*: rows [row_begin(), row_begin() +
/// rows()) of the full Nv-row detector.  `at(s, v, u)` takes v in *global*
/// detector coordinates and subtracts the band origin, mirroring the
/// `offset_proj_y` parameter of the CUDA kernel in Listing 1.
class ProjectionStack {
public:
    ProjectionStack() = default;

    /// Full-detector stack of `views` projections of size rows x cols.
    ProjectionStack(index_t views, index_t rows, index_t cols, float fill = 0.0f)
        : ProjectionStack(views, Range{0, rows}, cols, fill)
    {
    }

    /// Band-restricted stack: holds detector rows `band` of every view.
    ProjectionStack(index_t views, Range band, index_t cols, float fill = 0.0f)
        : views_(views), band_(band), cols_(cols),
          data_(scratch::filled(static_cast<std::size_t>(views * band.length() * cols), fill))
    {
        require(views > 0 && !band.empty() && cols > 0,
                "ProjectionStack: extents must be positive");
    }

    index_t views() const { return views_; }
    index_t rows() const { return band_.length(); }
    index_t cols() const { return cols_; }
    index_t row_begin() const { return band_.lo; }
    Range band() const { return band_; }
    index_t count() const { return views_ * band_.length() * cols_; }

    /// Element access with v in global detector-row coordinates.
    float& at(index_t s, index_t v, index_t u)
    {
        XCT_CHECK_BOUNDS(s >= 0 && s < views_ && band_.contains(v) && u >= 0 && u < cols_,
                         "ProjectionStack::at");
        return data_[static_cast<std::size_t>(((s * band_.length()) + (v - band_.lo)) * cols_ + u)];
    }
    float at(index_t s, index_t v, index_t u) const
    {
        XCT_CHECK_BOUNDS(s >= 0 && s < views_ && band_.contains(v) && u >= 0 && u < cols_,
                         "ProjectionStack::at");
        return data_[static_cast<std::size_t>(((s * band_.length()) + (v - band_.lo)) * cols_ + u)];
    }

    /// Mutable view of one detector row (cols contiguous floats);
    /// v in global coordinates.
    std::span<float> row(index_t s, index_t v)
    {
        XCT_CHECK_BOUNDS(s >= 0 && s < views_ && band_.contains(v), "ProjectionStack::row");
        return std::span<float>(data_).subspan(
            static_cast<std::size_t>(((s * band_.length()) + (v - band_.lo)) * cols_),
            static_cast<std::size_t>(cols_));
    }
    std::span<const float> row(index_t s, index_t v) const
    {
        XCT_CHECK_BOUNDS(s >= 0 && s < views_ && band_.contains(v), "ProjectionStack::row");
        return std::span<const float>(data_).subspan(
            static_cast<std::size_t>(((s * band_.length()) + (v - band_.lo)) * cols_),
            static_cast<std::size_t>(cols_));
    }

    /// View of one full projection (rows()*cols contiguous floats).
    std::span<float> view(index_t s)
    {
        XCT_CHECK_BOUNDS(s >= 0 && s < views_, "ProjectionStack::view");
        return std::span<float>(data_).subspan(
            static_cast<std::size_t>(s * band_.length() * cols_),
            static_cast<std::size_t>(band_.length() * cols_));
    }
    std::span<const float> view(index_t s) const
    {
        XCT_CHECK_BOUNDS(s >= 0 && s < views_, "ProjectionStack::view");
        return std::span<const float>(data_).subspan(
            static_cast<std::size_t>(s * band_.length() * cols_),
            static_cast<std::size_t>(band_.length() * cols_));
    }

    std::span<float> span() { return data_; }
    std::span<const float> span() const { return data_; }

private:
    index_t views_ = 0;
    Range band_{};
    index_t cols_ = 0;
    std::vector<float, scratch::Pages<float>> data_;
};

}  // namespace xct

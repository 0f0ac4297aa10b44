#pragma once
// Simulated accelerator.
//
// The paper's kernel runs on V100/A100 GPUs whose *capacity limits* (16/40
// GB) are what force the streaming, out-of-core design.  This module models
// exactly the properties the algorithm depends on:
//
//   * a hard device-memory budget — allocations beyond it throw
//     DeviceOutOfMemory (this is how the RTK-style baseline reproduces the
//     "✗" cells of Table 5);
//   * explicit host<->device transfers with byte/transfer/time accounting
//     (feeding T_H2D / T_D2H of the performance model, Sec. 5);
//   * a 3D texture with CUDA border semantics (clamped integer fetches)
//     and the circular depth addressing (`z % dimZ`, Listing 1 line 34)
//     that enables projection-row reuse across slabs.
//
// Computation itself executes on the CPU; numerics are identical to the
// CUDA path because the kernel only uses single-precision FMA arithmetic
// and manual bilinear interpolation (the paper deliberately avoids the
// 8-bit hardware texture interpolation, Sec. 4.3.1).
//
// Resilience: every host<->device transfer passes a fault-injection gate
// (sites "sim.h2d" / "sim.d2h"); when a RetryPolicy is attached via
// set_retry(), transient transfer faults are retried with bounded backoff
// — the ECC-retry / link-replay behaviour real GPUs provide in hardware.
// With --integrity on, each transfer also digests its source payload and
// verifies the device-side copy against it (DESIGN.md §3f): a bit flipped
// on the link (fault site kind=corrupt, or a real DMA error) raises
// IntegrityError inside the retried section, so the copy simply re-runs
// from the still-intact host buffer.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/check.hpp"
#include "core/scratch.hpp"
#include "core/types.hpp"
#include "faults/retry.hpp"
#include "integrity/integrity.hpp"

namespace xct::sim {

/// Thrown when an allocation would exceed the device's memory budget.
class DeviceOutOfMemory : public std::runtime_error {
public:
    DeviceOutOfMemory(std::size_t requested, std::size_t available)
        : std::runtime_error("device out of memory: requested " + std::to_string(requested) +
                             " bytes, available " + std::to_string(available)),
          requested_(requested), available_(available)
    {
    }
    std::size_t requested() const { return requested_; }
    std::size_t available() const { return available_; }

private:
    std::size_t requested_;
    std::size_t available_;
};

/// Accumulated statistics of one transfer direction.
struct LinkStats {
    std::uint64_t bytes = 0;
    std::uint64_t transfers = 0;
    double seconds = 0.0;  ///< modelled time at the link's bandwidth
};

/// One simulated accelerator.  Not thread-safe by design: each pipeline
/// rank owns its own device, mirroring one-GPU-per-rank (Eq. 11).
class Device {
public:
    /// `capacity_bytes` is the device-memory budget; bandwidths in GB/s
    /// model a PCIe 3.0 x16 link by default (Sec. 5 micro-benchmarks).
    explicit Device(std::size_t capacity_bytes, double h2d_gbps = 12.0, double d2h_gbps = 12.0);

    std::size_t capacity() const { return capacity_; }
    std::size_t used() const { return used_; }
    std::size_t available() const { return capacity_ - used_; }

    const LinkStats& h2d_stats() const { return h2d_; }
    const LinkStats& d2h_stats() const { return d2h_; }
    void reset_stats();

    /// Retry transient transfer faults under `policy` (nullopt — the
    /// default — fails loudly on the first fault).
    void set_retry(std::optional<faults::RetryPolicy> policy) { retry_ = std::move(policy); }

    // -- internal bookkeeping used by DeviceBuffer / Texture3 ---------------
    void allocate(std::size_t bytes);
    void release(std::size_t bytes) noexcept;
    void account_h2d(std::size_t bytes);
    void account_d2h(std::size_t bytes);

    /// Run one transfer `op` (the copy + corruption point + verify) under
    /// the fault gate: throw-class faults fire before the copy, and when a
    /// RetryPolicy is attached any TransientError — including an
    /// IntegrityError raised by op's own verify — re-runs the whole copy.
    template <typename F>
    void transfer(const char* site, F&& op)
    {
        auto attempt = [&] {
            faults::check(site);
            op();
        };
        if (retry_) {
            faults::with_retry(site, *retry_, attempt);
        } else {
            attempt();
        }
    }

private:
    std::size_t capacity_;
    std::size_t used_ = 0;
    double h2d_gbps_;
    double d2h_gbps_;
    LinkStats h2d_{};
    LinkStats d2h_{};
    std::optional<faults::RetryPolicy> retry_;
};

/// RAII linear device allocation of floats with explicit upload/download.
class DeviceBuffer {
public:
    DeviceBuffer(Device& dev, index_t count);
    ~DeviceBuffer();
    DeviceBuffer(const DeviceBuffer&) = delete;
    DeviceBuffer& operator=(const DeviceBuffer&) = delete;
    DeviceBuffer(DeviceBuffer&&) noexcept;
    DeviceBuffer& operator=(DeviceBuffer&&) = delete;

    index_t count() const { return static_cast<index_t>(data_.size()); }

    /// Host -> device copy into [offset, offset + src.size()); accounted.
    void upload(std::span<const float> src, index_t offset = 0);
    /// Device -> host copy from [offset, offset + dst.size()); accounted.
    void download(std::span<float> dst, index_t offset = 0) const;
    void fill(float v);

    /// Device-side view for kernels ("device pointer").  Does not account
    /// transfer traffic — kernels run "on the device".
    std::span<float> device_span() { return data_; }
    std::span<const float> device_span() const { return data_; }

private:
    Device* dev_;
    std::vector<float, scratch::Pages<float>> data_;
};

/// 3D texture over float data with CUDA-like semantics:
///
///   * layout [depth][height][width], width fastest;
///   * fetch(x, y, z) clamps x to [0, width) and y to [0, height) (CUDA
///     "clamp" address mode) and wraps z circularly: z % depth
///     (the devPixel offset of Listing 1);
///   * planes are written with copy_planes(), the simulated cudaMemcpy3D.
///
/// In the reconstruction the axes are: x = detector column (u),
/// y = view index (s), z = detector row (v) relative to the streaming
/// origin — the depth dimension is the one the slab decomposition streams.
class Texture3 {
public:
    Texture3(Device& dev, index_t width, index_t height, index_t depth);
    ~Texture3();
    Texture3(const Texture3&) = delete;
    Texture3& operator=(const Texture3&) = delete;
    Texture3(Texture3&&) noexcept;
    Texture3& operator=(Texture3&&) = delete;

    index_t width() const { return width_; }
    index_t height() const { return height_; }
    index_t depth() const { return depth_; }

    /// Upload `nplanes` consecutive height*width planes starting at depth
    /// `depth_begin` (no wrapping here — Algorithm 3 splits wrapped copies
    /// into two calls).  `src` holds the planes contiguously.
    void copy_planes(std::span<const float> src, index_t depth_begin, index_t nplanes);

    /// copy_planes with explicit link accounting: the q8 band transport
    /// ships `wire_bytes` over the host->device hop for these planes (one
    /// byte per texel plus a header share), not the fp32 texel bytes the
    /// default path bills.  Fault gate / digest / verify structure is
    /// identical to copy_planes — only account_h2d's argument differs.
    void copy_planes_wire(std::span<const float> src, index_t depth_begin, index_t nplanes,
                          std::size_t wire_bytes);

    /// Integer fetch with clamp on x/y and circular z (see class comment).
    float fetch(index_t x, index_t y, index_t z) const
    {
        x = x < 0 ? 0 : (x >= width_ ? width_ - 1 : x);
        y = y < 0 ? 0 : (y >= height_ ? height_ - 1 : y);
        index_t zz = z % depth_;
        if (zz < 0) zz += depth_;
        const index_t flat = (zz * height_ + y) * width_ + x;
        XCT_CHECK_BOUNDS(flat >= 0 && flat < static_cast<index_t>(data_.size()),
                         "Texture3::fetch");
        return data_[static_cast<std::size_t>(flat)];
    }

    /// Raw device-side view for the vectorised kernel's gathers (flat
    /// layout [depth][height][width], width fastest).  Callers own the
    /// clamp/wrap arithmetic fetch() normally provides — the kernel masks
    /// and clamps indices before gathering (see backproj/kernel.cpp).
    std::span<const float> device_span() const { return data_; }

private:
    Device* dev_;
    index_t width_, height_, depth_;
    std::vector<float, scratch::Pages<float>> data_;
};

/// 8-bit quantised 3D texture modelling CUDA's *hardware* texture path:
/// storage as uint8 against a fixed [lo, hi] range, dequantised on fetch.
/// The paper rejects this mode — hardware bilinear interpolation works at
/// 8-bit precision, which is insufficient for high-resolution volumes
/// (Sec. 4.3.1) — and the ablation bench quantifies why.  Same geometry
/// semantics as Texture3 (clamp x/y, circular z).
class QuantizedTexture3 {
public:
    /// `lo`/`hi` set the quantisation range (values clamp to it).
    QuantizedTexture3(Device& dev, index_t width, index_t height, index_t depth, float lo,
                      float hi);
    ~QuantizedTexture3();
    QuantizedTexture3(const QuantizedTexture3&) = delete;
    QuantizedTexture3& operator=(const QuantizedTexture3&) = delete;

    index_t width() const { return width_; }
    index_t height() const { return height_; }
    index_t depth() const { return depth_; }

    /// Quantise and upload planes (same contract as Texture3::copy_planes).
    void copy_planes(std::span<const float> src, index_t depth_begin, index_t nplanes);

    /// Dequantised fetch with Texture3's addressing semantics.
    float fetch(index_t x, index_t y, index_t z) const
    {
        x = x < 0 ? 0 : (x >= width_ ? width_ - 1 : x);
        y = y < 0 ? 0 : (y >= height_ ? height_ - 1 : y);
        index_t zz = z % depth_;
        if (zz < 0) zz += depth_;
        const index_t flat = (zz * height_ + y) * width_ + x;
        XCT_CHECK_BOUNDS(flat >= 0 && flat < static_cast<index_t>(data_.size()),
                         "QuantizedTexture3::fetch");
        const unsigned char q = data_[static_cast<std::size_t>(flat)];
        return lo_ + static_cast<float>(q) * (hi_ - lo_) / 255.0f;
    }

private:
    Device* dev_;
    index_t width_, height_, depth_;
    float lo_, hi_;
    std::vector<unsigned char> data_;
};

}  // namespace xct::sim

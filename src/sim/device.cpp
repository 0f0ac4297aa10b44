#include "sim/device.hpp"

#include <algorithm>
#include <cassert>

#include "core/names.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/flight.hpp"

namespace xct::sim {

namespace {
constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;

/// Mirror a transfer into the process telemetry: byte/transfer counters,
/// plus a flight span (named `dir`) whose duration is the *modelled* link
/// time, placed at the wall-clock instant of the call — the trace shows
/// T_H2D/T_D2H where they occur in the pipeline.
void telemetry_transfer(const char* dir, std::size_t bytes, double seconds)
{
    auto& reg = telemetry::registry();
    reg.counter(std::string(names::kMetricSimPrefix) + dir + ".bytes").add(bytes);
    reg.counter(std::string(names::kMetricSimPrefix) + dir + ".transfers").add(1);
    const double now = telemetry::flight::wall_now();
    telemetry::flight::record(names::kCatSim, dir, now, now + seconds, -1, bytes);
}
}

Device::Device(std::size_t capacity_bytes, double h2d_gbps, double d2h_gbps)
    : capacity_(capacity_bytes), h2d_gbps_(h2d_gbps), d2h_gbps_(d2h_gbps)
{
    require(capacity_bytes > 0, "Device: capacity must be positive");
    require(h2d_gbps > 0.0 && d2h_gbps > 0.0, "Device: bandwidths must be positive");
}

void Device::reset_stats()
{
    h2d_ = LinkStats{};
    d2h_ = LinkStats{};
}

void Device::allocate(std::size_t bytes)
{
    if (bytes > available()) throw DeviceOutOfMemory(bytes, available());
    used_ += bytes;
}

void Device::release(std::size_t bytes) noexcept
{
    assert(bytes <= used_);
    used_ -= std::min(bytes, used_);
}

void Device::account_h2d(std::size_t bytes)
{
    const double seconds = static_cast<double>(bytes) / (h2d_gbps_ * kGiB);
    h2d_.bytes += bytes;
    h2d_.transfers += 1;
    h2d_.seconds += seconds;
    telemetry_transfer(names::kSpanH2d, bytes, seconds);
}

void Device::account_d2h(std::size_t bytes)
{
    const double seconds = static_cast<double>(bytes) / (d2h_gbps_ * kGiB);
    d2h_.bytes += bytes;
    d2h_.transfers += 1;
    d2h_.seconds += seconds;
    telemetry_transfer(names::kSpanD2h, bytes, seconds);
}

DeviceBuffer::DeviceBuffer(Device& dev, index_t count) : dev_(&dev)
{
    require(count > 0, "DeviceBuffer: count must be positive");
    dev_->allocate(static_cast<std::size_t>(count) * sizeof(float));
    data_ = scratch::filled(static_cast<std::size_t>(count), 0.0f);
}

DeviceBuffer::~DeviceBuffer()
{
    if (dev_ != nullptr) dev_->release(data_.size() * sizeof(float));
}

DeviceBuffer::DeviceBuffer(DeviceBuffer&& o) noexcept : dev_(o.dev_), data_(std::move(o.data_))
{
    o.dev_ = nullptr;
}

void DeviceBuffer::upload(std::span<const float> src, index_t offset)
{
    require(offset >= 0 && offset + static_cast<index_t>(src.size()) <= count(),
            "DeviceBuffer::upload: range out of bounds");
    // Producer-side digest of the host payload, once — retries re-copy
    // from the same (intact) source, so the expectation is stable.
    const integrity::digest_t src_digest =
        integrity::enabled() ? integrity::checksum_of<float>(src) : 0;
    const auto dst = std::span<float>(data_).subspan(static_cast<std::size_t>(offset), src.size());
    dev_->transfer(names::kSiteSimH2d, [&] {
        std::copy(src.begin(), src.end(), dst.begin());
        faults::corrupt(names::kSiteSimH2d, std::as_writable_bytes(dst));
        integrity::verify_of<float>(names::kSiteSimH2d, dst, src_digest);
    });
    dev_->account_h2d(src.size() * sizeof(float));
}

void DeviceBuffer::download(std::span<float> dst, index_t offset) const
{
    require(offset >= 0 && offset + static_cast<index_t>(dst.size()) <= count(),
            "DeviceBuffer::download: range out of bounds");
    const auto src = std::span<const float>(data_).subspan(static_cast<std::size_t>(offset),
                                                           dst.size());
    const integrity::digest_t src_digest =
        integrity::enabled() ? integrity::checksum_of<float>(src) : 0;
    dev_->transfer(names::kSiteSimD2h, [&] {
        std::copy(src.begin(), src.end(), dst.begin());
        faults::corrupt(names::kSiteSimD2h, std::as_writable_bytes(dst));
        integrity::verify_of<float>(names::kSiteSimD2h, std::span<const float>(dst), src_digest);
    });
    dev_->account_d2h(dst.size() * sizeof(float));
}

void DeviceBuffer::fill(float v)
{
    std::fill(data_.begin(), data_.end(), v);
}

Texture3::Texture3(Device& dev, index_t width, index_t height, index_t depth)
    : dev_(&dev), width_(width), height_(height), depth_(depth)
{
    require(width > 0 && height > 0 && depth > 0, "Texture3: extents must be positive");
    dev_->allocate(static_cast<std::size_t>(width * height * depth) * sizeof(float));
    data_ = scratch::filled(static_cast<std::size_t>(width * height * depth), 0.0f);
}

Texture3::~Texture3()
{
    if (dev_ != nullptr) dev_->release(data_.size() * sizeof(float));
}

Texture3::Texture3(Texture3&& o) noexcept
    : dev_(o.dev_), width_(o.width_), height_(o.height_), depth_(o.depth_), data_(std::move(o.data_))
{
    o.dev_ = nullptr;
}

void Texture3::copy_planes(std::span<const float> src, index_t depth_begin, index_t nplanes)
{
    copy_planes_wire(src, depth_begin, nplanes, src.size() * sizeof(float));
}

void Texture3::copy_planes_wire(std::span<const float> src, index_t depth_begin, index_t nplanes,
                                std::size_t wire_bytes)
{
    const index_t plane = width_ * height_;
    require(nplanes > 0 && depth_begin >= 0 && depth_begin + nplanes <= depth_,
            "Texture3::copy_planes: depth range out of bounds (wrapped copies must be split)");
    require(static_cast<index_t>(src.size()) == nplanes * plane,
            "Texture3::copy_planes: source size mismatch");
    const integrity::digest_t src_digest =
        integrity::enabled() ? integrity::checksum_of<float>(src) : 0;
    const auto dst =
        std::span<float>(data_).subspan(static_cast<std::size_t>(depth_begin * plane), src.size());
    dev_->transfer(names::kSiteSimH2d, [&] {
        std::copy(src.begin(), src.end(), dst.begin());
        faults::corrupt(names::kSiteSimH2d, std::as_writable_bytes(dst));
        integrity::verify_of<float>(names::kSiteSimH2d, dst, src_digest);
    });
    dev_->account_h2d(wire_bytes);
}

QuantizedTexture3::QuantizedTexture3(Device& dev, index_t width, index_t height, index_t depth,
                                     float lo, float hi)
    : dev_(&dev), width_(width), height_(height), depth_(depth), lo_(lo), hi_(hi)
{
    require(width > 0 && height > 0 && depth > 0, "QuantizedTexture3: extents must be positive");
    require(hi > lo, "QuantizedTexture3: empty quantisation range");
    dev_->allocate(static_cast<std::size_t>(width * height * depth));  // 1 byte per texel
    data_.resize(static_cast<std::size_t>(width * height * depth), 0);
}

QuantizedTexture3::~QuantizedTexture3()
{
    if (dev_ != nullptr) dev_->release(data_.size());
}

void QuantizedTexture3::copy_planes(std::span<const float> src, index_t depth_begin,
                                    index_t nplanes)
{
    const index_t plane = width_ * height_;
    require(nplanes > 0 && depth_begin >= 0 && depth_begin + nplanes <= depth_,
            "QuantizedTexture3::copy_planes: depth range out of bounds");
    require(static_cast<index_t>(src.size()) == nplanes * plane,
            "QuantizedTexture3::copy_planes: source size mismatch");
    dev_->transfer(names::kSiteSimH2d, [&] {
        const float scale = 255.0f / (hi_ - lo_);
        for (std::size_t i = 0; i < src.size(); ++i) {
            float t = (src[i] - lo_) * scale;
            t = t < 0.0f ? 0.0f : (t > 255.0f ? 255.0f : t);
            data_[static_cast<std::size_t>(depth_begin * plane) + i] =
                static_cast<unsigned char>(t + 0.5f);
        }
        // The stored payload is quantised, so the host fp32 digest cannot
        // apply; digest the texels as written, then run the corruption
        // point — transit-only coverage, like partial PFS reads.
        const auto dst = std::span<unsigned char>(data_).subspan(
            static_cast<std::size_t>(depth_begin * plane), src.size());
        const integrity::digest_t texel_digest =
            integrity::enabled() ? integrity::checksum_of<unsigned char>(dst) : 0;
        faults::corrupt(names::kSiteSimH2d, std::as_writable_bytes(dst));
        integrity::verify_of<unsigned char>(names::kSiteSimH2d, dst, texel_digest);
    });
    dev_->account_h2d(src.size() * sizeof(float));  // host payload is still fp32
}

}  // namespace xct::sim

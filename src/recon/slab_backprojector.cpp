#include "recon/slab_backprojector.hpp"

#include <algorithm>

#include "core/names.hpp"

namespace xct::recon {

namespace {
backproj::MatrixPack share_pack(const CbctGeometry& g, Range views)
{
    const std::vector<Mat34> all = projection_matrices(g);
    return backproj::MatrixPack(
        std::span<const Mat34>(all.data() + views.lo, static_cast<std::size_t>(views.length())));
}
}

SlabBackprojector::SlabBackprojector(const Config& cfg, index_t h, index_t origin,
                                     index_t max_slab)
    : cfg_(cfg), origin_(origin),
      device_(cfg.device_capacity, cfg.h2d_gbps, cfg.d2h_gbps),
      tex_(device_, cfg.geometry.nu, cfg.views.length(), h),
      slab_dev_(device_, cfg.geometry.vol.x * cfg.geometry.vol.y * max_slab),
      pack_(share_pack(cfg.geometry, cfg.views))
{
    device_.set_retry(cfg.retry);
}

namespace {
index_t max_rows(const std::vector<SlabPlan>& plans)
{
    index_t h = 1;
    for (const auto& p : plans) h = std::max(h, p.rows.length());
    return h;
}
index_t max_slab(const std::vector<SlabPlan>& plans)
{
    index_t m = 1;
    for (const auto& p : plans) m = std::max(m, p.slab.length());
    return m;
}
}

SlabBackprojector::SlabBackprojector(const Config& cfg, const std::vector<SlabPlan>& plans)
    : SlabBackprojector(cfg, max_rows(plans), plans.front().rows.lo, max_slab(plans))
{
}

SlabBackprojector::StagedBand SlabBackprojector::staging_for(index_t views, index_t cols,
                                                             Range rows, Planes storage) const
{
    require(views == tex_.height() && cols == tex_.width() && rows.length() <= tex_.depth(),
            "SlabBackprojector::stage_band: band does not fit the texture");
    StagedBand staged;
    staged.planes = std::move(storage);
    const std::size_t n = static_cast<std::size_t>(rows.length() * views * cols);
    if (staged.planes.capacity() < n) {
        // Grow from empty: nothing old is copied, nothing new is filled.
        scratch::note_heap_event();
        staged.planes.clear();
    }
    staged.planes.resize(n);
    const index_t h = tex_.depth();
    for (index_t v = rows.lo; v < rows.hi;) {
        index_t depth = (v - origin_) % h;
        if (depth < 0) depth += h;
        const index_t run = std::min(rows.hi - v, h - depth);
        staged.segments.push_back(StagedBand::Segment{depth, run});
        v += run;
    }
    return staged;
}

SlabBackprojector::StagedBand SlabBackprojector::stage_band(const ProjectionStack& band,
                                                            Planes storage) const
{
    const index_t views = band.views();
    const index_t nu = band.cols();
    StagedBand staged = staging_for(views, nu, band.band(), std::move(storage));
    for (index_t r = 0; r < band.rows(); ++r)
        for (index_t s = 0; s < views; ++s) {
            const auto row = band.row(s, band.row_begin() + r);
            std::copy(row.begin(), row.end(),
                      staged.planes.begin() + static_cast<std::ptrdiff_t>((r * views + s) * nu));
        }
    return staged;
}

SlabBackprojector::StagedBand SlabBackprojector::stage_band(const io::EncodedBand& e,
                                                            Planes storage) const
{
    StagedBand staged = staging_for(e.views, e.cols, e.band, std::move(storage));
    // A transit bit-flip surfaces as IntegrityError (a TransientError);
    // the source EncodedBand is intact, so a retried decode recovers.
    auto attempt = [&] { io::decode_band_into(e, staged.planes, io::RowOrder::Upload); };
    if (cfg_.retry)
        faults::with_retry(names::kSiteBandDecode, *cfg_.retry, attempt);
    else
        attempt();
    staged.wire_bytes = e.wire_bytes();
    return staged;
}

void SlabBackprojector::commit_band(const StagedBand& staged)
{
    const index_t plane = tex_.width() * tex_.height();
    const std::size_t total = staged.planes.size();
    std::size_t covered = 0;
    for (const StagedBand::Segment& seg : staged.segments)
        covered += static_cast<std::size_t>(seg.nplanes * plane);
    require(covered == total, "SlabBackprojector::commit_band: segments do not cover the planes");
    std::size_t off = 0;
    for (const StagedBand::Segment& seg : staged.segments) {
        const std::size_t n = static_cast<std::size_t>(seg.nplanes * plane);
        const auto src = std::span<const float>(staged.planes.data() + off, n);
        if (staged.wire_bytes == 0) {
            tex_.copy_planes(src, seg.depth, seg.nplanes);
        } else {
            // Bill each segment its proportional share of the wire bytes;
            // prefix differencing makes the shares sum exactly.
            const std::size_t w0 = staged.wire_bytes * off / total;
            const std::size_t w1 = staged.wire_bytes * (off + n) / total;
            tex_.copy_planes_wire(src, seg.depth, seg.nplanes, w1 - w0);
        }
        off += n;
    }
}

Volume SlabBackprojector::backproject(const SlabPlan& plan)
{
    Volume slab(Dim3{cfg_.geometry.vol.x, cfg_.geometry.vol.y, plan.slab.length()});
    backproj::backproject_streaming(tex_, pack_, slab,
                                    backproj::StreamOffsets{plan.slab.lo, origin_},
                                    cfg_.geometry.nu, cfg_.geometry.nv);
    // Model the sub-volume device->host move (the kernel conceptually
    // filled slab_dev_; Table 5's T_D2H).
    device_.account_d2h(static_cast<std::size_t>(slab.count()) * sizeof(float));
    return slab;
}

}  // namespace xct::recon

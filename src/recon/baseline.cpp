#include "recon/baseline.hpp"

#include <algorithm>

#include "backproj/kernel.hpp"
#include "core/decompose.hpp"

namespace xct::recon {
namespace {

/// Upload full detector frames of `views` into a texture shaped for the
/// streaming kernel (x = u, y = view, z = row).
sim::Texture3 upload_frames(sim::Device& dev, const ProjectionStack& p, Range views,
                            const CbctGeometry& g)
{
    sim::Texture3 tex(dev, g.nu, views.length(), g.nv);
    std::vector<float> plane(static_cast<std::size_t>(g.nu * views.length()));
    for (index_t v = 0; v < g.nv; ++v) {
        for (index_t s = views.lo; s < views.hi; ++s) {
            const auto row = p.row(s, v);
            std::copy(row.begin(), row.end(),
                      plane.begin() + static_cast<std::ptrdiff_t>((s - views.lo) * g.nu));
        }
        tex.copy_planes(plane, v, 1);
    }
    return tex;
}

}  // namespace

BaselineStats backproject_ifdk_style(const ProjectionStack& filtered, std::span<const Mat34> mats,
                                     const CbctGeometry& g, Volume& out, index_t nr,
                                     std::size_t device_capacity)
{
    require(static_cast<index_t>(mats.size()) == filtered.views(),
            "backproject_ifdk_style: one matrix per view required");
    require(filtered.rows() == g.nv && filtered.row_begin() == 0,
            "backproject_ifdk_style: full frames required (no Nv split in iFDK)");
    require(nr > 0 && nr <= g.num_proj, "backproject_ifdk_style: bad rank count");
    require(out.size() == g.vol, "backproject_ifdk_style: volume size mismatch");

    BaselineStats stats;
    out.fill(0.0f);
    for (index_t r = 0; r < nr; ++r) {
        sim::Device dev(device_capacity);
        const Range views = split_even(g.num_proj, nr, r);
        // Defining constraint: the FULL volume is resident on each device.
        sim::DeviceBuffer vol_dev(dev, out.count());
        const sim::Texture3 tex = upload_frames(dev, filtered, views, g);
        stats.device_peak = std::max(stats.device_peak, static_cast<std::uint64_t>(dev.used()));

        Volume partial(g.vol);
        backproj::backproject_streaming(
            tex,
            backproj::MatrixPack(mats.subspan(static_cast<std::size_t>(views.lo),
                                              static_cast<std::size_t>(views.length()))),
            partial, backproj::StreamOffsets{0, 0}, g.nu, g.nv);
        dev.account_d2h(static_cast<std::size_t>(partial.count()) * sizeof(float));

        // Combining partial volumes: in iFDK this is an MPI gather/reduce
        // of FULL volumes — O(N) traffic.
        for (index_t i = 0; i < out.count(); ++i)
            out.span()[static_cast<std::size_t>(i)] += partial.span()[static_cast<std::size_t>(i)];
        stats.comm_bytes += static_cast<std::uint64_t>(partial.count()) * sizeof(float);
        stats.h2d_bytes += dev.h2d_stats().bytes;
    }
    stats.redundancy = 1;  // projections move once, but only because Nv is never split
    return stats;
}

BaselineStats backproject_lu_style(const ProjectionStack& filtered, std::span<const Mat34> mats,
                                   const CbctGeometry& g, Volume& out, index_t chunk_slices,
                                   std::size_t device_capacity, index_t batch_views)
{
    require(static_cast<index_t>(mats.size()) == filtered.views(),
            "backproject_lu_style: one matrix per view required");
    require(filtered.rows() == g.nv && filtered.row_begin() == 0,
            "backproject_lu_style: full frames required (no Nv split in Lu et al.)");
    require(chunk_slices > 0, "backproject_lu_style: chunk_slices must be positive");
    require(out.size() == g.vol, "backproject_lu_style: volume size mismatch");
    if (batch_views <= 0) batch_views = g.num_proj;

    BaselineStats stats;
    sim::Device dev(device_capacity);
    index_t chunks = 0;
    for (index_t k0 = 0; k0 < g.vol.z; k0 += chunk_slices) {
        const index_t len = std::min(chunk_slices, g.vol.z - k0);
        sim::DeviceBuffer chunk_dev(dev, g.vol.x * g.vol.y * len);
        Volume chunk(Dim3{g.vol.x, g.vol.y, len});
        // Every chunk re-uploads the complete projection set (in view
        // batches of full frames) — the redundancy the paper's streaming
        // scheme eliminates.
        for (index_t s0 = 0; s0 < g.num_proj; s0 += batch_views) {
            const Range views{s0, std::min(s0 + batch_views, g.num_proj)};
            const sim::Texture3 tex = upload_frames(dev, filtered, views, g);
            stats.device_peak = std::max(stats.device_peak, static_cast<std::uint64_t>(dev.used()));
            backproj::backproject_streaming(
                tex,
                backproj::MatrixPack(mats.subspan(static_cast<std::size_t>(views.lo),
                                                  static_cast<std::size_t>(views.length()))),
                chunk, backproj::StreamOffsets{k0, 0}, g.nu, g.nv);
        }
        dev.account_d2h(static_cast<std::size_t>(chunk.count()) * sizeof(float));
        for (index_t k = 0; k < len; ++k) {
            const auto src = chunk.slice(k);
            const auto dst = out.slice(k0 + k);
            std::copy(src.begin(), src.end(), dst.begin());
        }
        ++chunks;
    }
    stats.h2d_bytes = dev.h2d_stats().bytes;
    stats.redundancy = chunks;
    return stats;
}

}  // namespace xct::recon

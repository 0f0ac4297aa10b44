// Ablation: interpolation precision (Sec. 4.3.1).
//
// CUDA's hardware texture unit interpolates at 8-bit precision; the paper
// deliberately pays for *manual single-precision* bilinear interpolation
// instead ("to maintain the required high resolution of generated
// volumes").  This bench quantifies that choice: the same reconstruction
// through an fp32 texture vs an 8-bit quantised texture, scored against
// the analytic phantom.

#include <cstdio>

#include "bench_common.hpp"
#include "backproj/kernel.hpp"
#include "filter/ramp.hpp"
#include "recon/fdk.hpp"
#include "recon/quality.hpp"

int main()
{
    using namespace xct;
    bench::heading("Ablation: fp32 vs 8-bit texture interpolation", "Sec. 4.3.1");

    CbctGeometry g;
    g.dso = 100.0;
    g.dsd = 250.0;
    g.num_proj = 96;
    g.nu = 96;
    g.nv = 96;
    g.du = g.dv = 0.5;
    g.vol = {48, 48, 48};
    g.dx = g.dy = g.dz = CbctGeometry::natural_pitch(g.du, g.dsd, g.dso, g.nu, g.vol.x) * 0.7;
    const auto head = phantom::shepp_logan_3d(g.dx * static_cast<double>(g.vol.x) / 2.4);
    const Volume truth = phantom::voxelize(head, g);

    // Filtered projections (identical for both paths).
    ProjectionStack proj = phantom::forward_project(head, g);
    const filter::FilterEngine engine(g);
    engine.apply(proj);
    const auto mats = projection_matrices(g);

    float lo = proj.span()[0], hi = lo;
    for (float v : proj.span()) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }

    auto plane_of = [&](index_t v, std::vector<float>& buf) {
        for (index_t s = 0; s < g.num_proj; ++s) {
            const auto row = proj.row(s, v);
            std::copy(row.begin(), row.end(),
                      buf.begin() + static_cast<std::ptrdiff_t>(s * g.nu));
        }
    };

    Volume fp32(g.vol), q8(g.vol);
    {
        sim::Device dev(1u << 30);
        sim::Texture3 tex(dev, g.nu, g.num_proj, g.nv);
        std::vector<float> buf(static_cast<std::size_t>(g.nu * g.num_proj));
        for (index_t v = 0; v < g.nv; ++v) {
            plane_of(v, buf);
            tex.copy_planes(buf, v, 1);
        }
        backproj::backproject_streaming(tex, backproj::MatrixPack(mats), fp32,
                                        backproj::StreamOffsets{0, 0}, g.nu, g.nv);
    }
    {
        sim::Device dev(1u << 30);
        sim::QuantizedTexture3 tex(dev, g.nu, g.num_proj, g.nv, lo, hi);
        std::vector<float> buf(static_cast<std::size_t>(g.nu * g.num_proj));
        for (index_t v = 0; v < g.nv; ++v) {
            plane_of(v, buf);
            tex.copy_planes(buf, v, 1);
        }
        backproj::backproject_streaming_q8(tex, backproj::MatrixPack(mats), q8,
                                           backproj::StreamOffsets{0, 0}, g.nu, g.nv);
    }

    std::printf("%-22s %-14s %-14s %-14s\n", "interpolation", "flat RMSE", "PSNR [dB]",
                "device bytes/texel");
    std::printf("%-22s %-14.5f %-14.1f %-14d\n", "fp32 (paper, ours)",
                recon::rmse_flat(fp32, truth, 4), recon::psnr(fp32, truth), 4);
    std::printf("%-22s %-14.5f %-14.1f %-14d\n", "8-bit (hardware unit)",
                recon::rmse_flat(q8, truth, 4), recon::psnr(q8, truth), 1);
    std::printf("fp32 vs 8-bit volume PSNR: %.1f dB\n", recon::psnr(q8, fp32));
    bench::note("the 8-bit path quantises the *filtered* projections, whose dynamic range");
    bench::note("is dominated by edge ringing — accuracy drops measurably, which is why the");
    bench::note("paper implements devSubPixel in single precision despite the extra cost.");
    return 0;
}

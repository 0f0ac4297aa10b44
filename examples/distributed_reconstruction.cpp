// Distributed reconstruction: Ng groups x Nr ranks (threads standing in
// for MPI ranks, one simulated GPU each), segmented per-group reduction,
// and the end-to-end pipeline of Fig. 9 on every rank — with the Fig. 10
// overlap timeline rendered for rank 0.
//
//   ./distributed_reconstruction [Ng] [Nr] [volume_size]

#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "core/names.hpp"
#include "io/raw_io.hpp"
#include "pipeline/timeline.hpp"
#include "recon/distributed.hpp"
#include "recon/fdk.hpp"
#include "telemetry/flight.hpp"

int main(int argc, char** argv)
{
    using namespace xct;
    const index_t ng = argc > 1 ? std::atoll(argv[1]) : 2;
    const index_t nr = argc > 2 ? std::atoll(argv[2]) : 2;
    const index_t n = argc > 3 ? std::atoll(argv[3]) : 48;

    CbctGeometry g;
    g.dso = 100.0;
    g.dsd = 250.0;
    g.num_proj = 2 * n;
    g.nu = 2 * n;
    g.nv = 2 * n;
    g.du = g.dv = 0.4;
    g.vol = {n, n, n};
    g.dx = g.dy = g.dz = CbctGeometry::natural_pitch(g.du, g.dsd, g.dso, g.nu, n) * 0.7;

    std::printf("distributed: Ng=%lld groups x Nr=%lld ranks = %lld \"GPUs\", %lld^3 volume\n",
                static_cast<long long>(ng), static_cast<long long>(nr),
                static_cast<long long>(ng * nr), static_cast<long long>(n));

    const auto head = phantom::shepp_logan_3d(g.dx * static_cast<double>(n) / 2.4);
    recon::DistributedConfig cfg;
    cfg.geometry = g;
    cfg.layout = GroupLayout{ng, nr};
    cfg.batches = 4;
    cfg.ranks_per_node = nr > 1 ? 2 : 0;  // hierarchical node-leader reduce

    const auto factory = [&](RankId) { return std::make_unique<recon::PhantomSource>(head, g); };

    const double t0 = telemetry::flight::wall_now();
    const recon::DistributedResult r = recon::reconstruct_distributed(cfg, factory);

    const Volume truth = phantom::voxelize(head, g);
    std::printf("  flat-region RMSE vs phantom: %.4f\n", recon::rmse_flat(r.volume, truth, 4));
    std::printf("  wall %.3f s\n", r.wall_seconds);

    std::printf("\n  per-rank stage busy seconds (group/rank = world layout):\n");
    std::printf("  %-6s %-8s %-8s %-8s %-8s %-8s\n", "rank", "load", "filter", "bp", "mpi",
                "store");
    for (std::size_t i = 0; i < r.ranks.size(); ++i) {
        const auto& s = r.ranks[i];
        std::printf("  %-6zu %-8.3f %-8.3f %-8.3f %-8.3f %-8.3f\n", i, s.t_load, s.t_filter,
                    s.t_bp, s.t_reduce, s.t_store);
    }

    // Fig. 10-style overlap timeline of rank 0, read off the flight rings.
    std::vector<pipeline::StageSpan> chart;
    for (const auto& e : telemetry::flight::snapshot(t0))
        if (e.rank == RankId{0} && std::string_view(e.cat) == names::kCatPipeline)
            chart.push_back({e.name, e.begin - t0, e.end - t0});
    std::printf("\n  rank 0 pipeline timeline ('#' = busy):\n%s",
                pipeline::render(chart, 64).c_str());
    std::printf("  overlap factor: %.2f (1.0 = fully serial; > 1 = stages overlapped)\n",
                r.ranks[0].overlap_factor());

    io::write_pgm_slice("distributed_axial.pgm", r.volume, n / 2, -0.05f, 0.45f);
    std::printf("  wrote distributed_axial.pgm\n");
    return 0;
}

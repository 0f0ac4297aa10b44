// Figure 8: the segmented MPI_Reduce producing a reconstructed slice of
// tomo_00030 (512 x 512 in the paper; scaled here).
//
// A 4-rank group (Nr = 4) back-projects its view shares of the slab
// containing the central slice; the partial sub-volumes are combined with
// one segmented reduction and the reduced slice is written as a PGM —
// plus a numerical check that the reduction reproduces the single-rank
// result, and a measured comparison of segmented-reduce payload vs a
// gather-everything alternative.

#include <cstdio>
#include <numeric>

#include "bench_common.hpp"
#include "io/raw_io.hpp"
#include "minimpi/comm.hpp"
#include "recon/distributed.hpp"
#include "recon/fdk.hpp"
#include "telemetry/flight.hpp"

int main()
{
    using namespace xct;
    bench::heading("Segmented reduction of partial sub-volumes", "Figure 8");

    const io::Dataset ds = io::dataset_by_name("tomo_00030").scaled(4.0).with_volume(128);
    const CbctGeometry& g = ds.geometry;
    const auto head = phantom::shepp_logan_3d(g.dx * static_cast<double>(g.vol.x) / 2.6);
    std::printf("tomo_00030 geometry (1/4 scale): %lld views, %lld^3 output, Nr = 4\n",
                static_cast<long long>(g.num_proj), static_cast<long long>(g.vol.x));

    // Distributed run: one group of four ranks.
    recon::DistributedConfig cfg;
    cfg.geometry = g;
    cfg.layout = GroupLayout{1, 4};
    cfg.batches = 8;
    const auto factory = [&](RankId) { return std::make_unique<recon::PhantomSource>(head, g); };
    const recon::DistributedResult r = recon::reconstruct_distributed(cfg, factory);

    // Single-rank reference.
    recon::PhantomSource src(head, g);
    recon::RankConfig one;
    one.geometry = g;
    const recon::FdkResult ref = recon::reconstruct_fdk(one, src);

    double max_err = 0.0;
    for (index_t i = 0; i < ref.volume.count(); ++i)
        max_err = std::max(max_err, std::abs(static_cast<double>(
                                        r.volume.span()[static_cast<std::size_t>(i)] -
                                        ref.volume.span()[static_cast<std::size_t>(i)])));
    std::printf("reduced vs single-rank max abs diff: %.2e (paper threshold 1e-5)\n", max_err);

    io::write_pgm_slice("fig8_reduced_slice.pgm", r.volume, g.vol.z / 2, -0.05f, 0.45f);
    std::printf("wrote fig8_reduced_slice.pgm (the Fig. 8 slice)\n");

    // Segmented reduce vs gather-to-root payloads, measured with minimpi.
    const index_t slab_elems = g.vol.x * g.vol.y * (g.vol.z / 8);
    std::printf("\ncommunication payload per slab (%lld floats):\n",
                static_cast<long long>(slab_elems));
    std::printf("  segmented reduce (ours): root receives 1 slab; tree depth log2(4) = 2\n");
    std::printf("  gather-based (prior)   : root receives Nr = 4 slabs, then sums serially\n");
    minimpi::run(4, [&](minimpi::Communicator& c) {
        std::vector<float> send(static_cast<std::size_t>(slab_elems), 1.0f);
        std::vector<float> recv(c.rank() == 0 ? send.size() : 0);
        const double t0 = telemetry::flight::wall_now();
        for (int rep = 0; rep < 5; ++rep) c.reduce_sum(send, recv, 0);
        const double t_red = (telemetry::flight::wall_now() - t0) / 5.0;

        std::vector<float> gat(c.rank() == 0 ? send.size() * 4 : 0);
        const double t1 = telemetry::flight::wall_now();
        for (int rep = 0; rep < 5; ++rep) {
            c.gather(send, gat, 0);
            if (c.rank() == 0) {
                // Flat-index multiplication in 64-bit index_t (xct_lint
                // rule `intloop`): an int induction variable here would
                // silently wrap past 2G elements.
                const auto n = static_cast<index_t>(send.size());
                for (index_t i = 0; i < n; ++i) {
                    float s = 0.0f;
                    for (index_t q = 0; q < 4; ++q)
                        s += gat[static_cast<std::size_t>(q * n + i)];
                    recv[static_cast<std::size_t>(i)] = s;
                }
            }
        }
        const double t_gat = (telemetry::flight::wall_now() - t1) / 5.0;
        if (c.rank() == 0) {
            const double slab_mib = static_cast<double>(slab_elems) * sizeof(float) /
                                    (1024.0 * 1024.0);
            std::printf("  payload at root: reduce %.1f MiB vs gather %.1f MiB (%dx)\n", slab_mib,
                        4.0 * slab_mib, 4);
            std::printf("  measured (shared memory, advisory only — the paper's win is the\n"
                        "  O(log N) network tree): reduce %.4f s, gather+sum %.4f s\n",
                        t_red, t_gat);
            // The telemetry byte model over all reps: ceil(log2 Nr) levels
            // for the tree vs Nr-1 full slabs for the gather.
            const minimpi::CollectiveStats cs = c.collective_stats();
            const double mib = 1024.0 * 1024.0;
            std::printf("  accounted root-link volume (%llu reduce / %llu gather calls): "
                        "reduce %.1f MiB vs gather %.1f MiB\n",
                        static_cast<unsigned long long>(cs.reduce_calls),
                        static_cast<unsigned long long>(cs.gather_calls),
                        static_cast<double>(cs.reduce_root_bytes) / mib,
                        static_cast<double>(cs.gather_root_bytes) / mib);
        }
    });
    return 0;
}

// Ablation: the reduction strategy (Sec. 4.4.2).
//
// The paper replaces global collectives with one *segmented* per-group
// reduction and adds a hierarchical node-leader stage.  This bench
// measures, with real minimpi ranks:
//   * segmented (per-group) vs global reduction payloads,
//   * flat vs hierarchical reduce at several group widths,
//   * the modelled tree-latency growth (the O(log Nr) claim of Table 2).

#include <cstdio>

#include "bench_common.hpp"
#include "minimpi/comm.hpp"
#include "perfmodel/model.hpp"
#include "telemetry/flight.hpp"

int main()
{
    using namespace xct;
    bench::heading("Ablation: segmented / hierarchical reduction", "Sec. 4.4.2, Table 2");

    const std::size_t elems = 1 << 17;  // one 512x512 half-slab of floats
    std::printf("payload: %.1f MiB per rank\n",
                static_cast<double>(elems * sizeof(float)) / (1024.0 * 1024.0));

    // Flat vs hierarchical at growing group widths (measured).
    std::printf("\n%-8s %-18s %-22s\n", "Nr", "flat reduce [ms]", "hierarchical (2/node) [ms]");
    for (index_t nr : {2, 4, 8, 16}) {
        double t_flat = 0.0, t_hier = 0.0;
        minimpi::run(nr, [&](minimpi::Communicator& c) {
            std::vector<float> send(elems, 1.0f);
            std::vector<float> recv(c.rank() == 0 ? elems : 0);
            constexpr int reps = 10;
            c.barrier();
            double t0 = telemetry::flight::wall_now();
            for (int i = 0; i < reps; ++i) c.reduce_sum(send, recv, 0);
            if (c.rank() == 0) t_flat = (telemetry::flight::wall_now() - t0) / reps * 1e3;
            c.barrier();
            t0 = telemetry::flight::wall_now();
            for (int i = 0; i < reps; ++i) c.reduce_sum_hierarchical(send, recv, 0, 2);
            if (c.rank() == 0) t_hier = (telemetry::flight::wall_now() - t0) / reps * 1e3;
        });
        std::printf("%-8lld %-18.3f %-22.3f\n", static_cast<long long>(nr), t_flat, t_hier);
    }
    bench::note("in shared memory the two are close; on a network the hierarchical variant");
    bench::note("halves inter-node messages (the paper's motivation for node leaders).");

    // Segmented vs global: two groups reducing independently vs one global
    // reduction of everything (measured).
    std::printf("\nsegmented (2 groups of 4) vs global (8 ranks) reduction of the same data:\n");
    {
        double t_seg = 0.0, t_glob = 0.0;
        minimpi::run(8, [&](minimpi::Communicator& world) {
            std::vector<float> send(elems, 1.0f);
            minimpi::Communicator group = world.split(world.rank() / 4, world.rank());
            std::vector<float> recv(group.rank() == 0 ? elems : 0);
            constexpr int reps = 10;
            world.barrier();
            double t0 = telemetry::flight::wall_now();
            for (int i = 0; i < reps; ++i) group.reduce_sum(send, recv, 0);  // segmented
            world.barrier();
            if (world.rank() == 0) t_seg = (telemetry::flight::wall_now() - t0) / reps * 1e3;

            std::vector<float> grecv(world.rank() == 0 ? elems : 0);
            t0 = telemetry::flight::wall_now();
            for (int i = 0; i < reps; ++i) world.reduce_sum(send, grecv, 0);  // global
            world.barrier();
            if (world.rank() == 0) t_glob = (telemetry::flight::wall_now() - t0) / reps * 1e3;
        });
        std::printf("  segmented %.3f ms  vs  global %.3f ms (%.2fx)\n", t_seg, t_glob,
                    t_glob / t_seg);
    }
    bench::note("segmented groups sum 4 contributions each, concurrently; the global");
    bench::note("collective serialises 8 at one root — and at scale would also congest");
    bench::note("the network, which is why Table 2 credits ours with O(log N).");

    // Modelled tree latency (what enters Eq. 17).
    std::printf("\nmodelled reduce time per slab vs Nr (tomo_00029 -> 2048^3, Eq. 17 input):\n");
    std::printf("%-8s %-14s\n", "Nr", "t_reduce [ms]");
    const perfmodel::MachineParams m = perfmodel::MachineParams::abci_v100();
    for (index_t nr : {1, 2, 4, 8, 16, 32}) {
        perfmodel::RunConfig rc;
        rc.geometry = io::dataset_by_name("tomo_00029").with_volume(2048).geometry;
        rc.layout = GroupLayout{1, nr};
        rc.batches = 8;
        const auto bt = perfmodel::batch_times(rc, m);
        std::printf("%-8lld %-14.1f\n", static_cast<long long>(nr), bt[1].reduce * 1e3);
    }
    bench::note("logarithmic growth: doubling Nr adds one tree hop, not one payload.");
    return 0;
}

#include "perfmodel/model.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>

#include "backproj/kernel.hpp"
#include "filter/ramp.hpp"
#include "sim/device.hpp"

namespace xct::perfmodel {

namespace {
constexpr double kEta = sizeof(float);  // Sec. 5: eta = sizeof(float)
constexpr double kGB = 1e9;

double ceil_log2(index_t n)
{
    double l = 0.0;
    index_t p = 1;
    while (p < n) {
        p <<= 1;
        l += 1.0;
    }
    return l;
}

/// Seconds per call of a calibration probe: the median of three timed calls
/// after one untimed call (worker pool start, cold pools, first-touch pages).
template <typename Probe>
double warm_median_seconds(Probe&& probe)
{
    using clock = std::chrono::steady_clock;
    probe();
    std::array<double, 3> dt{};
    for (double& d : dt) {
        const auto t0 = clock::now();
        probe();
        d = std::chrono::duration<double>(clock::now() - t0).count();
    }
    std::ranges::sort(dt);
    return dt[1];
}
}  // namespace

MachineParams MachineParams::abci_v100()
{
    // Calibrated against Table 5 (V100 rows) and the Sec. 5 description:
    // NVMe-class local load, 28.5 GB/s aggregate PFS store, PCIe 3.0 x16.
    MachineParams m;
    m.bw_load_gbps = 2.0;
    m.bw_store_gbps = 28.5;
    m.th_flt_geps = 0.26;
    m.th_bp_gups = 120.0;
    m.th_reduce_gbps = 5.0;
    m.bw_h2d_gbps = 5.0;
    m.bw_d2h_gbps = 5.5;
    return m;
}

MachineParams MachineParams::abci_a100()
{
    MachineParams m = abci_v100();
    m.th_bp_gups = 155.0;  // Table 5 A100 rows
    m.bw_h2d_gbps = 8.0;   // PCIe 4 / SMX4 host link
    m.bw_d2h_gbps = 9.0;
    return m;
}

std::vector<BatchTimes> batch_times(const RunConfig& cfg, const MachineParams& m)
{
    cfg.geometry.validate();
    const CbctGeometry& g = cfg.geometry;
    const GroupLayout& L = cfg.layout;
    require(cfg.batches > 0, "batch_times: batches must be positive");
    require(L.num_groups > 0 && L.ranks_per_group > 0, "batch_times: layout must be positive");
    require(cfg.eta_h2d > 0.0, "batch_times: eta_h2d must be positive");

    // Representative rank: rank 0 (group 0 root — it also stores).
    const index_t views = L.views_of_rank(RankId{0}, g.num_proj).length();
    const Range slices = L.slices_of_group(GroupId{0}, g.vol.z);
    const index_t nb = (slices.length() + cfg.batches - 1) / cfg.batches;
    const auto plans = plan_slabs(g, slices, nb);

    // The aggregate PFS bandwidth is shared by the Ng storing roots.
    const double store_bw = m.bw_store_gbps * kGB / static_cast<double>(L.num_groups);
    const double reduce_hops = ceil_log2(L.ranks_per_group);  // O(log Nr) tree

    std::vector<BatchTimes> out;
    out.reserve(plans.size());
    for (std::size_t i = 0; i < plans.size(); ++i) {
        const SlabPlan& p = plans[i];
        const double in_elems = static_cast<double>(g.nu) * static_cast<double>(views) *
                                static_cast<double>(i == 0 ? p.rows.length() : p.delta.length());
        const double vol_elems = static_cast<double>(g.vol.x) * static_cast<double>(g.vol.y) *
                                 static_cast<double>(p.slab.length());
        BatchTimes t;
        t.load = kEta * in_elems / (m.bw_load_gbps * kGB);             // Eq. 13
        t.filter = in_elems / (m.th_flt_geps * kGB);
        t.h2d = cfg.eta_h2d * in_elems / (m.bw_h2d_gbps * kGB);
        t.bp = vol_elems * static_cast<double>(views) / (m.th_bp_gups * kGB);  // Eq. 14
        t.d2h = kEta * vol_elems / (m.bw_d2h_gbps * kGB);              // Eq. 15 applied
        t.reduce = reduce_hops * kEta * vol_elems / (m.th_reduce_gbps * kGB);
        t.store = kEta * vol_elems / store_bw;
        out.push_back(t);
    }
    return out;
}

namespace {

Projection aggregate(const RunConfig& cfg, std::vector<BatchTimes> batches, double runtime)
{
    Projection p;
    p.batches = std::move(batches);
    p.runtime = runtime;
    for (const BatchTimes& t : p.batches) {
        p.t_load += t.load;
        p.t_filter += t.filter;
        p.t_h2d += t.h2d;
        p.t_bp += t.bp;
        p.t_d2h += t.d2h;
        p.t_reduce += t.reduce;
        p.t_store += t.store;
    }
    const CbctGeometry& g = cfg.geometry;
    p.gups = static_cast<double>(g.vol.count()) * static_cast<double>(g.num_proj) /
             (runtime * 1e9);
    return p;
}

}  // namespace

Projection project(const RunConfig& cfg, const MachineParams& m)
{
    auto bt = batch_times(cfg, m);
    // Eq. 17: batch 0 serialises; the rest overlap perfectly, so the tail
    // costs the max over the four pipelined streams' sums.
    const BatchTimes& b0 = bt.front();
    double runtime = b0.cpu() + b0.gpu() + b0.reduce + b0.store;
    double cpu = 0.0, gpu = 0.0, red = 0.0, sto = 0.0;
    for (std::size_t i = 1; i < bt.size(); ++i) {
        cpu += bt[i].cpu();
        gpu += bt[i].gpu();
        red += bt[i].reduce;
        sto += bt[i].store;
    }
    runtime += std::max(std::max(cpu, gpu), std::max(red, sto));
    return aggregate(cfg, std::move(bt), runtime);
}

namespace {

/// Per-(batch, stage) extra service time injected by simulate_faulted.
using StageDelays = std::vector<std::array<double, 5>>;

/// Pipeline recurrence with bounded queues.  Returns finish[stage][item].
std::vector<std::array<double, 5>> schedule(const std::vector<BatchTimes>& bt,
                                            index_t queue_capacity,
                                            const StageDelays* delays = nullptr)
{
    const std::size_t n = bt.size();
    const auto service = [&](std::size_t s, std::size_t i) -> double {
        const BatchTimes& t = bt[i];
        const double extra = delays != nullptr ? (*delays)[i][s] : 0.0;
        switch (s) {
            case 0: return t.load + extra;
            case 1: return t.filter + extra;
            case 2: return t.h2d + t.bp + t.d2h + extra;  // the BP thread owns transfers
            case 3: return t.reduce + extra;
            default: return t.store + extra;
        }
    };
    std::vector<std::array<double, 5>> start(n), finish(n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t s = 0; s < 5; ++s) {
            double t0 = 0.0;
            if (i > 0) t0 = std::max(t0, finish[i - 1][s]);       // stage busy
            if (s > 0) t0 = std::max(t0, finish[i][s - 1]);       // upstream data
            if (s < 4 && static_cast<index_t>(i) >= queue_capacity)
                t0 = std::max(t0, start[i - static_cast<std::size_t>(queue_capacity)][s + 1]);
            start[i][s] = t0;
            finish[i][s] = t0 + service(s, i);
        }
    return finish;
}

}  // namespace

Projection simulate(const RunConfig& cfg, const MachineParams& m, index_t queue_capacity)
{
    require(queue_capacity > 0, "simulate: queue capacity must be positive");
    auto bt = batch_times(cfg, m);
    const auto finish = schedule(bt, queue_capacity);
    const double runtime = finish.back()[4];
    return aggregate(cfg, std::move(bt), runtime);
}

Projection simulate_faulted(const RunConfig& cfg, const MachineParams& m,
                            const std::vector<SimFault>& events, index_t queue_capacity)
{
    require(queue_capacity > 0, "simulate_faulted: queue capacity must be positive");
    auto bt = batch_times(cfg, m);
    StageDelays delays(bt.size(), std::array<double, 5>{});
    for (const SimFault& f : events) {
        require(f.stage >= 0 && f.stage < 5, "simulate_faulted: stage must be in [0, 5)");
        require(f.delay_s >= 0.0, "simulate_faulted: delay must be non-negative");
        const std::size_t b = static_cast<std::size_t>(
            std::clamp<index_t>(f.batch, 0, static_cast<index_t>(bt.size()) - 1));
        delays[b][static_cast<std::size_t>(f.stage)] += f.delay_s;
    }
    const auto finish = schedule(bt, queue_capacity, &delays);
    const double runtime = finish.back()[4];
    return aggregate(cfg, std::move(bt), runtime);
}

double tail_latency_bound(const RunConfig& cfg, const MachineParams& m, double fault_delay_s,
                          double slack, index_t queue_capacity)
{
    require(fault_delay_s >= 0.0, "tail_latency_bound: fault delay must be non-negative");
    require(slack >= 1.0, "tail_latency_bound: slack must be >= 1");
    return simulate(cfg, m, queue_capacity).runtime * slack + fault_delay_s;
}

std::vector<SimSpan> simulate_spans(const RunConfig& cfg, const MachineParams& m,
                                    index_t queue_capacity)
{
    require(queue_capacity > 0, "simulate_spans: queue capacity must be positive");
    const auto bt = batch_times(cfg, m);
    const auto finish = schedule(bt, queue_capacity);
    static const char* names[5] = {"load", "filter", "bp", "mpi", "store"};
    std::vector<SimSpan> spans;
    for (std::size_t i = 0; i < bt.size(); ++i)
        for (std::size_t s = 0; s < 5; ++s) {
            const double dur = [&] {
                switch (s) {
                    case 0: return bt[i].load;
                    case 1: return bt[i].filter;
                    case 2: return bt[i].h2d + bt[i].bp + bt[i].d2h;
                    case 3: return bt[i].reduce;
                    default: return bt[i].store;
                }
            }();
            spans.push_back(SimSpan{names[s], static_cast<index_t>(i), finish[i][s] - dur,
                                    finish[i][s]});
        }
    return spans;
}

MachineParams measure_local(const MachineParams& base)
{
    MachineParams m = base;

    // Back-projection throughput: time the streaming kernel on a small
    // problem (updates/s).
    {
        CbctGeometry g;
        g.dso = 100.0;
        g.dsd = 250.0;
        g.num_proj = 32;
        g.nu = 64;
        g.nv = 64;
        g.du = g.dv = 0.4;
        g.vol = {48, 48, 16};
        g.dx = g.dy = g.dz = CbctGeometry::natural_pitch(g.du, g.dsd, g.dso, g.nu, g.vol.x);
        const auto mats = projection_matrices(g);
        sim::Device dev(64u << 20);
        sim::Texture3 tex(dev, g.nu, g.num_proj, g.nv);
        std::vector<float> plane(static_cast<std::size_t>(g.nu * g.num_proj), 0.5f);
        for (index_t v = 0; v < g.nv; ++v) tex.copy_planes(plane, v, 1);
        Volume slab(g.vol);
        const backproj::MatrixPack pack(mats);
        const double dt = warm_median_seconds([&] {
            backproj::backproject_streaming(tex, pack, slab, backproj::StreamOffsets{0, 0}, g.nu,
                                            g.nv);
        });
        const double updates = static_cast<double>(g.vol.count()) * static_cast<double>(g.num_proj);
        m.th_bp_gups = updates / dt / 1e9;
    }

    // Filtering throughput (elements/s).
    {
        CbctGeometry g;
        g.dso = 100.0;
        g.dsd = 250.0;
        g.num_proj = 64;
        g.nu = 512;
        g.nv = 64;
        g.du = g.dv = 0.2;
        g.vol = {64, 64, 64};
        g.dx = g.dy = g.dz = 0.1;
        const filter::FilterEngine eng(g);
        ProjectionStack stack(8, g.nv, g.nu, 1.0f);
        const double dt = warm_median_seconds([&] {
            std::ranges::fill(stack.span(), 1.0f);  // the same input on every call
            eng.apply(stack);
        });
        m.th_flt_geps = static_cast<double>(stack.count()) / dt / 1e9;
    }
    return m;
}

}  // namespace xct::perfmodel

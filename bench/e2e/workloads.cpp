#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "backproj/reference.hpp"
#include "core/preprocess.hpp"
#include "filter/parker.hpp"
#include "filter/ramp.hpp"
#include "io/raw_io.hpp"
#include "recon/quality.hpp"

namespace xct::bench {

namespace {

/// Pores of the recon workloads' porous-bean phantom.  The analytic
/// projection costs one ray-ellipsoid test per ellipsoid per ray, so few
/// pores keep xct_project a small, steady part of setup_s.
constexpr index_t kPores = 4;

}  // namespace

const std::vector<Workload>& workloads()
{
    static const std::vector<Workload> all = [] {
        std::vector<Workload> v;
        // Back-projection bound: bp is the busiest stage and filtering
        // overlaps behind it.  A kernel gain shows here; filter or transport
        // gains should not.
        Workload tomo;
        tomo.name = "fdk-tomo29";
        tomo.dataset = "tomo_00029";
        tomo.scale = 8;
        tomo.volume = 96;
        tomo.recon_args = {"--batches", "8"};
        tomo.batches = 8;
        v.push_back(tomo);
        // Filter, transport and I/O bound: many views onto a small volume,
        // Eq. 1 preprocessing, the q8 band codec and double-buffered
        // prefetch.  A back-projection-only gain should barely move it.
        Workload bean;
        bean.name = "fdk-bean-q8";
        bean.dataset = "coffee_bean";
        bean.scale = 16;
        bean.volume = 48;
        bean.counts = true;
        bean.recon_args = {"--batches", "16", "--band-codec", "q8", "--prefetch"};
        bean.batches = 16;
        bean.psnr_floor_db = 40.0;
        v.push_back(bean);
        // The paper's Ng x Nr decomposition: segmented minimpi reduce, group
        // slice split, rank imbalance, with the bumblebee's sigma_cor
        // rotation-centre offset.  The only workload where reduce or
        // decomposition changes can show.
        Workload dist;
        dist.name = "dist-bumblebee-2x2";
        dist.dataset = "bumblebee";
        dist.scale = 16;
        dist.volume = 96;
        dist.recon_args = {"--groups", "2", "--ranks", "2"};
        dist.layout = GroupLayout{2, 2};
        v.push_back(dist);
        // Many short concurrent jobs through the daemon: journal, admission,
        // scheduling, protocol and the analytic phantom source, all of which
        // the recon workloads bypass.  Its recon command is the dominant
        // job of the mix (tomo_00030/8 -> 48^3, Nc = 4, 64 MiB).
        Workload srv;
        srv.name = "serve-mix";
        srv.dataset = "tomo_00030";
        srv.scale = 8;
        srv.volume = 48;
        srv.recon_args = {"--batches", "4", "--device-mib", "64"};
        srv.batches = 4;
        srv.serve = true;
        v.push_back(srv);
        return v;
    }();
    return all;
}

const Workload& workload_by_name(const std::string& name)
{
    std::string known;
    for (const Workload& w : workloads()) {
        if (w.name == name) return w;
        known += (known.empty() ? "" : ", ") + w.name;
    }
    throw std::invalid_argument("unknown workload '" + name + "' (known: " + known + ")");
}

ChildExit project_input(const Tools& tools, const Workload& w, std::uint64_t seed,
                        const std::filesystem::path& stack_path)
{
    std::vector<std::string> argv = {tools.project.string(),
                                     "--dataset", w.dataset,
                                     "--scale", std::to_string(w.scale),
                                     "--volume", std::to_string(w.volume),
                                     "--phantom", "bean",
                                     "--voids", std::to_string(kPores),
                                     "--seed", std::to_string(seed),
                                     "--output", stack_path.string()};
    if (w.counts) argv.push_back("--counts");
    return run_child(argv, stack_path.string() + ".log");
}

std::vector<phantom::Ellipsoid> workload_phantom(const CbctGeometry& g, std::uint64_t seed)
{
    // xct_project's bean: its radius inscribes the volume.
    const double radius = g.dx * static_cast<double>(g.vol.x) / 2.4;
    return phantom::porous_bean(radius, kPores, seed);
}

Volume oracle_fdk(ProjectionStack stack, const io::GeometryFile& gf)
{
    const CbctGeometry& g = gf.geometry;
    if (gf.raw_counts) beer_law(stack, gf.beer);
    if (g.short_scan()) filter::ParkerWeights(g, Range{0, g.num_proj}).apply(stack);
    filter::FilterEngine(g, filter::Window::RamLak).apply(stack);
    Volume v(g.vol);
    backproj::backproject_reference(stack, projection_matrices(g), g, v);
    return v;
}

ReconInput load_input(const std::filesystem::path& stack_path)
{
    ReconInput in;
    in.stack_path = stack_path;
    in.geom = io::read_geometry(stack_path.string() + ".geom");
    in.raw = io::read_stack(stack_path);
    in.oracle = oracle_fdk(in.raw, in.geom);
    return in;
}

double finite_psnr(const Volume& a, const Volume& reference)
{
    const double p = recon::psnr(a, reference);
    return std::isfinite(p) ? p : 300.0;
}

std::vector<std::string> recon_argv(const Tools& tools, const Workload& w,
                                    const std::filesystem::path& stack,
                                    const std::filesystem::path& out,
                                    const std::vector<std::string>& extra)
{
    std::vector<std::string> argv = {tools.recon.string(), "--input", stack.string(), "--output",
                                     out.string()};
    argv.insert(argv.end(), w.recon_args.begin(), w.recon_args.end());
    argv.insert(argv.end(), extra.begin(), extra.end());
    return argv;
}

double max_abs_rel_err(std::span<const float> a, std::span<const float> reference)
{
    double err = 0.0, peak = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const double ref = reference[i];
        err = std::max(err, std::fabs(static_cast<double>(a[i]) - ref));
        peak = std::max(peak, std::fabs(ref));
    }
    return err == 0.0 ? 0.0 : err / peak;
}

ReconRep recon_rep(const Tools& tools, const Workload& w, const ReconInput& in,
                   const std::vector<std::string>& extra, const std::filesystem::path& out,
                   const std::vector<std::string>& env)
{
    ReconRep r;
    std::filesystem::remove(out);
    r.exit = run_child(recon_argv(tools, w, in.stack_path, out, extra), out.string() + ".log", env);
    if (!r.exit.ok()) {
        r.why = w.name + ": xct_recon exited with status " + std::to_string(r.exit.status) +
                " (log " + out.string() + ".log)";
        return r;
    }
    try {
        r.psnr_db = finite_psnr(io::read_volume(out), in.oracle);
    } catch (const std::exception& e) {
        r.why = w.name + ": unreadable output: " + e.what();
        return r;
    }
    r.ok = r.psnr_db >= w.psnr_floor_db;
    if (!r.ok)
        r.why = w.name + ": PSNR " + std::to_string(r.psnr_db) + " dB below the " +
                std::to_string(w.psnr_floor_db) + " dB floor";
    return r;
}

}  // namespace xct::bench

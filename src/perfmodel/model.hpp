#pragma once
// The performance model of Sec. 5 (Eqs. 13-17) plus a discrete-event
// pipeline simulator.
//
// The model projects the end-to-end runtime of the distributed framework
// from micro-benchmarked machine parameters.  Two flavours:
//
//   * project()  — the paper's Eq. 17: first batch serialises, the
//     remaining Nc-1 batches overlap perfectly and cost the max over the
//     CPU / GPU / reduce / store aggregates ("Projected" in Figs. 13-14);
//   * simulate() — a discrete-event simulation of the 5-stage pipeline
//     with the classical pipeline recurrence and bounded inter-stage
//     queues: start(s, i) >= finish(s, i-1), >= finish(s-1, i), and
//     back-pressure through the queue capacity.  This includes the
//     imperfect-overlap effects a real run shows ("Measured"-like).
//
// At-scale runs (1024 GPUs) are hardware-gated in this environment; these
// models — validated against real small-scale thread runs by the tests —
// regenerate the scaling figures (DESIGN.md §2).

#include <array>
#include <string>
#include <vector>

#include "core/decompose.hpp"
#include "core/geometry.hpp"

namespace xct::perfmodel {

/// Micro-benchmarked machine parameters (Sec. 5, "Micro-benchmark
/// measurements").  Bandwidths in GB/s, throughputs as noted.
struct MachineParams {
    double bw_load_gbps = 2.0;     ///< BW_load: node-local storage read
    double bw_store_gbps = 28.5;   ///< BW_store: *aggregate* PFS write
    double th_flt_geps = 0.26;     ///< TH_flt: filtering, giga-elements/s per rank
    double th_bp_gups = 115.0;     ///< TH_bp: back-projection updates, GUPS per GPU
    double th_reduce_gbps = 5.0;   ///< TH_reduce: MPI_Reduce payload throughput
    double bw_h2d_gbps = 5.0;      ///< PCIe host->device (measured, Sec. 5)
    double bw_d2h_gbps = 5.5;      ///< PCIe device->host

    /// Parameters reproducing the paper's ABCI V100 testbed (calibrated
    /// against Table 5 / Figs. 13-15).
    static MachineParams abci_v100();
    /// The A100 node of Table 5 (TH_bp ~ 155 GUPS).
    static MachineParams abci_a100();
};

/// One run configuration: problem + rank arrangement (Sec. 4.4.1).
struct RunConfig {
    CbctGeometry geometry;
    GroupLayout layout{1, 1};
    index_t batches = 8;  ///< Nc
    /// Wire bytes per transported band element on the host->device hop
    /// (Sec. 5's eta).  sizeof(float) models the raw fp32 transport; the
    /// q8 band codec ships 1 byte per texel, which is how the autotune
    /// planner scores --band-codec q8 candidates.  Load/store/reduce keep
    /// the fp32 eta — only the band transport is compressed.
    double eta_h2d = sizeof(float);
};

/// Per-batch stage times of one rank (Eqs. 13-16).
struct BatchTimes {
    double load = 0.0;
    double filter = 0.0;
    double h2d = 0.0;
    double bp = 0.0;
    double d2h = 0.0;
    double reduce = 0.0;
    double store = 0.0;

    double cpu() const { return load + filter; }          // T_CPU (Eq. 16)
    double gpu() const { return h2d + bp + d2h; }          // T_GPU (Eq. 16)
};

/// Model output.
struct Projection {
    std::vector<BatchTimes> batches;  ///< per-batch stage times (one rank)
    double runtime = 0.0;             ///< projected end-to-end seconds
    double gups = 0.0;                ///< Nx*Ny*Nz*Np / runtime / 1e9 (Fig. 15)

    // Aggregates over batches (the Table 5 columns).
    double t_load = 0.0, t_filter = 0.0, t_h2d = 0.0, t_bp = 0.0, t_d2h = 0.0, t_reduce = 0.0,
           t_store = 0.0;
};

/// Eqs. 13-16: stage times of every batch for one (representative) rank of
/// the given configuration.
std::vector<BatchTimes> batch_times(const RunConfig& cfg, const MachineParams& m);

/// Eq. 17: the perfect-overlap projection ("Projected" curves).
Projection project(const RunConfig& cfg, const MachineParams& m);

/// Discrete-event pipeline simulation with bounded queues ("Measured"-like
/// curves; `queue_capacity` matches the Fig. 9 FIFO depth).
Projection simulate(const RunConfig& cfg, const MachineParams& m, index_t queue_capacity = 2);

/// One injected perturbation for the event simulation: `delay_s` of extra
/// service time at pipeline stage `stage` (0 load, 1 filter, 2 bp — which
/// owns the h2d/d2h transfers, 3 reduce, 4 store) of batch `batch`.  This
/// is how the soak harness (src/soak) layers faults onto the event-sim: a
/// detected corruption costs one re-execution of the poisoned stage, an
/// injected stall costs its delay, a dropout costs the takeover replay.
struct SimFault {
    index_t stage = 0;
    index_t batch = 0;
    double delay_s = 0.0;
};

/// simulate() with fault perturbations folded into the stage service
/// times before the pipeline recurrence runs — recovery delays propagate
/// through queue back-pressure exactly like any other slow stage.
/// Batches out of range are clamped to the last batch.
Projection simulate_faulted(const RunConfig& cfg, const MachineParams& m,
                            const std::vector<SimFault>& events, index_t queue_capacity = 2);

/// Perfmodel-derived per-job tail-latency bound: `slack` times the clean
/// event-sim runtime plus the total injected recovery delay.  Any single
/// injected delay can extend the critical path by at most its own length,
/// so a run whose p99 latency exceeds this bound is slower than the model
/// plus its faults can explain — the soak harness gates on it.
double tail_latency_bound(const RunConfig& cfg, const MachineParams& m,
                          double fault_delay_s = 0.0, double slack = 1.25,
                          index_t queue_capacity = 2);

/// Simulated stage spans of one rank (regenerates Fig. 10 from the model):
/// returns, per batch, the [begin, end) of each of the five stages.
struct SimSpan {
    std::string stage;
    index_t batch = 0;
    double begin = 0.0;
    double end = 0.0;
};
std::vector<SimSpan> simulate_spans(const RunConfig& cfg, const MachineParams& m,
                                    index_t queue_capacity = 2);

/// Calibrate TH_bp and TH_flt on the present machine by timing the actual
/// kernels on a small problem (keeps local Table-5 predictions honest).
/// Each probe runs once untimed, then reports the median of three calls.
MachineParams measure_local(const MachineParams& base = MachineParams{});

}  // namespace xct::perfmodel

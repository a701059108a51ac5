// The benchmark's three phases, all timed from outside the program's
// public entry points with std::chrono::steady_clock (wall time):
//
//   set-up   native core::install (gather + train + artefact write) plus
//            AdsalaGemm::try_load from the written artefacts, repeated;
//   timed    closed loop over the call stream: each call is dispatched by
//            ADSALA and, on the same inputs, run at P threads (the paper's
//            max-thread reference), alternating which side goes first; both
//            results are checked; no spans are recorded;
//   traced   the same calls replayed against a memo-fresh re-publish of the
//            same models. Phase A pairs each traced call (`call` with
//            children `select` and `exec`) with the same call dispatched
//            untraced by a freshly loaded twin of its install, alternating
//            the order, so the ledger closes against wall time measured
//            microseconds away. Phase B adds `select_warm`, `ref_max` and
//            one `oracle` span per grid thread count for the same calls.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/adsala.h"
#include "ops.h"
#include "workload.h"

namespace perfbench {

struct Setup {
  /// One runtime per install; the passes serve call i from
  /// runtimes[install_for(i, runtimes.size())]. Picks vary from install to
  /// install (gathered labels are noisy), so a run measures several
  /// installs, not one draw.
  std::vector<adsala::core::AdsalaGemm> runtimes;
  std::vector<std::string> model_paths, config_paths;  ///< per install
  std::vector<double> setup_s;   ///< install + load, per repetition
  std::vector<double> gather_s;  ///< InstallReport::gather_seconds
  std::vector<double> train_s;   ///< InstallReport::train_seconds
  double timed_calls = 0.0;      ///< gather's timed BLAS calls per install
};

/// The install serving call i of k: every block of k consecutive calls
/// visits each install once, and the block-to-block rotation spreads any
/// periodic call pattern (gemm_repeat's layer cycle) over all installs.
inline std::size_t install_for(std::size_t i, std::size_t k) {
  return (i + i / k) % k;
}

/// Runs `repeats` independent native installs of the workload's campaign
/// into artefact_dir/rep<i>, each loaded back from its artefacts.
Setup run_setup(const WorkloadSpec& spec, int max_threads,
                const std::string& artefact_dir, int repeats);

struct TimedPass {
  std::vector<Call> calls;
  std::vector<double> adsala_ns;  ///< dispatched call, selection included
  std::vector<double> max_ns;     ///< same inputs at P threads
  std::vector<std::uint8_t> ok;   ///< both checks passed, nothing thrown
  std::size_t mismatches = 0;     ///< bit-identity failures
  std::size_t exceptions = 0;
  std::size_t ref_checks = 0;     ///< reference spot checks run
  std::size_t ref_failures = 0;
  double seconds = 0.0;           ///< wall time of the whole pass
};

template <typename T>
TimedPass run_timed(std::vector<adsala::core::AdsalaGemm>& rts,
                    const WorkloadSpec& spec, CallStream& stream,
                    Operands<T>& ops, int max_threads, double seconds);

inline constexpr std::size_t kMaxGrid = 16;

/// One replayed call of the traced pass.
struct TraceRow {
  double select_ns = 0, exec_ns = 0, call_ns = 0;
  double untraced_ns = 0;  ///< the same call dispatched without spans
  double warm_ns = 0;  ///< one repeat query (memo hit), batch-averaged
  double max_ns = 0;
  std::array<double, kMaxGrid> oracle_ns{};  ///< per grid thread count
  int pick = 0;
  bool model_rung = false;
  bool cold = false;  ///< first query of this shape since the re-publish
  /// PipelineStats deltas of the oracle execution at the pick.
  std::uint64_t pack_ns = 0, compute_ns = 0, tiles = 0, steals = 0;
  std::uint64_t arena_growths = 0;  ///< PackArena growth during `exec`
};

struct Span {
  std::uint32_t call;
  std::uint8_t kind;    ///< index into kSpanNames
  std::int16_t p;       ///< thread count, 0 when not applicable
  std::int64_t start_ns, end_ns;  ///< from the pass origin
};
inline constexpr const char* kSpanNames[] = {
    "call", "select", "exec", "select_warm", "ref_max", "oracle"};

struct TracedPass {
  std::vector<int> grid;
  std::vector<TraceRow> rows;  ///< rows[i] replays timed.calls[i]
  std::vector<Span> spans;
  std::size_t mismatches = 0;  ///< exec vs ref_max vs every oracle result
  std::size_t exceptions = 0;
  double seconds = 0.0;
};

template <typename T>
TracedPass run_traced(Setup& setup, const WorkloadSpec& spec,
                      const TimedPass& timed, Operands<T>& ops,
                      int max_threads, double budget_s);

/// Miss-path layer timings over distinct shapes of the traced pass:
/// Pipeline::transform_row and Regressor::predict_one per grid row, and
/// one whole predict_best_grid_index (no memo) per shape.
struct SelectLayers {
  std::vector<double> transform_ns, predict_ns, argmin_ns;
};
SelectLayers measure_select_layers(
    const std::vector<adsala::core::AdsalaGemm>& rts,
    const std::vector<Call>& calls, int elem_bytes);

/// Empty ThreadPool::parallel_region at P: back to back (hot), and after
/// an idle gap longer than the pool's spin window (cold).
struct PoolTimes {
  std::vector<double> hot_ns, cold_ns;
};
PoolTimes measure_pool(int max_threads);

/// Writes the traced pass's spans as CSV (call,span,p,start_ns,end_ns).
void write_spans(const std::string& path, const TracedPass& traced);

}  // namespace perfbench

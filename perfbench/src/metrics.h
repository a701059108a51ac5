// Reduction of the passes into the named metrics the benchmark reports.
// README.md maps each per-layer metric to the end-to-end metric and the
// workload it should move.
#pragma once

#include <string>
#include <vector>

#include "passes.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Ledger acceptance: the traced `select` + `exec` spans must account for
/// this share of the untraced dispatched wall time, from both sides.
inline constexpr double kClosureMin = 0.95;
inline constexpr double kClosureMax = 1.05;

/// Median and linear-interpolated quantile (q in [0, 1]); 0 when empty.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Useful GFLOP/s of the timed stream over `call_ns` (the ADSALA or the
/// max-thread side): the timed stream is cut into 20 windows of
/// consecutive calls and the median window's Σflops / Σtime is returned,
/// so a transient stall on a shared host costs one window, not the figure.
double windowed_gflops(const TimedPass& timed,
                       const std::vector<double>& call_ns);

/// gflops, speedup_vs_max_p50, setup_s, ok_ratio.
std::vector<Metric> end_to_end_metrics(const Setup& setup,
                                       const TimedPass& timed);

/// Every per-layer metric, from the traced pass and the layer probes.
/// ledger.closure is Σ(select + exec) over Σ untraced dispatched time on
/// the replayed calls; ledger.closed is 1 when it lies within the bounds.
std::vector<Metric> per_layer_metrics(const Setup& setup,
                                      const TimedPass& timed,
                                      const TracedPass& traced,
                                      const SelectLayers& select,
                                      const PoolTimes& pool, int max_threads,
                                      int elem_bytes);

}  // namespace perfbench

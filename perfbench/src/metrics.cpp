#include "metrics.h"

#include <algorithm>
#include <cmath>

#include "blas/op.h"

namespace perfbench {
namespace {

using adsala::blas::OpKind;

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The highest tail quantile with at least ten samples beyond it, capped
/// at p99 (README: "cold p99" on a workload with few cold queries).
double tail_quantile(const std::vector<double>& values) {
  const auto n = static_cast<double>(values.size());
  if (n <= 10.0) return quantile(values, 1.0);
  return quantile(values, std::min(0.99, 1.0 - 10.0 / n));
}

}  // namespace

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double windowed_gflops(const TimedPass& timed,
                       const std::vector<double>& call_ns) {
  constexpr std::size_t kWindows = 20;
  const std::size_t n = timed.calls.size();
  std::vector<double> rates;
  for (std::size_t w = 0; w < kWindows; ++w) {
    double flops = 0.0, ns = 0.0;
    for (std::size_t i = w * n / kWindows; i < (w + 1) * n / kWindows; ++i) {
      if (!timed.ok[i]) continue;
      flops += call_flops(timed.calls[i]);
      ns += call_ns[i];
    }
    if (ns > 0.0) rates.push_back(flops / ns);
  }
  return median(rates);
}

std::vector<Metric> end_to_end_metrics(const Setup& setup,
                                       const TimedPass& timed) {
  std::vector<double> speedups;
  for (std::size_t i = 0; i < timed.calls.size(); ++i) {
    if (timed.ok[i]) {
      speedups.push_back(ratio(timed.max_ns[i], timed.adsala_ns[i]));
    }
  }
  return {
      {"gflops", windowed_gflops(timed, timed.adsala_ns), "GFLOP/s"},
      {"speedup_vs_max_p50", median(speedups), "x"},
      {"setup_s", median(setup.setup_s), "s"},
      {"ok_ratio",
       ratio(static_cast<double>(speedups.size()),
             static_cast<double>(timed.calls.size())),
       "ratio"},
  };
}

std::vector<Metric> per_layer_metrics(const Setup& setup,
                                      const TimedPass& timed,
                                      const TracedPass& traced,
                                      const SelectLayers& select,
                                      const PoolTimes& pool, int max_threads,
                                      int elem_bytes) {
  const std::vector<int>& grid = traced.grid;
  const auto grid_index = [&](int p) {
    const auto it = std::find(grid.begin(), grid.end(), p);
    return it == grid.end() ? grid.size() : static_cast<std::size_t>(it - grid.begin());
  };
  const std::size_t j1 = grid_index(1);

  double sum_select = 0, sum_call = 0, sum_exec = 0, sum_max = 0, sum_p1 = 0;
  double sum_flops = 0, sum_bytes = 0, sum_at_pick = 0, sum_oracle = 0;
  double sum_untraced = 0;
  double pack = 0, compute = 0, thread_ns = 0, steals = 0, tiles = 0;
  double growths = 0;
  double op_flops[adsala::blas::kNumOps] = {};
  double op_exec[adsala::blas::kNumOps] = {};
  std::size_t oracle_picks = 0, near_picks = 0, max_picks = 0, model_rung = 0;
  std::vector<double> cold, warm, ceiling;

  const std::size_t n = traced.rows.size();
  for (std::size_t i = 0; i < n; ++i) {
    const TraceRow& r = traced.rows[i];
    const Call& c = timed.calls[i];
    const double flops = call_flops(c);
    sum_select += r.select_ns;
    sum_exec += r.exec_ns;
    sum_call += r.call_ns;
    sum_untraced += r.untraced_ns;
    sum_max += r.max_ns;
    sum_flops += flops;
    sum_bytes += call_bytes(c, elem_bytes);
    const auto op = static_cast<std::size_t>(adsala::blas::op_code(c.op));
    op_flops[op] += flops;
    op_exec[op] += r.exec_ns;
    if (j1 < grid.size()) sum_p1 += r.oracle_ns[j1];
    if (r.cold) cold.push_back(r.select_ns);
    warm.push_back(r.warm_ns);
    growths += static_cast<double>(r.arena_growths);

    std::size_t best = 0;
    for (std::size_t j = 1; j < grid.size(); ++j) {
      if (r.oracle_ns[j] < r.oracle_ns[best]) best = j;
    }
    const std::size_t jp = grid_index(r.pick);
    const double at_pick = jp < grid.size() ? r.oracle_ns[jp] : r.exec_ns;
    sum_at_pick += at_pick;
    sum_oracle += r.oracle_ns[best];
    ceiling.push_back(ratio(r.max_ns, r.oracle_ns[best]));
    if (jp == best) ++oracle_picks;
    if (at_pick <= 1.05 * r.oracle_ns[best]) ++near_picks;
    if (r.pick == max_threads) ++max_picks;
    if (r.model_rung) ++model_rung;

    // SYRK and TRSM (the pre-pipeline schedule) report no pack/compute
    // split; only calls that did enter the shares.
    if (r.pack_ns + r.compute_ns > 0) {
      pack += static_cast<double>(r.pack_ns);
      compute += static_cast<double>(r.compute_ns);
      thread_ns += static_cast<double>(r.pick) * at_pick;
      steals += static_cast<double>(r.steals);
      tiles += static_cast<double>(r.tiles);
    }
  }
  const double dn = static_cast<double>(n);
  const double gflops_p1 = ratio(sum_flops, sum_p1);
  const double gflops_pmax = ratio(sum_flops, sum_max);
  const double closure = ratio(sum_select + sum_exec, sum_untraced);
  std::vector<Metric> out = {
      {"select.cold_ns_p50", median(cold), "ns"},
      {"select.cold_ns_p99", tail_quantile(cold), "ns"},
      {"select.cold_count", static_cast<double>(cold.size()), "count"},
      {"select.warm_ns_p50", median(warm), "ns"},
      {"select.share", ratio(sum_select, sum_call), "ratio"},
      {"select.regret", ratio(sum_at_pick, sum_oracle), "ratio"},
      {"select.oracle_pick_ratio", ratio(oracle_picks, dn), "ratio"},
      {"select.near_oracle_ratio", ratio(near_picks, dn), "ratio"},
      {"select.max_pick_ratio", ratio(max_picks, dn), "ratio"},
      {"select.model_rung_ratio", ratio(model_rung, dn), "ratio"},
      {"select.argmin_ns_p50", median(select.argmin_ns), "ns"},
      {"preprocess.transform_ns_p50", median(select.transform_ns), "ns"},
      {"ml.predict_ns_p50", median(select.predict_ns), "ns"},
      {"select.grid_points", static_cast<double>(grid.size()), "count"},
      {"blas.exec_gflops", ratio(sum_flops, sum_exec), "GFLOP/s"},
      {"blas.gflops_p1", gflops_p1, "GFLOP/s"},
      {"blas.gflops_pmax", gflops_pmax, "GFLOP/s"},
      {"blas.scaling_eff", ratio(gflops_pmax, max_threads * gflops_p1),
       "ratio"},
      {"blas.oracle_speedup_vs_max", median(ceiling), "x"},
      {"blas.pack_share", ratio(pack, thread_ns), "ratio"},
      {"blas.wait_share",
       thread_ns > 0 ? std::max(0.0, thread_ns - pack - compute) / thread_ns
                     : 0.0,
       "ratio"},
      {"blas.steals_per_tile", ratio(steals, tiles), "ratio"},
      {"blas.flops", sum_flops, "flop"},
      {"blas.bytes_computed", sum_bytes, "B"},
      {"blas.flops_per_byte", ratio(sum_flops, sum_bytes), "flop/B"},
  };
  for (const OpKind op : adsala::blas::all_ops()) {
    const auto code = static_cast<std::size_t>(adsala::blas::op_code(op));
    out.push_back({std::string("blas.") + adsala::blas::op_name(op) +
                       ".exec_gflops",
                   ratio(op_flops[code], op_exec[code]), "GFLOP/s"});
  }
  const std::vector<Metric> tail = {
      {"pool.forkjoin_hot_ns_p50", median(pool.hot_ns), "ns"},
      {"pool.forkjoin_cold_ns_p50", median(pool.cold_ns), "ns"},
      {"arena.growth_count", growths, "count"},
      {"install.gather_s", median(setup.gather_s), "s"},
      {"install.train_s", median(setup.train_s), "s"},
      {"install.timed_calls", setup.timed_calls, "count"},
      {"ledger.closure", closure, "ratio"},
      {"ledger.closed",
       closure >= kClosureMin && closure <= kClosureMax ? 1.0 : 0.0, "bool"},
      {"ledger.remainder_ns_per_call",
       ratio(sum_untraced - sum_select - sum_exec, dn), "ns"},
      {"trace.overhead_ratio", ratio(sum_call, sum_untraced) - 1.0, "ratio"},
      {"trace.calls", dn, "count"},
  };
  out.insert(out.end(), tail.begin(), tail.end());
  return out;
}

}  // namespace perfbench

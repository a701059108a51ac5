#include "passes.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include "blas/kernels/dispatch.h"
#include "blas/pack_pipeline.h"
#include "common/pack_arena.h"
#include "common/thread_pool.h"
#include "core/executor.h"
#include "core/install.h"
#include "core/op_registry.h"
#include "preprocess/features.h"

namespace perfbench {
namespace {

namespace core = adsala::core;
using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// The install recipe of the repository's native host bench
// (bench/bench_native_host.cpp): 3 timed runs per (shape, p) after a
// warm-up, four candidate models without hyper-parameter search.
constexpr int kGatherIterations = 3;
const std::vector<std::string> kCandidates = {"linear_regression",
                                              "decision_tree", "xgboost",
                                              "lightgbm"};

// Reference spot checks run on calls of at most this many flops (the naive
// triple loop costs ~1000x the call): the first few, then one in 1024.
constexpr double kRefCheckMaxFlops = 4e6;
constexpr std::size_t kRefCheckFirst = 8;
constexpr std::size_t kRefCheckEvery = 1024;

// Repeat queries averaged per warm-select sample: one memo hit is a few
// nanoseconds, below a single steady_clock read.
constexpr int kWarmBatch = 16;

std::uint64_t shape_key(const Call& c) {
  return (static_cast<std::uint64_t>(c.op) << 60) ^
         (static_cast<std::uint64_t>(c.x) << 40) ^
         (static_cast<std::uint64_t>(c.y) << 20) ^
         static_cast<std::uint64_t>(c.z);
}

struct PipelineCounters {
  std::uint64_t pack_ns, compute_ns, tiles, steals;
};

PipelineCounters read_pipeline() {
  auto& s = adsala::blas::detail::pipeline_stats();
  return {s.pack_ns.load(std::memory_order_relaxed),
          s.compute_ns.load(std::memory_order_relaxed),
          s.tiles.load(std::memory_order_relaxed),
          s.steals.load(std::memory_order_relaxed)};
}

std::uint64_t arena_growths() {
  return adsala::PackArena::global().arena_stats().growth_count;
}

}  // namespace

Setup run_setup(const WorkloadSpec& spec, int max_threads,
                const std::string& artefact_dir, int repeats) {
  core::NativeExecutor executor(max_threads);
  Setup out;
  for (int r = 0; r < repeats; ++r) {
    core::InstallOptions opts;
    opts.gather.n_samples = spec.install_shapes;
    opts.gather.iterations = kGatherIterations;
    opts.gather.domain = spec.install_domain;
    opts.gather.ops = spec.install_ops;
    opts.train.candidates = kCandidates;
    opts.train.tune = false;
    opts.output_dir = artefact_dir + "/rep" + std::to_string(r);
    std::filesystem::remove_all(opts.output_dir);
    std::filesystem::create_directories(opts.output_dir);

    const std::int64_t t0 = now_ns();
    const core::InstallReport report = core::install(executor, opts);
    auto loaded =
        core::AdsalaGemm::try_load(report.model_path, report.config_path);
    const std::int64_t t1 = now_ns();
    if (!loaded.ok()) {
      throw std::runtime_error("setup: artefacts do not load: " +
                               loaded.error().message);
    }
    out.setup_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
    out.gather_s.push_back(report.gather_seconds);
    out.train_s.push_back(report.train_seconds);
    double calls = 0.0;
    for (const auto& rec : report.gathered.records) {
      calls += static_cast<double>(rec.threads.size()) * kGatherIterations;
    }
    out.timed_calls = calls;
    out.runtimes.push_back(std::move(loaded).value());
    out.model_paths.push_back(report.model_path);
    out.config_paths.push_back(report.config_path);
  }
  return out;
}

template <typename T>
TimedPass run_timed(std::vector<core::AdsalaGemm>& rts,
                    const WorkloadSpec& spec, CallStream& stream,
                    Operands<T>& ops, int max_threads, double seconds) {
  TimedPass pass;
  T* out_ad = ops.out_ad.data();
  T* out_ref = ops.out_ref.data();
  std::size_t small_checks = 0;
  const std::int64_t origin = now_ns();
  const auto deadline = origin + static_cast<std::int64_t>(seconds * 1e9);
  for (std::size_t i = 0; now_ns() < deadline; ++i) {
    const Call c = stream.next();
    ops.begin_call(c);
    ops.reset_output(c, out_ad);
    ops.reset_output(c, out_ref);
    double t_ad = 0.0, t_max = 0.0;
    bool ok = true;
    try {
      // Alternating the order spreads cache and pool warmth evenly over
      // both sides of the paired ratio.
      const bool adsala_first = i % 2 == 0;
      for (int side = 0; side < 2; ++side) {
        const std::int64_t t0 = now_ns();
        if ((side == 0) == adsala_first) {
          run_adsala(rts[install_for(i, rts.size())], c, ops, out_ad,
                     !spec.via_query);
          t_ad = static_cast<double>(now_ns() - t0);
        } else {
          run_blas(c, ops, out_ref, max_threads);
          t_max = static_cast<double>(now_ns() - t0);
        }
      }
      if (!same_output(c, out_ad, out_ref)) {
        ok = false;
        ++pass.mismatches;
      }
      if (call_flops(c) <= kRefCheckMaxFlops &&
          (small_checks < kRefCheckFirst || i % kRefCheckEvery == 0)) {
        ++small_checks;
        ++pass.ref_checks;
        if (!matches_reference(c, ops, out_ad)) {
          ok = false;
          ++pass.ref_failures;
        }
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "[perfbench] call %zu threw: %s\n", i, e.what());
      ok = false;
      ++pass.exceptions;
    }
    ops.end_call(c);
    pass.calls.push_back(c);
    pass.adsala_ns.push_back(t_ad);
    pass.max_ns.push_back(t_max);
    pass.ok.push_back(ok ? 1 : 0);
  }
  pass.seconds = static_cast<double>(now_ns() - origin) * 1e-9;
  return pass;
}

template <typename T>
TracedPass run_traced(Setup& setup, const WorkloadSpec& spec,
                      const TimedPass& timed, Operands<T>& ops,
                      int max_threads, double budget_s) {
  // Same models, fresh memos: the replay's first queries miss again. Each
  // install also gets an untraced twin loaded from the same artefacts, whose
  // memo sees the same query sequence, so both sides miss and hit alike.
  std::vector<core::AdsalaGemm>& rts = setup.runtimes;
  std::vector<core::AdsalaGemm> twins;
  for (std::size_t k = 0; k < rts.size(); ++k) {
    rts[k].install(rts[k].snapshot());
    auto twin = core::AdsalaGemm::try_load(setup.model_paths[k],
                                           setup.config_paths[k]);
    if (!twin.ok()) throw std::runtime_error(twin.error().message);
    twins.push_back(std::move(twin).value());
  }

  TracedPass pass;
  pass.grid = rts.front().thread_grid();
  if (pass.grid.size() > kMaxGrid) {
    throw std::runtime_error("traced pass: thread grid wider than kMaxGrid");
  }
  auto& stats = adsala::blas::detail::pipeline_stats();
  T* out_ad = ops.out_ad.data();
  T* out_ref = ops.out_ref.data();
  const int elem = static_cast<int>(sizeof(T));
  std::set<std::pair<std::size_t, std::uint64_t>> seen;  // (install, shape)

  const std::int64_t origin = now_ns();
  const auto span = [&](std::size_t call, int kind, int p, std::int64_t a,
                        std::int64_t b) {
    pass.spans.push_back(Span{static_cast<std::uint32_t>(call),
                              static_cast<std::uint8_t>(kind),
                              static_cast<std::int16_t>(p), a - origin,
                              b - origin});
  };
  const auto failed = [&](const char* phase, std::size_t i,
                          const std::exception& e) {
    stats.timing_enabled.store(false, std::memory_order_relaxed);
    std::fprintf(stderr, "[perfbench] %s call %zu threw: %s\n", phase, i,
                 e.what());
    ++pass.exceptions;
  };

  // Phase A: each call traced (query + blas at the pick) and, adjacent to
  // it, dispatched untraced by the install's twin, alternating the order.
  // It gets a third of the budget; phase B costs about twice as much.
  const auto a_deadline =
      origin + static_cast<std::int64_t>(budget_s / 3.0 * 1e9);
  for (std::size_t i = 0; i < timed.calls.size() && now_ns() < a_deadline;
       ++i) {
    const Call& c = timed.calls[i];
    const std::size_t k = install_for(i, rts.size());
    const core::AdsalaGemm& rt = rts[k];
    TraceRow row;
    row.cold = seen.insert({k, shape_key(c)}).second;
    ops.begin_call(c);
    ops.reset_output(c, out_ad);
    ops.reset_output(c, out_ref);
    try {
      const bool traced_first = i % 2 == 0;
      for (int side = 0; side < 2; ++side) {
        if ((side == 0) == traced_first) {
          const std::uint64_t g0 = arena_growths();
          const std::int64_t t0 = now_ns();
          const auto d = rt.query(c.op, c.x, c.y, c.z, elem);
          const std::int64_t t1 = now_ns();
          run_blas(c, ops, out_ad, d.threads);
          const std::int64_t t2 = now_ns();
          row.arena_growths = arena_growths() - g0;
          row.pick = d.threads;
          row.model_rung = d.mode == core::ServingMode::kModelServed;
          row.select_ns = static_cast<double>(t1 - t0);
          row.exec_ns = static_cast<double>(t2 - t1);
          row.call_ns = static_cast<double>(t2 - t0);
          span(i, 0, d.threads, t0, t2);
          span(i, 1, 0, t0, t1);
          span(i, 2, d.threads, t1, t2);
        } else {
          const std::int64_t u0 = now_ns();
          run_adsala(twins[k], c, ops, out_ref, !spec.via_query);
          row.untraced_ns = static_cast<double>(now_ns() - u0);
        }
      }
      if (!same_output(c, out_ad, out_ref)) ++pass.mismatches;
    } catch (const std::exception& e) {
      failed("traced", i, e);
    }
    ops.end_call(c);
    pass.rows.push_back(row);
  }

  // Phase B: per replayed call, a repeat-query probe, the max-thread
  // reference and the oracle sweep over the thread grid, every result
  // checked against the reference.
  for (std::size_t i = 0; i < pass.rows.size(); ++i) {
    const Call& c = timed.calls[i];
    const core::AdsalaGemm& rt = rts[install_for(i, rts.size())];
    TraceRow& row = pass.rows[i];
    ops.begin_call(c);
    try {
      int sink = rt.query(c.op, c.x, c.y, c.z, elem).threads;  // memo fill
      const std::int64_t w0 = now_ns();
      for (int r = 0; r < kWarmBatch; ++r) {
        sink += rt.query(c.op, c.x, c.y, c.z, elem).threads;
      }
      const std::int64_t w1 = now_ns();
      if (sink != (kWarmBatch + 1) * row.pick) ++pass.mismatches;
      row.warm_ns = static_cast<double>(w1 - w0) / kWarmBatch;
      span(i, 3, 0, w0, w1);

      ops.reset_output(c, out_ad);
      const std::int64_t r0 = now_ns();
      run_blas(c, ops, out_ad, max_threads);
      const std::int64_t r1 = now_ns();
      row.max_ns = static_cast<double>(r1 - r0);
      span(i, 4, max_threads, r0, r1);

      bool same = true;
      for (std::size_t j = 0; j < pass.grid.size(); ++j) {
        const int p = pass.grid[j];
        const bool at_pick = p == row.pick;
        ops.reset_output(c, out_ref);
        PipelineCounters before{};
        if (at_pick) {
          before = read_pipeline();
          stats.timing_enabled.store(true, std::memory_order_relaxed);
        }
        const std::int64_t o0 = now_ns();
        run_blas(c, ops, out_ref, p);
        const std::int64_t o1 = now_ns();
        if (at_pick) {
          stats.timing_enabled.store(false, std::memory_order_relaxed);
          const PipelineCounters after = read_pipeline();
          row.pack_ns = after.pack_ns - before.pack_ns;
          row.compute_ns = after.compute_ns - before.compute_ns;
          row.tiles = after.tiles - before.tiles;
          row.steals = after.steals - before.steals;
        }
        row.oracle_ns[j] = static_cast<double>(o1 - o0);
        span(i, 5, p, o0, o1);
        same = same && same_output(c, out_ad, out_ref);
      }
      if (!same) ++pass.mismatches;
    } catch (const std::exception& e) {
      failed("oracle", i, e);
    }
    ops.end_call(c);
  }
  pass.seconds = static_cast<double>(now_ns() - origin) * 1e-9;
  return pass;
}

SelectLayers measure_select_layers(const std::vector<core::AdsalaGemm>& rts,
                                   const std::vector<Call>& calls,
                                   int elem_bytes) {
  constexpr std::size_t kMaxShapes = 256;
  constexpr std::size_t kMinSamples = 512;
  SelectLayers out;

  std::vector<Call> distinct;
  std::unordered_set<std::uint64_t> seen;
  for (const Call& c : calls) {
    if (distinct.size() == kMaxShapes) break;
    if (seen.insert(shape_key(c)).second) distinct.push_back(c);
  }
  if (distinct.empty()) return out;

  const auto variant = adsala::blas::kernels::active_variant();
  const std::size_t reps =
      std::max<std::size_t>(1, kMinSamples / distinct.size());
  double sink = 0.0;
  for (std::size_t r = 0; r < reps; ++r) {
    for (std::size_t s = 0; s < distinct.size(); ++s) {
      // Shapes rotate over the installs, as the passes' calls do.
      const core::AdsalaGemm& rt = rts[(r + s) % rts.size()];
      if (rt.serving_mode() == core::ServingMode::kHeuristicFallback) continue;
      const auto& model = rt.model();
      const auto& pipeline = rt.pipeline();
      const std::vector<int>& grid = rt.thread_grid();
      const std::size_t width = pipeline.n_input_features();
      const Call& c = distinct[s];
      const auto shape =
          core::op_traits(c.op).to_shape(c.x, c.y, c.z, elem_bytes);
      for (const int p : grid) {
        const auto raw = adsala::preprocess::make_query_features(
            static_cast<double>(shape.m), static_cast<double>(shape.k),
            static_cast<double>(shape.n), static_cast<double>(p), c.op,
            variant, width);
        const std::int64_t t0 = now_ns();
        const auto row = pipeline.transform_row(raw);
        const std::int64_t t1 = now_ns();
        sink += model.predict_one(row);
        const std::int64_t t2 = now_ns();
        out.transform_ns.push_back(static_cast<double>(t1 - t0));
        out.predict_ns.push_back(static_cast<double>(t2 - t1));
      }
      const std::int64_t t0 = now_ns();
      sink += static_cast<double>(
          core::predict_best_grid_index(model, pipeline, shape, grid, c.op));
      const std::int64_t t1 = now_ns();
      out.argmin_ns.push_back(static_cast<double>(t1 - t0));
    }
  }
  volatile double keep = sink;
  (void)keep;
  return out;
}

PoolTimes measure_pool(int max_threads) {
  constexpr int kWarmup = 64;
  constexpr int kHot = 2000;
  constexpr int kCold = 40;
  // Longer than the pool's bounded spin (a few thousand pause iterations,
  // well under a millisecond), so every cold region wakes parked workers.
  constexpr auto kIdleGap = std::chrono::milliseconds(3);

  auto& pool = adsala::ThreadPool::global();
  const auto p = static_cast<std::size_t>(max_threads);
  const std::function<void(std::size_t, std::size_t)> empty =
      [](std::size_t, std::size_t) {};
  PoolTimes out;
  for (int i = 0; i < kWarmup; ++i) pool.parallel_region(p, empty);
  for (int i = 0; i < kHot; ++i) {
    const std::int64_t t0 = now_ns();
    pool.parallel_region(p, empty);
    out.hot_ns.push_back(static_cast<double>(now_ns() - t0));
  }
  for (int i = 0; i < kCold; ++i) {
    std::this_thread::sleep_for(kIdleGap);
    const std::int64_t t0 = now_ns();
    pool.parallel_region(p, empty);
    out.cold_ns.push_back(static_cast<double>(now_ns() - t0));
  }
  return out;
}

void write_spans(const std::string& path, const TracedPass& traced) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write spans to " + path);
  f << "call,span,parent,p,start_ns,end_ns\n";
  for (const Span& s : traced.spans) {
    // select and exec are children of their call's root span.
    const bool child = s.kind == 1 || s.kind == 2;
    f << s.call << ',' << kSpanNames[s.kind] << ','
      << (child ? "call" : "") << ',' << s.p << ',' << s.start_ns << ','
      << s.end_ns << '\n';
  }
}

template TimedPass run_timed<float>(std::vector<core::AdsalaGemm>&,
                                    const WorkloadSpec&, CallStream&,
                                    Operands<float>&, int, double);
template TimedPass run_timed<double>(std::vector<core::AdsalaGemm>&,
                                     const WorkloadSpec&, CallStream&,
                                     Operands<double>&, int, double);
template TracedPass run_traced<float>(Setup&, const WorkloadSpec&,
                                      const TimedPass&, Operands<float>&, int,
                                      double);
template TracedPass run_traced<double>(Setup&, const WorkloadSpec&,
                                       const TimedPass&, Operands<double>&,
                                       int, double);

}  // namespace perfbench

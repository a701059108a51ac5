// Concurrency and ragged-shape coverage for the pack pipeline
// (blas/pack_pipeline.h): the ping/pong PackPipeline epochs and the
// TileDeck steal index are hammered directly from raw std::threads (the
// TSan CI leg runs this binary), and the pipelined GEMM/SYMM/TRMM drivers
// are verified against their references on the adversarial shapes the old
// static row split handled worst — tall-skinny, wide, fewer row tiles than
// threads, and a k < kc single-panel degenerate. The 2D tile grid's sizing
// rules are checked directly, and the BitIdentity battery memcmps every
// thread count against the serial path.
//
// The global pool is forced to 4 threads via ADSALA_THREADS before its
// first use (the static initializer below runs pre-main): on a small CI
// host the parallel paths would otherwise resolve to one thread and the
// pipeline would never engage.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "blas/gemm.h"
#include "blas/kernels/dispatch.h"
#include "blas/level3_common.h"
#include "blas/pack_pipeline.h"
#include "blas/symm.h"
#include "blas/trmm.h"
#include "common/pack_arena.h"
#include "common/rng.h"
#include "common/thread_pool.h"

namespace adsala::blas {
namespace {

// Before the lazily-constructed ThreadPool::global() first runs (no
// overwrite: an outer ADSALA_THREADS, e.g. a CI matrix entry, wins).
const bool g_pool_env = [] {
  setenv("ADSALA_THREADS", "4", /*overwrite=*/0);
  return true;
}();

template <typename T>
std::vector<T> random_matrix(std::size_t rows, std::size_t cols,
                             std::uint64_t seed) {
  Rng rng(seed);
  std::vector<T> out(rows * cols);
  for (auto& v : out) v = static_cast<T>(rng.uniform(-2.0, 2.0));
  return out;
}

// ------------------------------------------------------- pipeline hammer --

/// Runs the exact PackPipeline/TileDeck protocol of pipelined_macro_loop
/// from raw threads, with the "pack" writing a per-thread cell tagged with
/// the panel index and the "compute" asserting every participant's tag is
/// visible — the acquire/release edges the real loop relies on. Every third
/// panel has only `narrow` tiles, as a narrow last jc-block has fewer
/// column tiles. Tile claims are counted per (panel, tile); any double,
/// missed or out-of-range claim fails.
void hammer_pipeline(int nt, int panels, int tiles, int narrow) {
  detail::PackPipeline pipe(static_cast<std::size_t>(nt));
  detail::TileDeck deck(static_cast<std::size_t>(nt), tiles);
  const auto tiles_of = [&](long panel) {
    return panel % 3 == 2 ? narrow : tiles;
  };
  // Ping/pong "buffers": one slot per participant, as the cooperative pack
  // writes disjoint chunks of the real B pair.
  std::vector<long> bufs[2];
  bufs[0].assign(nt, -1);
  bufs[1].assign(nt, -1);
  std::vector<std::atomic<int>> claims(
      static_cast<std::size_t>(panels) * tiles);
  std::atomic<int> failures{0};

  auto body = [&](int t) {
    auto pack_share = [&](long panel) {
      pipe.wait_buffer_free(panel);
      bufs[panel & 1][t] = panel;  // this thread's pack contribution
      pipe.pack_contribution_done(panel);
    };
    pack_share(0);
    for (long panel = 0; panel < panels; ++panel) {
      if (panel + 1 < panels) pack_share(panel + 1);
      pipe.wait_computable(panel);
      for (int other = 0; other < nt; ++other) {
        if (bufs[panel & 1][other] != panel) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
      const int count = tiles_of(panel);
      for (int tile = deck.claim(t, panel, count); tile >= 0;
           tile = deck.claim(t, panel, count)) {
        if (tile >= count) failures.fetch_add(1, std::memory_order_relaxed);
        claims[static_cast<std::size_t>(panel) * tiles + tile].fetch_add(
            1, std::memory_order_relaxed);
      }
      pipe.compute_contribution_done(panel);
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < nt; ++t) threads.emplace_back(body, t);
  for (auto& th : threads) th.join();

  EXPECT_EQ(failures.load(), 0)
      << "a compute phase observed a stale pack contribution";
  for (int p = 0; p < panels; ++p) {
    for (int tile = 0; tile < tiles; ++tile) {
      EXPECT_EQ(claims[static_cast<std::size_t>(p) * tiles + tile].load(),
                tile < tiles_of(p) ? 1 : 0)
          << "tile " << tile << " of panel " << p
          << " claimed the wrong number of times";
    }
  }
}

TEST(PackPipeline, HammerManyPanels) { hammer_pipeline(4, 200, 7, 7); }

TEST(PackPipeline, HammerMoreThreadsThanTiles) {
  hammer_pipeline(4, 100, 2, 2);
}

TEST(PackPipeline, HammerSinglePanel) { hammer_pipeline(4, 1, 5, 5); }

TEST(PackPipeline, HammerTwoThreads) { hammer_pipeline(2, 300, 3, 3); }

TEST(PackPipeline, HammerManyMoreTilesThanThreads) {
  // The 2D grid's regime: dozens of tiles per thread per panel, with the
  // narrow panels of a ragged last jc-block mixed in.
  hammer_pipeline(4, 100, 64, 17);
}

// ------------------------------------------------------ TileDeck (serial) --

TEST(TileDeck, OneThreadDrainsEveryDequeInStealOrder) {
  detail::TileDeck deck(4, 10);
  // Ownership is the contiguous split [t*10/4, (t+1)*10/4).
  EXPECT_EQ(deck.owned_lo(0, 10), 0);
  EXPECT_EQ(deck.owned_hi(0, 10), 2);
  EXPECT_EQ(deck.owned_lo(3, 10), 7);
  EXPECT_EQ(deck.owned_hi(3, 10), 10);

  const auto steals_before =
      detail::pipeline_stats().steals.load(std::memory_order_relaxed);
  std::vector<int> order;
  for (int tile = deck.claim(0, 0, 10); tile >= 0;
       tile = deck.claim(0, 0, 10)) {
    order.push_back(tile);
  }
  // Own deque front-to-back, then each victim's in steal order.
  const std::vector<int> expect = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  EXPECT_EQ(order, expect);
  // The 8 foreign claims counted as steals (deterministic: single caller).
  EXPECT_EQ(detail::pipeline_stats().steals.load(std::memory_order_relaxed) -
                steals_before,
            8u);
  EXPECT_EQ(deck.claim(0, 0, 10), -1);
}

TEST(TileDeck, EpochReArmsWithoutReset) {
  detail::TileDeck deck(2, 4);
  // Drain panel 0 entirely from thread 1.
  int count = 0;
  while (deck.claim(1, 0, 4) >= 0) ++count;
  EXPECT_EQ(count, 4);
  // Panel 1 starts over lock-free: stale panel-0 cursors re-arm on claim.
  std::vector<int> order;
  for (int tile = deck.claim(0, 1, 4); tile >= 0;
       tile = deck.claim(0, 1, 4)) {
    order.push_back(tile);
  }
  const std::vector<int> expect = {0, 1, 2, 3};
  EXPECT_EQ(order, expect);
}

TEST(TileDeck, NarrowPanelUsesItsOwnTileCount) {
  // A narrow last jc-block has fewer column tiles than the deck's maximum:
  // its panel splits and claims exactly that many, and the next full-width
  // panel re-arms at the full count.
  detail::TileDeck deck(2, 6);
  std::vector<int> order;
  for (int tile = deck.claim(1, 0, 3); tile >= 0;
       tile = deck.claim(1, 0, 3)) {
    order.push_back(tile);
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 0}));  // own [1,3), then t0's
  int count = 0;
  while (deck.claim(0, 1, 6) >= 0) ++count;
  EXPECT_EQ(count, 6);
}

TEST(TileDeck, EmptyOwnDequeStealsImmediately) {
  // 2 tiles across 4 threads: the rounding split gives ranges
  // [0,0), [0,1), [1,1), [1,2) — threads 0 and 2 own nothing and must steal
  // their first claim. Deterministic because the deck is drained serially.
  detail::TileDeck deck(4, 2);
  EXPECT_EQ(deck.owned_lo(0, 2), 0);
  EXPECT_EQ(deck.owned_hi(0, 2), 0);  // empty
  const int first = deck.claim(0, 0, 2);
  EXPECT_GE(first, 0);  // stolen from a victim
  const int second = deck.claim(0, 0, 2);
  EXPECT_GE(second, 0);
  EXPECT_NE(first, second);
  EXPECT_EQ(deck.claim(0, 0, 2), -1);
}

// --------------------------------------------------- ragged-shape corpus --

struct RaggedShape {
  int m, n, k;
  const char* why;
};

// The shapes the static panels_per_thread split handled worst. kc defaults
// to 256/384 depending on kernel, so k = 7 is a single sub-kc panel; with
// the 4-thread pool, m = 8 is fewer row tiles than threads for every mr.
const RaggedShape kRaggedCorpus[] = {
    {8191, 64, 128, "tall-skinny, m off the MC grid"},
    {64, 8191, 128, "wide, nc-panel heavy"},
    {8, 512, 64, "fewer row tiles than threads"},
    {300, 300, 7, "k < kc single-panel degenerate"},
};

template <typename T>
void expect_ragged_gemm_matches(Trans ta, Trans tb, const RaggedShape& s) {
  const int a_rows = ta == Trans::kNo ? s.m : s.k;
  const int a_cols = ta == Trans::kNo ? s.k : s.m;
  const int b_rows = tb == Trans::kNo ? s.k : s.n;
  const int b_cols = tb == Trans::kNo ? s.n : s.k;
  const auto a = random_matrix<T>(a_rows, a_cols, 11);
  const auto b = random_matrix<T>(b_rows, b_cols, 12);
  auto c = random_matrix<T>(s.m, s.n, 13);
  auto c_ref = c;

  gemm<T>(ta, tb, s.m, s.n, s.k, T(1.25), a.data(), a_cols, b.data(), b_cols,
          T(-0.5), c.data(), s.n, 0);
  reference_gemm<T>(ta, tb, s.m, s.n, s.k, T(1.25), a.data(), a_cols,
                    b.data(), b_cols, T(-0.5), c_ref.data(), s.n);

  const double tol =
      (std::is_same_v<T, float> ? 1e-4 : 1e-11) * std::max(1, s.k);
  for (long i = 0; i < static_cast<long>(s.m) * s.n; ++i) {
    ASSERT_NEAR(static_cast<double>(c[i]), static_cast<double>(c_ref[i]), tol)
        << s.why << ": mismatch at linear index " << i;
  }
}

TEST(RaggedShapes, GemmAllTransCombosFloat) {
  for (const auto& s : kRaggedCorpus) {
    for (const Trans ta : {Trans::kNo, Trans::kYes}) {
      for (const Trans tb : {Trans::kNo, Trans::kYes}) {
        expect_ragged_gemm_matches<float>(ta, tb, s);
      }
    }
  }
}

TEST(RaggedShapes, GemmAllTransCombosDouble) {
  for (const auto& s : kRaggedCorpus) {
    for (const Trans ta : {Trans::kNo, Trans::kYes}) {
      for (const Trans tb : {Trans::kNo, Trans::kYes}) {
        expect_ragged_gemm_matches<double>(ta, tb, s);
      }
    }
  }
}

TEST(RaggedShapes, ResultsBitIdenticalAcrossThreadCountsAndRuns) {
  // The steal deck reorders which THREAD computes a tile, never the
  // per-element arithmetic: every (thread count, run) pair must agree bit
  // for bit, including the serial path (same blocking, same accumulation
  // order).
  const int m = 517, n = 203, k = 131;  // off every blocking grid
  const auto a = random_matrix<float>(m, k, 21);
  const auto b = random_matrix<float>(k, n, 22);
  const auto c0 = random_matrix<float>(m, n, 23);

  auto run = [&](int nthreads) {
    auto c = c0;
    gemm<float>(Trans::kNo, Trans::kNo, m, n, k, 1.5f, a.data(), k, b.data(),
                n, 0.25f, c.data(), n, nthreads);
    return c;
  };

  const auto reference_run = run(1);
  for (const int nthreads : {1, 2, 3, 4}) {
    for (int rep = 0; rep < 3; ++rep) {
      const auto c = run(nthreads);
      ASSERT_EQ(std::memcmp(c.data(), reference_run.data(),
                            c.size() * sizeof(float)),
                0)
          << "nthreads=" << nthreads << " rep=" << rep;
    }
  }
}

/// Tiles the pipelined loop must compute for one GEMM call: every (jc, pc)
/// panel computes each tile of its jc-block's grid once.
long expected_grid_tiles(const detail::TileGrid& grid,
                         const detail::BlockGeom& g, int n, int k) {
  const long pc_steps = (k + g.kc - 1) / g.kc;
  long tiles = 0;
  for (int jc = 0; jc < n; jc += g.nc) {
    tiles += pc_steps * grid.tiles(std::min(g.nc, n - jc));
  }
  return tiles;
}

TEST(RaggedShapes, PipelineCountersMatchSchedule) {
  // tiles/panels are schedule invariants: every (jc, pc) panel is packed
  // once and every tile of its grid computed once, no matter which thread
  // got it. Deterministic even under stealing. The second shape has a
  // narrow last jc-block, whose panels carry fewer column tiles — counted
  // exactly, not padded with empty tiles.
  auto& stats = detail::pipeline_stats();
  const std::size_t p = std::min<std::size_t>(
      4, ThreadPool::global().max_threads());
  if (p < 2) GTEST_SKIP() << "needs a multi-thread pool";
  const auto& ks = kernels::kernel_set<float>();

  struct Case {
    int m, n, k, mc, kc, nc;
  };
  for (const Case cs : {Case{1201, 640, 512, 256, 128, 320},
                        Case{32, 9 * ks.nr + 5, 300, 0, 128, 4 * ks.nr}}) {
    const auto a = random_matrix<float>(cs.m, cs.k, 31);
    const auto b = random_matrix<float>(cs.k, cs.n, 32);
    auto c = random_matrix<float>(cs.m, cs.n, 33);
    GemmTuning tuning;
    tuning.mc = cs.mc;
    tuning.kc = cs.kc;
    tuning.nc = cs.nc;
    const detail::BlockGeom g = detail::block_geometry(ks, tuning);
    const detail::TileGrid grid =
        detail::make_tile_grid(p, cs.m, cs.n, g, ks.mr, ks.nr);

    const auto panels_before = stats.panels.load(std::memory_order_relaxed);
    const auto tiles_before = stats.tiles.load(std::memory_order_relaxed);
    gemm<float>(Trans::kNo, Trans::kNo, cs.m, cs.n, cs.k, 1.0f, a.data(),
                cs.k, b.data(), cs.n, 0.0f, c.data(), cs.n,
                static_cast<int>(p), tuning);
    const auto panels =
        stats.panels.load(std::memory_order_relaxed) - panels_before;
    const auto tiles = stats.tiles.load(std::memory_order_relaxed) -
                       tiles_before;

    const long jc_steps = (cs.n + g.nc - 1) / g.nc;
    const long pc_steps = (cs.k + g.kc - 1) / g.kc;
    EXPECT_EQ(panels, static_cast<std::uint64_t>(jc_steps * pc_steps));
    EXPECT_EQ(tiles, static_cast<std::uint64_t>(
                         expected_grid_tiles(grid, g, cs.n, cs.k)))
        << "m=" << cs.m << " n=" << cs.n;
    if (cs.m == 32) {
      // Small m: the grid splits columns, and the narrow last jc-block
      // (5 columns wide) gets exactly one column tile per row tile.
      EXPECT_GT(grid.col_tiles(g.nc), 1);
      EXPECT_EQ(grid.col_tiles(cs.n % g.nc), 1);
    }
  }
}

// ------------------------------------------------------------ tile grid --

TEST(TileGrid, SmallMSplitsColumnsToTwiceTheThreads) {
  // AVX-512 fp32 geometry (MR 14, NR 32, MC 224, NC 2048): the m = 32
  // conv layer has 3 MR strips, so the 4-thread grid splits each NC block
  // into 3 column tiles of 9 NR panels — 9 tiles for 8 wanted.
  const detail::BlockGeom g{224, 512, 2048};
  const auto grid = detail::make_tile_grid(4, 32, 784, g, 14, 32);
  EXPECT_EQ(grid.mt, 14);
  EXPECT_EQ(grid.row_tiles, 3);
  EXPECT_EQ(grid.nw, 9 * 32);
  EXPECT_EQ(grid.col_tiles(784), 3);
  EXPECT_EQ(grid.max_tiles, 9);
  EXPECT_EQ(grid.row_extent(2), 4);  // 32 = 14 + 14 + 4
  // Enough rows: no column split, the tallest height giving 8 row tiles.
  const auto tall = detail::make_tile_grid(4, 1000, 784, g, 14, 32);
  EXPECT_EQ(tall.mt, 14 * 9);
  EXPECT_EQ(tall.col_tiles(784), 1);
  EXPECT_GE(tall.row_tiles, 8);
  // One thread wants 2 tiles: a single MC block is split in two.
  const auto serial = detail::make_tile_grid(1, 224, 784, g, 14, 32);
  EXPECT_EQ(serial.tiles(784), 2);
}

TEST(TileGrid, TilesCoverRowsOnTheLatticeInsideMcBlocks) {
  // For every shape: row tiles partition [0, rows) in order, each a
  // multiple of MR tall except at a block or matrix edge, never crossing
  // an MC boundary; column tiles are NR multiples within NC.
  for (const auto& [mr, nr] : {std::pair{14, 32}, std::pair{6, 8}}) {
    const detail::BlockGeom g{mr * 16, 64, nr * 8};
    for (std::size_t p = 1; p <= 4; ++p) {
      for (int rows = 1; rows <= 3 * g.mc + 1; rows += 7) {
        for (const int cols : {1, nr - 1, nr + 1, g.nc, 3 * g.nc + 5}) {
          const auto grid = detail::make_tile_grid(p, rows, cols, g, mr, nr);
          ASSERT_EQ(grid.mt % mr, 0);
          ASSERT_LE(grid.mt, g.mc);
          ASSERT_EQ(grid.nw % nr, 0);
          ASSERT_LE(grid.nw, g.nc);
          int next = 0;
          for (int r = 0; r < grid.row_tiles; ++r) {
            const int lo = grid.row_lo(r);
            const int extent = grid.row_extent(r);
            ASSERT_EQ(lo, next) << "rows=" << rows << " r=" << r;
            ASSERT_GT(extent, 0);
            ASSERT_EQ(lo / g.mc, (lo + extent - 1) / g.mc)
                << "row tile crosses an MC block";
            ASSERT_EQ(lo % mr, 0);
            next = lo + extent;
          }
          ASSERT_EQ(next, rows) << "p=" << p << " cols=" << cols;
          // A tile for every thread wherever the MR x NR lattice of the
          // widest panel has that many micro-tiles.
          const long strips = (rows + mr - 1) / mr;
          const long widest = std::min(g.nc, cols);
          const long lattice = strips * ((widest + nr - 1) / nr);
          ASSERT_EQ(grid.max_tiles, grid.tiles(static_cast<int>(widest)));
          ASSERT_GE(grid.max_tiles,
                    std::min<long>(static_cast<long>(p), lattice))
              << "rows=" << rows << " cols=" << cols << " p=" << p;
        }
      }
    }
  }
}

// ------------------------------------- bit identity across thread counts --

/// Runs `call(out, p)` on a fresh copy of `init` for p = 1..4 and requires
/// every result to match p = 1 bit for bit.
template <typename T, typename Call>
void expect_identical_across_p(const std::string& what,
                               const std::vector<T>& init, Call&& call) {
  auto serial = init;
  call(serial.data(), 1);
  for (const int p : {1, 2, 3, 4}) {
    auto out = init;
    call(out.data(), p);
    ASSERT_EQ(std::memcmp(out.data(), serial.data(), out.size() * sizeof(T)),
              0)
        << what << ": p=" << p << " differs from p=1";
  }
}

template <typename T>
void gemm_identical_across_p(int m, int n, int k, Trans ta, Trans tb,
                             const GemmTuning& tuning = {}) {
  const int a_cols = ta == Trans::kNo ? k : m;
  const int b_cols = tb == Trans::kNo ? n : k;
  const auto a = random_matrix<T>(ta == Trans::kNo ? m : k, a_cols, 71);
  const auto b = random_matrix<T>(tb == Trans::kNo ? k : n, b_cols, 72);
  const auto c0 = random_matrix<T>(m, n, 73);
  expect_identical_across_p<T>(
      "gemm " + std::to_string(m) + "x" + std::to_string(n) + "x" +
          std::to_string(k),
      c0, [&](T* c, int p) {
        gemm<T>(ta, tb, m, n, k, T(1.5), a.data(), a_cols, b.data(), b_cols,
                T(0.75), c, n, p, tuning);
      });
}

template <typename T>
void gemm_battery() {
  const auto& ks = kernels::kernel_set<T>();
  // m in {1, 16, 32, 64}: fewer MR strips than 2p, so columns split.
  for (const int m : {1, 16, 32, 64}) {
    gemm_identical_across_p<T>(m, 300, 200, Trans::kNo, Trans::kNo);
    gemm_identical_across_p<T>(m, 300, 200, Trans::kYes, Trans::kYes);
  }
  // m just below, at and above MC: the last MC block empty, full, one row.
  for (const int m : {ks.mc - 1, ks.mc, ks.mc + 1}) {
    gemm_identical_across_p<T>(m, 150, 90, Trans::kNo, Trans::kNo);
  }
  // Ragged n around NR and NC; with a small NC the last jc-block is narrow.
  for (const int n : {ks.nr - 1, ks.nr, ks.nr + 1, ks.nc - 1, ks.nc + 1}) {
    gemm_identical_across_p<T>(40, n, 64, Trans::kNo, Trans::kNo);
  }
  GemmTuning narrow;
  narrow.kc = 48;
  narrow.nc = 3 * ks.nr;
  for (const int n : {7 * ks.nr + 3, 6 * ks.nr + 1}) {
    gemm_identical_across_p<T>(50, n, 130, Trans::kNo, Trans::kYes, narrow);
  }
}

TEST(BitIdentity, GemmAcrossThreadCountsFloat) { gemm_battery<float>(); }

TEST(BitIdentity, GemmAcrossThreadCountsDouble) { gemm_battery<double>(); }

template <typename T>
void symm_trmm_battery() {
  // n > kc, so the row tiles cross kc panels: the default blocking at
  // n = kc + 88, and a small explicit kc/nc.
  const auto& ks = kernels::kernel_set<T>();
  GemmTuning small;
  small.kc = 40;
  small.nc = 2 * ks.nr;
  for (const auto& [n, m, tuning] :
       {std::tuple{ks.kc + 88, 70, GemmTuning{}},
        std::tuple{150, 5 * ks.nr + 3, small}, std::tuple{30, 400, small}}) {
    const auto a = random_matrix<T>(n, n, 81);
    const auto b = random_matrix<T>(n, m, 82);
    const auto c0 = random_matrix<T>(n, m, 83);
    const std::string shape = std::to_string(n) + "x" + std::to_string(m);
    for (const Uplo uplo : {Uplo::kLower, Uplo::kUpper}) {
      expect_identical_across_p<T>("symm " + shape, c0, [&](T* c, int p) {
        symm<T>(uplo, n, m, T(1.25), a.data(), n, b.data(), m, T(-0.5), c, m,
                p, tuning);
      });
      for (const Trans trans : {Trans::kNo, Trans::kYes}) {
        expect_identical_across_p<T>("trmm " + shape, b, [&](T* out, int p) {
          trmm<T>(uplo, trans, Diag::kNonUnit, n, m, T(1.25), a.data(), n,
                  out, m, p, tuning);
        });
      }
    }
  }
}

TEST(BitIdentity, SymmTrmmAcrossThreadCountsFloat) {
  symm_trmm_battery<float>();
}

TEST(BitIdentity, SymmTrmmAcrossThreadCountsDouble) {
  symm_trmm_battery<double>();
}

TEST(BitIdentity, TrmmSkipGranularityWithInfInB) {
  // The serial loop skips a kc panel per MC block. A row tile of the
  // parallel grid sits below the diagonal of its MC block, so a finer,
  // per-tile skip would drop panels the serial loop computes against the
  // zero-padded A — harmless for finite B, but 0 * Inf is NaN, so an Inf
  // in B would make the result depend on p. kc = 32 puts the Inf's panel
  // (rows 96..127) past the first row tiles but inside the first MC block.
  const int n = 300, m = 40;
  GemmTuning tuning;
  tuning.kc = 32;
  const auto a = random_matrix<float>(n, n, 91);
  auto b = random_matrix<float>(n, m, 92);
  b[100 * m + 5] = std::numeric_limits<float>::infinity();
  for (const Uplo uplo : {Uplo::kLower, Uplo::kUpper}) {
    for (const Trans trans : {Trans::kNo, Trans::kYes}) {
      expect_identical_across_p<float>("trmm inf", b, [&](float* out, int p) {
        trmm<float>(uplo, trans, Diag::kNonUnit, n, m, 2.0f, a.data(), n, out,
                    m, p, tuning);
      });
    }
  }
}

// ----------------------------------------------- SYMM / TRMM through it --

TEST(RaggedShapes, SymmMatchesReference) {
  for (const auto [n, m] : {std::pair{131, 257}, std::pair{8, 512},
                            std::pair{257, 33}}) {
    for (const Uplo uplo : {Uplo::kLower, Uplo::kUpper}) {
      const auto a = random_matrix<float>(n, n, 41);
      const auto b = random_matrix<float>(n, m, 42);
      auto c = random_matrix<float>(n, m, 43);
      auto c_ref = c;
      symm<float>(uplo, n, m, 1.5f, a.data(), n, b.data(), m, -0.5f,
                  c.data(), m, 0);
      reference_symm<float>(uplo, n, m, 1.5f, a.data(), n, b.data(), m,
                            -0.5f, c_ref.data(), m);
      const double tol = 1e-4 * n;
      for (long i = 0; i < static_cast<long>(n) * m; ++i) {
        ASSERT_NEAR(c[i], c_ref[i], tol)
            << "n=" << n << " m=" << m << " i=" << i;
      }
    }
  }
}

TEST(RaggedShapes, TrmmMatchesReference) {
  for (const auto [n, m] : {std::pair{131, 257}, std::pair{8, 512},
                            std::pair{257, 33}}) {
    for (const Uplo uplo : {Uplo::kLower, Uplo::kUpper}) {
      for (const Trans trans : {Trans::kNo, Trans::kYes}) {
        const auto a = random_matrix<float>(n, n, 51);
        auto b = random_matrix<float>(n, m, 52);
        auto b_ref = b;
        trmm<float>(uplo, trans, Diag::kNonUnit, n, m, 1.25f, a.data(), n,
                    b.data(), m, 0);
        reference_trmm<float>(uplo, trans, Diag::kNonUnit, n, m, 1.25f,
                              a.data(), n, b_ref.data(), m);
        const double tol = 1e-4 * n;
        for (long i = 0; i < static_cast<long>(n) * m; ++i) {
          ASSERT_NEAR(b[i], b_ref[i], tol)
              << "n=" << n << " m=" << m << " i=" << i;
        }
      }
    }
  }
}

// ------------------------------------------------------------ arena NUMA --

TEST(ArenaStats, SurfacesPlacementAndSizes) {
  // The env is parsed once per process, so this asserts the resolved
  // default (or whatever the CI job forced via ADSALA_NUMA) is surfaced
  // coherently, not a specific mode.
  auto& arena = PackArena::global();
  // Force at least one carve so the sizes are non-trivial.
  arena.thread_slab<float>(1024);
  const auto stats = arena.arena_stats();
  const std::string mode = stats.numa_mode;
  EXPECT_TRUE(mode == "firsttouch" || mode == "node" || mode == "off")
      << "mode=" << mode;
  if (mode == "node") {
    EXPECT_GE(stats.numa_node, 0);
  } else {
    EXPECT_EQ(stats.numa_node, -1);
  }
  if (!stats.numa_available) EXPECT_FALSE(stats.numa_bound);
  EXPECT_GE(stats.thread_bytes, 1024 * sizeof(float));
  EXPECT_EQ(stats.shared_bytes + stats.thread_bytes,
            arena.footprint_bytes());
  EXPECT_GE(stats.growth_count, 1u);
}

TEST(ArenaStats, GrowthCountStableAcrossRepeatedPipelinedCalls) {
  // The zero-allocation hot path must survive the ping/pong carve: two
  // identical pipelined GEMMs after a warm-up allocate nothing.
  const int dim = 192;
  const auto a = random_matrix<float>(dim, dim, 61);
  const auto b = random_matrix<float>(dim, dim, 62);
  auto c = random_matrix<float>(dim, dim, 63);
  auto call = [&] {
    gemm<float>(Trans::kNo, Trans::kNo, dim, dim, dim, 1.0f, a.data(), dim,
                b.data(), dim, 0.0f, c.data(), dim, 0);
  };
  call();  // warm
  const auto before = PackArena::global().growth_count();
  call();
  call();
  EXPECT_EQ(PackArena::global().growth_count(), before);
}

}  // namespace
}  // namespace adsala::blas

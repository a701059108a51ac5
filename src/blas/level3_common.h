// Shared driver plumbing for the five level-3 ops.
//
// Every blocked driver runs the same prologue: validate, resolve the thread
// count against the pool, serve degenerate calls with a parallel scale pass,
// resolve the cache blocking against the dispatched kernel's geometry, and
// carve packing scratch out of the PackArena. Before this header each op
// restated that sequence, and the restatements had begun to drift — GEMM's
// degenerate beta pass ran before its tuning sanitisation while SYRK's ran
// before the kernel-geometry guard, so an ordering bug fixed in one op could
// silently survive in another. The helpers pin one order for all five:
//
//   validate -> empty-output return -> resolve_threads -> degenerate scale
//   pass (k == 0 / alpha == 0) -> block_geometry -> arena carve -> macro loop
//
// The degenerate pass deliberately stays *ahead* of block_geometry: it must
// not depend on tuning fields (a beta-only call with a nonsense tuning.kc is
// still a valid BLAS call), and hoisting it here makes that invariant
// structural instead of per-file.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <new>

#include "blas/gemm.h"
#include "blas/kernels/kernel_set.h"
#include "blas/pack_pipeline.h"
#include "common/aligned_buffer.h"
#include "common/pack_arena.h"
#include "common/thread_pool.h"

namespace adsala::blas::detail {

/// Resolves a user thread-count request: <= 0 means the pool maximum, and
/// the result is clamped to [1, max_threads()] and (when row_cap >= 0) to
/// the number of partitionable rows. A call arriving from inside a parallel
/// region resolves to 1 outright — the pool would degrade the region to
/// serial anyway, and the partition / barrier / scratch sizing must all see
/// that as ONE thread (sizing them for p while fn(0, 1) runs would leave
/// p-1 row chunks untouched).
inline std::size_t resolve_threads(int nthreads, long row_cap = -1) {
  if (ThreadPool::in_region()) return 1;
  ThreadPool& pool = ThreadPool::global();
  std::size_t p = nthreads <= 0 ? pool.max_threads()
                                : static_cast<std::size_t>(nthreads);
  p = std::clamp<std::size_t>(p, 1, pool.max_threads());
  if (row_cap >= 0) {
    p = std::min<std::size_t>(
        p, static_cast<std::size_t>(std::max<long>(1, row_cap)));
  }
  return p;
}

/// Cache blocking resolved against the dispatched kernel: explicit positive
/// tuning fields win, zero / negative fields fall back to the kernel's
/// preferred blocking, and the result is rounded to the MR/NR geometry.
struct BlockGeom {
  int mc = 0;
  int kc = 0;
  int nc = 0;
};

template <typename T>
BlockGeom block_geometry(const kernels::KernelSet<T>& ks,
                         const GemmTuning& tuning) {
  const int mc_req = tuning.mc > 0 ? tuning.mc : ks.mc;
  const int kc_req = tuning.kc > 0 ? tuning.kc : ks.kc;
  const int nc_req = tuning.nc > 0 ? tuning.nc : ks.nc;
  BlockGeom g;
  g.mc = std::max(ks.mr, mc_req - mc_req % ks.mr);
  g.kc = std::max(1, kc_req);
  g.nc = std::max(ks.nr, nc_req - nc_req % ks.nr);
  return g;
}

/// One participant's private packed-panel scratch, carved from the calling
/// thread's arena slab in a single call (the one-carve-per-op contract:
/// a second thread_slab call could grow the slab and invalidate the first
/// pointer). `col_span` is the widest column range this participant's B
/// panels can cover (n for GEMM/SYMM-style macro-loops, the triangle's
/// column extent for SYRK). `extra_padded` prepends that many already-
/// padded elements for op-specific scratch (TRMM's dense copy); the A
/// panels start right after it.
template <typename T>
struct PanelCarve {
  T* extra = nullptr;
  T* a_pack = nullptr;
  T* b_pack = nullptr;
  /// Non-null only on the degraded path: arena growth threw bad_alloc and
  /// the carve fell back to a per-call buffer (the PR-5 huge-TRMM fallback
  /// generalised to every op). shared_ptr keeps the struct copyable — the
  /// drivers pass carves by value into their macro loops.
  std::shared_ptr<AlignedBuffer<T>> fallback;
};

/// Elements of one participant's packed-A block: full MR-row micro-panels
/// covering mc rows at depth kc.
template <typename T>
std::size_t a_panel_elems(const kernels::KernelSet<T>& ks, int mc, int kc) {
  return static_cast<std::size_t>((mc + ks.mr - 1) / ks.mr) * ks.mr * kc;
}

/// Elements of a packed-B block spanning min(nc, col_span) columns at depth
/// kc: full NR-column micro-panels. The single source of the sizing for
/// both the private carve below and GEMM's orchestrator-sized shared slab.
template <typename T>
std::size_t b_panel_elems(const kernels::KernelSet<T>& ks, int nc,
                          int col_span, int kc) {
  const int b_panels = (std::min(nc, col_span) + ks.nr - 1) / ks.nr;
  return static_cast<std::size_t>(b_panels) * kc * ks.nr;
}

template <typename T>
PanelCarve<T> carve_private_panels(const kernels::KernelSet<T>& ks, int mc,
                                   int kc, int nc, int col_span,
                                   std::size_t extra_padded = 0) {
  const std::size_t a_padded =
      PackArena::padded_count<T>(a_panel_elems(ks, mc, kc));
  const std::size_t total =
      extra_padded + a_padded + b_panel_elems(ks, nc, col_span, kc);
  PanelCarve<T> carve;
  T* slab = nullptr;
  try {
    slab = PackArena::global().thread_slab<T>(total);
  } catch (const std::bad_alloc&) {
    // Arena growth failed (genuine exhaustion or the `arena-oom`
    // failpoint): serve this call from a per-call buffer instead of
    // failing it. If even that throws, the exception-safe ThreadPool
    // rethrows on the calling thread — never std::terminate.
    carve.fallback = std::make_shared<AlignedBuffer<T>>(total);
    slab = carve.fallback->data();
  }
  carve.extra = slab;
  carve.a_pack = slab + extra_padded;
  carve.b_pack = carve.a_pack + a_padded;
  return carve;
}

/// Shared-slab sibling of the carve fallback: returns the arena's shared
/// slab, degrading to a per-call buffer (kept alive through `fallback`)
/// when growth throws. Call from the orchestrating thread before the
/// region opens, exactly like PackArena::shared_slab itself.
template <typename T>
T* shared_slab_or_fallback(std::size_t count,
                           std::shared_ptr<AlignedBuffer<T>>& fallback) {
  try {
    return PackArena::global().shared_slab<T>(count);
  } catch (const std::bad_alloc&) {
    fallback = std::make_shared<AlignedBuffer<T>>(count);
    return fallback->data();
  }
}

/// Thread-slab sibling, for participants that carve a bare A block instead
/// of going through carve_private_panels (GEMM's cooperative-B layout).
template <typename T>
T* thread_slab_or_fallback(std::size_t count,
                           std::shared_ptr<AlignedBuffer<T>>& fallback) {
  try {
    return PackArena::global().thread_slab<T>(count);
  } catch (const std::bad_alloc&) {
    fallback = std::make_shared<AlignedBuffer<T>>(count);
    return fallback->data();
  }
}

/// Ping/pong pair of equally-sized shared-slab carves: the double-buffered
/// B panels of the pack pipeline. One shared_slab call covers both halves
/// (a second call could grow the slab and invalidate the first pointer);
/// padded_count keeps the pong half 64-byte aligned. Degrades to one
/// per-call buffer (kept alive through `fallback`) when arena growth
/// throws, exactly like shared_slab_or_fallback. Call from the
/// orchestrating thread before the region opens.
template <typename T>
struct SharedPair {
  T* bufs[2] = {nullptr, nullptr};
  std::shared_ptr<AlignedBuffer<T>> fallback;
};

template <typename T>
SharedPair<T> carve_shared_pair(std::size_t count) {
  const std::size_t padded = PackArena::padded_count<T>(count);
  SharedPair<T> pair;
  T* base = shared_slab_or_fallback<T>(2 * padded, pair.fallback);
  pair.bufs[0] = base;
  pair.bufs[1] = base + padded;
  return pair;
}

/// The 2D tile grid each panel of the pipelined macro-loop is split into.
/// Row tiles are `mt` rows tall and nest inside the MC blocks of the
/// resolved blocking (a block of mc rows holds ceil(mc / mt) of them, the
/// last one short); column tiles split each NC block into `nw`-wide runs of
/// NR panels, the last one short. Both sizes are multiples of the kernel's
/// MR / NR, so every tile sits on the same global MR x NR micro-tile
/// lattice as the serial macro-loop: each C element gets the same kernel
/// calls, with the same panel depths, in the same kc order, whatever the
/// thread count — which is why results are bit-identical across p.
///
/// Tiles of one panel are numbered column-fastest: tile = r * col_tiles + c.
struct TileGrid {
  int mc = 0;               ///< resolved MC: the blocks row tiles nest in
  int mt = 0;               ///< tile height, a multiple of MR, <= mc
  int nw = 0;               ///< tile width, a multiple of NR, <= NC
  int rows = 0;             ///< rows of C the grid covers
  int tiles_per_block = 0;  ///< row tiles in one full MC block
  int row_tiles = 0;        ///< row tiles over all rows
  int max_tiles = 0;        ///< tiles of the widest panel: the deck's size

  /// Column tiles of a panel whose jc-block is nc_eff wide.
  int col_tiles(int nc_eff) const { return (nc_eff + nw - 1) / nw; }
  int tiles(int nc_eff) const { return row_tiles * col_tiles(nc_eff); }
  /// Rows [ic, ic + mc_eff) of row tile r.
  int row_lo(int r) const {
    return r / tiles_per_block * mc + r % tiles_per_block * mt;
  }
  int row_extent(int r) const {
    const int ic = row_lo(r);
    const int block_hi = std::min(rows, ic - ic % mc + mc);
    return std::min(mt, block_hi - ic);
  }
};

/// Sizes the tile grid for one call at p threads: about 2p tiles per panel
/// (never fewer than p where the MR x NR lattice has p micro-tiles), so
/// stealing has slack to even out ragged tiles and packing duty. Rows
/// split first, at the tallest MR-multiple height (at most mc) that still
/// gives 2p row tiles. Only a call with fewer than 2p row tiles — the
/// small-m calls a row-only split leaves on one or two threads — splits
/// each NC block's NR panels too, into about as many equal column tiles as
/// it takes to reach 2p tiles.
inline TileGrid make_tile_grid(std::size_t p, int rows, int cols,
                               const BlockGeom& g, int mr, int nr) {
  const long target = 2 * static_cast<long>(p);
  const long strips = (rows + mr - 1) / mr;
  TileGrid grid;
  grid.mc = g.mc;
  grid.rows = rows;
  grid.mt = static_cast<int>(
      std::min<long>(g.mc, mr * std::max<long>(1, strips / target)));
  grid.tiles_per_block = (g.mc + grid.mt - 1) / grid.mt;
  grid.row_tiles = rows / g.mc * grid.tiles_per_block +
                   (rows % g.mc + grid.mt - 1) / grid.mt;
  const long col_split = grid.row_tiles >= target
                             ? 1
                             : (target + grid.row_tiles - 1) / grid.row_tiles;
  const int widest = std::min(g.nc, cols);
  const long col_panels = (widest + nr - 1) / nr;
  grid.nw = static_cast<int>(nr * ((col_panels + col_split - 1) / col_split));
  grid.max_tiles = grid.tiles(widest);
  return grid;
}

/// The pipelined level-3 macro-loop, run by EVERY participant of a parallel
/// region (GEMM first, and the SYMM/TRMM loops that share its structure).
/// Enumerates the (jc, pc) panel grid in order; for each panel the
/// cooperative pack of the NEXT panel proceeds into the other half of the
/// ping/pong pair while this panel is computed, and the panel's TileGrid
/// tiles are claimed through the stealable deck instead of a static split.
///
///   pack_chunk(jc, pc, kc_eff, q, dst)
///     packs NR-column micro-panel q (columns [jc + q*nr, ...)) of the
///     kc_eff-deep B block into dst (contiguous kc_eff * nr elements).
///   tile_op(jc, pc, nc_eff, kc_eff, first_panel_of_jc, ic, mc_eff, b_buf)
///     computes C rows [ic, ic+mc_eff) x columns [jc, jc+nc_eff) against
///     the packed B block at b_buf. For a column tile, jc / nc_eff / b_buf
///     describe the tile's own sub-block (jc + j0, its width, and the
///     packed B offset by its first NR panel), so the callee cannot tell it
///     from a full-width block. `first_panel_of_jc` is true on the
///     jc-block's first pc iteration — where a driver folds its beta scale
///     into the tile, first-touch style, so no separate pre-scale barrier
///     orders against the stolen tiles.
///
/// The caller sizes each half of `b_bufs` for the widest panel
/// (b_panel_elems at the resolved kc/nc) and the deck for grid.max_tiles;
/// within a panel the packed layout is q * kc_eff * nr, matching the
/// pre-pipeline cooperative pack.
template <typename T, typename PackChunkFn, typename TileOpFn>
void pipelined_macro_loop(std::size_t tid, std::size_t nt, int cols, int kdim,
                          const BlockGeom& g, const TileGrid& grid, int nr,
                          T* const (&b_bufs)[2], PackPipeline& pipe,
                          TileDeck& deck, PackChunkFn&& pack_chunk,
                          TileOpFn&& tile_op) {
  const int t = static_cast<int>(tid);
  const long pc_steps = (kdim + g.kc - 1) / g.kc;
  const long jc_steps = (cols + g.nc - 1) / g.nc;
  const long total_panels = jc_steps * pc_steps;

  PipelineStats& stats = pipeline_stats();
  const bool timed = stats.timing_enabled.load(std::memory_order_relaxed);
  std::uint64_t pack_ns = 0, compute_ns = 0, tiles_done = 0;

  // This thread's static share of one panel's cooperative pack: NR-panel
  // chunks [share_lo(q_panels), share_hi(q_panels)).
  const auto pack_share = [&](long panel) {
    const int jc = static_cast<int>(panel / pc_steps) * g.nc;
    const int pc = static_cast<int>(panel % pc_steps) * g.kc;
    const int nc_eff = std::min(g.nc, cols - jc);
    const int kc_eff = std::min(g.kc, kdim - pc);
    const int q_panels = (nc_eff + nr - 1) / nr;
    const int q_lo = static_cast<int>(static_cast<long>(t) * q_panels /
                                      static_cast<long>(nt));
    const int q_hi = static_cast<int>(static_cast<long>(t + 1) * q_panels /
                                      static_cast<long>(nt));
    pipe.wait_buffer_free(panel);
    const std::uint64_t t0 = timed ? stats_now_ns() : 0;
    T* buf = b_bufs[panel & 1];
    for (int q = q_lo; q < q_hi; ++q) {
      pack_chunk(jc, pc, kc_eff, q, buf + static_cast<long>(q) * kc_eff * nr);
    }
    if (timed) pack_ns += stats_now_ns() - t0;
    pipe.pack_contribution_done(panel);
  };

  // Pipeline prologue: panel 0 is packed cooperatively before any compute.
  pack_share(0);

  for (long panel = 0; panel < total_panels; ++panel) {
    // Pack-ahead: panel+1 goes into the other buffer while panel computes.
    // The only steady-state wait inside pack_share is the previous panel
    // draining — one synchronisation point per panel, not two barriers.
    if (panel + 1 < total_panels) pack_share(panel + 1);

    pipe.wait_computable(panel);
    const int jc = static_cast<int>(panel / pc_steps) * g.nc;
    const int pc = static_cast<int>(panel % pc_steps) * g.kc;
    const int nc_eff = std::min(g.nc, cols - jc);
    const int kc_eff = std::min(g.kc, kdim - pc);
    const bool first_of_jc = pc == 0;
    const T* b_buf = b_bufs[panel & 1];
    const int col_tiles = grid.col_tiles(nc_eff);
    const int tiles = grid.row_tiles * col_tiles;
    const std::uint64_t t0 = timed ? stats_now_ns() : 0;
    for (int tile = deck.claim(t, panel, tiles); tile >= 0;
         tile = deck.claim(t, panel, tiles)) {
      const int r = tile / col_tiles;
      const int j0 = tile % col_tiles * grid.nw;
      tile_op(jc + j0, pc, std::min(grid.nw, nc_eff - j0), kc_eff,
              first_of_jc, grid.row_lo(r), grid.row_extent(r),
              b_buf + static_cast<long>(j0 / nr) * kc_eff * nr);
      ++tiles_done;
    }
    if (timed) compute_ns += stats_now_ns() - t0;
    pipe.compute_contribution_done(panel);
  }

  stats.tiles.fetch_add(tiles_done, std::memory_order_relaxed);
  if (timed) {
    stats.pack_ns.fetch_add(pack_ns, std::memory_order_relaxed);
    stats.compute_ns.fetch_add(compute_ns, std::memory_order_relaxed);
  }
}

/// Serial `row *= factor` over rows [row_lo, row_hi) of an ncols-wide
/// row-major block: factor == 1 is a no-op, factor == 0 stores zeros
/// outright so NaNs are flushed. THE row-scaling core — the ops' in-region
/// beta passes and the parallel degenerate pass below both delegate here,
/// so the flush/no-op semantics cannot drift between the macro loop and the
/// degenerate path of the same op.
template <typename T>
void scale_rows_range(T* c, long ldc, int row_lo, int row_hi, int ncols,
                      T factor) {
  if (factor == T(1)) return;
  for (int i = row_lo; i < row_hi; ++i) {
    T* row = c + i * ldc;
    if (factor == T(0)) {
      std::fill(row, row + ncols, T(0));
    } else {
      for (int j = 0; j < ncols; ++j) row[j] *= factor;
    }
  }
}

/// Parallel `row *= factor` pass over an nrows x ncols row-major block.
/// This is the whole of a degenerate level-3 call: GEMM/SYMM with k == 0 or
/// alpha == 0 reduce to C *= beta, TRMM with alpha == 0 to B = 0, and
/// TRSM's up-front right-hand-side scaling to B *= alpha.
template <typename T>
void scale_rows_pass(std::size_t p, int nrows, int ncols, T factor, T* c,
                     long ldc) {
  if (nrows <= 0 || ncols <= 0 || factor == T(1)) return;
  ThreadPool::global().parallel_region(
      p, [&](std::size_t tid, std::size_t nt) {
        const int chunk = static_cast<int>(
            (static_cast<std::size_t>(nrows) + nt - 1) / nt);
        const int lo = static_cast<int>(tid) * chunk;
        const int hi = std::min(nrows, lo + chunk);
        scale_rows_range(c, ldc, lo, hi, ncols, factor);
      });
}

}  // namespace adsala::blas::detail

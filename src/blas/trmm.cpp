#include "blas/trmm.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "blas/kernels/dispatch.h"
#include "blas/level3_common.h"
#include "blas/pack.h"
#include "blas/pack_pipeline.h"
#include "common/aligned_buffer.h"
#include "common/pack_arena.h"
#include "common/thread_pool.h"

namespace adsala::blas {

namespace {

/// Blocked product over B rows [row_lo, row_hi): the GEMM macro-loop with A
/// panels packed through the triangular expansion (pack_a_tri) and the
/// pre-copied B packed straight. The caller zeroed the owned B rows, so the
/// micro-kernels accumulate alpha * op(A) * B_copy into them slab by slab.
/// Slabs entirely outside a row block's triangle extent contribute only
/// zeros and are skipped, which is where TRMM's ~half-GEMM FLOP count comes
/// from.
template <typename T>
void trmm_rows_blocked(const kernels::KernelSet<T>& ks, bool trans,
                       bool lower_eff, bool unit, int n, int m, T alpha,
                       const T* a, int lda, const T* b_copy, T* b, int ldb,
                       int row_lo, int row_hi, int mc, int kc, int nc,
                       T* a_pack, T* b_pack) {
  if (row_lo >= row_hi) return;
  const int mr = ks.mr;
  const int nr = ks.nr;

  for (int jc = 0; jc < m; jc += nc) {
    const int nc_eff = std::min(nc, m - jc);
    const int nc_panels = (nc_eff + nr - 1) / nr;
    for (int pc = 0; pc < n; pc += kc) {
      const int kc_eff = std::min(kc, n - pc);
      // Triangle extent of the owned rows: a lower op(A) only reads columns
      // p <= row_hi - 1, an upper one only columns p >= row_lo.
      if (lower_eff ? pc >= row_hi : pc + kc_eff <= row_lo) continue;

      for (int q = 0; q < nc_panels; ++q) {
        const int j0 = jc + q * nr;
        const int cols = std::min(nr, m - j0);
        detail::pack_b<T>(b_copy + static_cast<long>(pc) * m + j0, m, kc_eff,
                          cols, nr,
                          b_pack + static_cast<long>(q) * kc_eff * nr);
      }

      for (int ic = row_lo; ic < row_hi; ic += mc) {
        const int mc_eff = std::min(mc, row_hi - ic);
        // Per-block triangle skip: this slab intersects rows [ic, ic+mc_eff)
        // of the triangle only if some (i, p) with p in the slab is stored.
        if (lower_eff ? pc >= ic + mc_eff : pc + kc_eff <= ic) continue;
        detail::pack_a_tri<T>(a, lda, trans, lower_eff, unit, ic, pc, mc_eff,
                              kc_eff, mr, a_pack);

        for (int jr = 0; jr < nc_eff; jr += nr) {
          const int cols = std::min(nr, nc_eff - jr);
          const T* b_panel =
              b_pack + static_cast<long>(jr / nr) * kc_eff * nr;
          for (int ir = 0; ir < mc_eff; ir += mr) {
            const int rows = std::min(mr, mc_eff - ir);
            const T* a_panel =
                a_pack + static_cast<long>(ir / mr) * kc_eff * mr;
            T* c_tile = b + static_cast<long>(ic + ir) * ldb + jc + jr;
            if (rows == mr && cols == nr) {
              ks.full(kc_eff, alpha, a_panel, b_panel, c_tile, ldb);
            } else {
              ks.edge(kc_eff, alpha, a_panel, b_panel, c_tile, ldb, rows,
                      cols);
            }
          }
        }
      }
    }
  }
}

/// Kernel sweep of one triangular-packed A block against one packed B
/// block, accumulating into B's rows [ic, ic+mc_eff).
template <typename T>
void trmm_macro_kernel(const kernels::KernelSet<T>& ks, int mc_eff,
                       int nc_eff, int kc_eff, T alpha, const T* a_pack,
                       const T* b_pack, T* c_block, int ldb) {
  const int mr = ks.mr;
  const int nr = ks.nr;
  for (int jr = 0; jr < nc_eff; jr += nr) {
    const int cols = std::min(nr, nc_eff - jr);
    const T* b_panel = b_pack + static_cast<long>(jr / nr) * kc_eff * nr;
    for (int ir = 0; ir < mc_eff; ir += mr) {
      const int rows = std::min(mr, mc_eff - ir);
      const T* a_panel = a_pack + static_cast<long>(ir / mr) * kc_eff * mr;
      T* c_tile = c_block + static_cast<long>(ir) * ldb + jr;
      if (rows == mr && cols == nr) {
        ks.full(kc_eff, alpha, a_panel, b_panel, c_tile, ldb);
      } else {
        ks.edge(kc_eff, alpha, a_panel, b_panel, c_tile, ldb, rows, cols);
      }
    }
  }
}

}  // namespace

template <typename T>
void trmm(Uplo uplo, Trans trans, Diag diag, int n, int m, T alpha,
          const T* a, int lda, T* b, int ldb, int nthreads,
          const GemmTuning& tuning) {
  if (n < 0 || m < 0) throw std::invalid_argument("trmm: negative dimension");
  if (lda < std::max(1, n) || ldb < std::max(1, m)) {
    throw std::invalid_argument("trmm: leading dimension too small");
  }
  if (n == 0 || m == 0) return;

  ThreadPool& pool = ThreadPool::global();
  const std::size_t p = detail::resolve_threads(nthreads, n);

  if (alpha == T(0)) {
    // Degenerate product: B = 0 (ahead of any tuning resolution, as in
    // every level-3 driver — see level3_common.h).
    detail::scale_rows_pass(p, n, m, T(0), b, static_cast<long>(ldb));
    return;
  }

  // op(A) is effectively lower triangular when the stored triangle and the
  // transpose flag agree (same rule as TRSM).
  const bool lower_eff = (uplo == Uplo::kLower) == (trans == Trans::kNo);

  const kernels::KernelSet<T>& ks = kernels::kernel_set<T>(tuning.variant);
  const auto [mc, kc, nc] = detail::block_geometry(ks, tuning);

  // In-place product: copy B densely (row stride m), then overwrite B with
  // alpha * op(A) * B_copy. Each thread owns a contiguous run of B rows; the
  // copy+zero pass and the accumulation need no cross-thread sync beyond the
  // barrier between the two parallel regions.
  //
  // Arena carve: the dense copy is read by every participant, so it lives in
  // the shared slab; each participant's private A/B panels come out of its
  // thread slab inside the region. The serial case carves all three out of
  // the caller's thread slab in one piece (one thread_slab call per op call
  // — a second call could grow and invalidate the first).
  //
  // Unlike the blocking-bounded pack panels, the dense copy is O(n * m) of
  // the *input*, and the arena is grow-only for the process lifetime — one
  // huge call must not pin that much scratch forever. Above the threshold
  // the copy falls back to a per-call buffer: the allocation then amortises
  // against O(n^2 * m) of compute, which is exactly when it is cheap. The
  // serial path carves from a *per-slot* slab (and every slot a nested
  // caller runs on can grow one), so its budget is 8x tighter than the
  // single shared slab's — still covering the small/medium repeated shapes
  // the arena exists for.
  constexpr std::size_t kMaxSharedCopyBytes = std::size_t{16} << 20;
  constexpr std::size_t kMaxThreadCopyBytes = kMaxSharedCopyBytes / 8;
  const std::size_t copy_elems = static_cast<std::size_t>(n) * m;
  const bool serial = p == 1;  // includes nested-region degradation
  const bool copy_in_arena =
      copy_elems * sizeof(T) <=
      (serial ? kMaxThreadCopyBytes : kMaxSharedCopyBytes);
  AlignedBuffer<T> copy_fallback;
  if (!copy_in_arena) copy_fallback = AlignedBuffer<T>(copy_elems);
  T* b_copy;
  detail::PanelCarve<T> serial_carve;
  detail::SharedPair<T> pair;                             // parallel only
  std::shared_ptr<AlignedBuffer<T>> shared_oom_fallback;  // arena-OOM degrade
  const std::size_t b_pack_elems = detail::b_panel_elems(ks, nc, m, kc);
  if (serial) {
    // One carve covers the copy (when it fits the per-thread budget) and
    // both panels.
    serial_carve = detail::carve_private_panels<T>(
        ks, mc, kc, nc, m,
        copy_in_arena ? PackArena::padded_count<T>(copy_elems) : 0);
    b_copy = copy_in_arena ? serial_carve.extra : copy_fallback.data();
  } else {
    // ONE shared-slab call covers the dense copy (when it fits the budget)
    // and both ping/pong pack halves: shared_slab always returns the slab
    // base, so a second call would alias the first carve (and could grow
    // the slab out from under it).
    const std::size_t pair_padded = PackArena::padded_count<T>(b_pack_elems);
    const std::size_t copy_padded =
        copy_in_arena ? PackArena::padded_count<T>(copy_elems) : 0;
    T* base = detail::shared_slab_or_fallback<T>(copy_padded + 2 * pair_padded,
                                                 shared_oom_fallback);
    b_copy = copy_in_arena ? base : copy_fallback.data();
    pair.bufs[0] = base + copy_padded;
    pair.bufs[1] = base + copy_padded + pair_padded;
  }

  pool.parallel_region(p, [&](std::size_t tid, std::size_t nt) {
    const int lo = static_cast<int>(tid * static_cast<std::size_t>(n) / nt);
    const int hi =
        static_cast<int>((tid + 1) * static_cast<std::size_t>(n) / nt);
    for (int i = lo; i < hi; ++i) {
      T* src = b + static_cast<long>(i) * ldb;
      std::copy(src, src + m, b_copy + static_cast<long>(i) * m);
      std::fill(src, src + m, T(0));
    }
  });
  if (serial) {
    trmm_rows_blocked(ks, trans == Trans::kYes, lower_eff,
                      diag == Diag::kUnit, n, m, alpha, a, lda, b_copy, b,
                      ldb, 0, n, mc, kc, nc, serial_carve.a_pack,
                      serial_carve.b_pack);
    return;
  }

  // Parallel accumulate pass: the pack pipeline and 2D tile grid shared
  // with GEMM (see blas/pack_pipeline.h). The pre-pipeline schedule gave
  // each thread an area-balanced triangle split and a private full-B pack;
  // the cooperative ping/pong pack copies each kc panel once, and the
  // triangle's load skew — the very thing the old triangle_split existed
  // for — is absorbed by tile stealing instead: a thread whose tiles sit
  // outside the panel's triangle extent finishes its skips instantly and
  // steals real work. Every kc panel intersects at least one MC block's
  // extent, so no panel-level skip is needed; TRMM's ~half-GEMM FLOP count
  // is preserved by the per-block skip below.
  const bool unit = diag == Diag::kUnit;
  const bool trans_eff = trans == Trans::kYes;
  const detail::BlockGeom g{mc, kc, nc};
  const std::size_t a_pack_elems = detail::a_panel_elems(ks, mc, kc);

  const detail::TileGrid grid =
      detail::make_tile_grid(p, n, m, g, ks.mr, ks.nr);
  detail::PackPipeline pipe(p);
  detail::TileDeck deck(p, grid.max_tiles);

  pool.parallel_region(p, [&](std::size_t tid, std::size_t nt) {
    std::shared_ptr<AlignedBuffer<T>> a_fallback;
    T* a_pack = detail::thread_slab_or_fallback<T>(a_pack_elems, a_fallback);

    detail::pipelined_macro_loop<T>(
        tid, nt, m, n, g, grid, ks.nr, pair.bufs, pipe, deck,
        [&](int jc, int pc, int kc_eff, int q, T* dst) {
          const int j0 = jc + q * ks.nr;
          const int cols = std::min(ks.nr, m - j0);
          detail::pack_b<T>(b_copy + static_cast<long>(pc) * m + j0, m,
                            kc_eff, cols, ks.nr, dst);
        },
        [&](int jc, int pc, int nc_eff, int kc_eff, bool /*first_of_jc*/,
            int ic, int mc_eff, const T* b_buf) {
          // Triangle skip, decided for the tile's enclosing MC block (grid
          // row tiles nest inside MC blocks): the slab contributes only
          // zeros to the block's rows when it lies outside their triangle
          // extent. The serial trmm_rows_blocked skips at the same
          // granularity; a finer, p-dependent one would still be right for
          // finite B, but would drop or keep 0 * Inf products depending on
          // p, so a non-finite B would make the result depend on p.
          const int block_lo = ic - ic % mc;
          const int block_hi = std::min(n, block_lo + mc);
          if (lower_eff ? pc >= block_hi : pc + kc_eff <= block_lo) return;
          detail::pack_a_tri<T>(a, lda, trans_eff, lower_eff, unit, ic, pc,
                                mc_eff, kc_eff, ks.mr, a_pack);
          trmm_macro_kernel<T>(ks, mc_eff, nc_eff, kc_eff, alpha, a_pack,
                               b_buf, b + static_cast<long>(ic) * ldb + jc,
                               ldb);
        });
  });
}

void strmm(Uplo uplo, Trans trans, Diag diag, int n, int m, float alpha,
           const float* a, int lda, float* b, int ldb, int nthreads) {
  trmm<float>(uplo, trans, diag, n, m, alpha, a, lda, b, ldb, nthreads);
}

void dtrmm(Uplo uplo, Trans trans, Diag diag, int n, int m, double alpha,
           const double* a, int lda, double* b, int ldb, int nthreads) {
  trmm<double>(uplo, trans, diag, n, m, alpha, a, lda, b, ldb, nthreads);
}

template <typename T>
void reference_trmm(Uplo uplo, Trans trans, Diag diag, int n, int m, T alpha,
                    const T* a, int lda, T* b, int ldb) {
  const bool lower_eff = (uplo == Uplo::kLower) == (trans == Trans::kNo);
  std::vector<T> copy(static_cast<std::size_t>(n) * m);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < m; ++j) {
      copy[static_cast<std::size_t>(i) * m + j] =
          b[static_cast<long>(i) * ldb + j];
    }
  }
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < m; ++j) {
      T acc = T(0);
      for (int p = 0; p < n; ++p) {
        if (lower_eff ? p > i : p < i) continue;
        T aip;
        if (p == i && diag == Diag::kUnit) {
          aip = T(1);
        } else {
          aip = trans == Trans::kYes ? a[static_cast<long>(p) * lda + i]
                                     : a[static_cast<long>(i) * lda + p];
        }
        acc += aip * copy[static_cast<std::size_t>(p) * m + j];
      }
      b[static_cast<long>(i) * ldb + j] = alpha * acc;
    }
  }
}

template void trmm<float>(Uplo, Trans, Diag, int, int, float, const float*,
                          int, float*, int, int, const GemmTuning&);
template void trmm<double>(Uplo, Trans, Diag, int, int, double, const double*,
                           int, double*, int, int, const GemmTuning&);
template void reference_trmm<float>(Uplo, Trans, Diag, int, int, float,
                                    const float*, int, float*, int);
template void reference_trmm<double>(Uplo, Trans, Diag, int, int, double,
                                     const double*, int, double*, int);

}  // namespace adsala::blas

#include "blas/symm.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "blas/kernels/dispatch.h"
#include "blas/level3_common.h"
#include "blas/pack.h"
#include "blas/pack_pipeline.h"
#include "common/pack_arena.h"
#include "common/thread_pool.h"

namespace adsala::blas {

namespace {

/// Inner kernel sweep of one packed-A block against one packed-B block,
/// shared by the serial and pipelined paths.
template <typename T>
void symm_macro_kernel(const kernels::KernelSet<T>& ks, int mc_eff,
                       int nc_eff, int kc_eff, T alpha, const T* a_pack,
                       const T* b_pack, T* c_block, int ldc) {
  const int mr = ks.mr;
  const int nr = ks.nr;
  for (int jr = 0; jr < nc_eff; jr += nr) {
    const int cols = std::min(nr, nc_eff - jr);
    const T* b_panel = b_pack + static_cast<long>(jr / nr) * kc_eff * nr;
    for (int ir = 0; ir < mc_eff; ir += mr) {
      const int rows = std::min(mr, mc_eff - ir);
      const T* a_panel = a_pack + static_cast<long>(ir / mr) * kc_eff * mr;
      T* c_tile = c_block + static_cast<long>(ir) * ldc + jr;
      if (rows == mr && cols == nr) {
        ks.full(kc_eff, alpha, a_panel, b_panel, c_tile, ldc);
      } else {
        ks.edge(kc_eff, alpha, a_panel, b_panel, c_tile, ldc, rows, cols);
      }
    }
  }
}

/// Serial blocked product over all C rows: the GEMM macro-loop with A
/// panels packed through the symmetric expansion (pack_a_sym) and B packed
/// straight, both panels private to the calling thread.
template <typename T>
void symm_serial(const kernels::KernelSet<T>& ks, Uplo uplo, int n, int m,
                 T alpha, const T* a, int lda, const T* b, int ldb, T beta,
                 T* c, int ldc, const detail::BlockGeom& g) {
  const int nr = ks.nr;
  const bool lower = uplo == Uplo::kLower;
  detail::scale_rows_range(c, static_cast<long>(ldc), 0, n, m, beta);

  const auto carve = detail::carve_private_panels<T>(ks, g.mc, g.kc, g.nc, m);
  T* a_pack = carve.a_pack;
  T* b_pack = carve.b_pack;

  for (int jc = 0; jc < m; jc += g.nc) {
    const int nc_eff = std::min(g.nc, m - jc);
    const int nc_panels = (nc_eff + nr - 1) / nr;
    for (int pc = 0; pc < n; pc += g.kc) {
      const int kc_eff = std::min(g.kc, n - pc);

      for (int q = 0; q < nc_panels; ++q) {
        const int j0 = jc + q * nr;
        const int cols = std::min(nr, m - j0);
        detail::pack_b<T>(b + static_cast<long>(pc) * ldb + j0, ldb, kc_eff,
                          cols, nr,
                          b_pack + static_cast<long>(q) * kc_eff * nr);
      }

      for (int ic = 0; ic < n; ic += g.mc) {
        const int mc_eff = std::min(g.mc, n - ic);
        detail::pack_a_sym<T>(a, lda, lower, ic, pc, mc_eff, kc_eff, ks.mr,
                              a_pack);
        symm_macro_kernel<T>(ks, mc_eff, nc_eff, kc_eff, alpha, a_pack,
                             b_pack, c + static_cast<long>(ic) * ldc + jc,
                             ldc);
      }
    }
  }
}

}  // namespace

template <typename T>
void symm(Uplo uplo, int n, int m, T alpha, const T* a, int lda, const T* b,
          int ldb, T beta, T* c, int ldc, int nthreads,
          const GemmTuning& tuning) {
  if (n < 0 || m < 0) throw std::invalid_argument("symm: negative dimension");
  if (lda < std::max(1, n) || ldb < std::max(1, m) || ldc < std::max(1, m)) {
    throw std::invalid_argument("symm: leading dimension too small");
  }
  if (n == 0 || m == 0) return;

  ThreadPool& pool = ThreadPool::global();
  const std::size_t p = detail::resolve_threads(nthreads, n);

  if (alpha == T(0)) {
    // Degenerate product: C *= beta (ahead of any tuning resolution, as in
    // every level-3 driver — see level3_common.h).
    detail::scale_rows_pass(p, n, m, beta, c, static_cast<long>(ldc));
    return;
  }

  const kernels::KernelSet<T>& ks = kernels::kernel_set<T>(tuning.variant);
  const detail::BlockGeom g = detail::block_geometry(ks, tuning);

  if (p == 1) {  // includes nested-region degradation
    symm_serial<T>(ks, uplo, n, m, alpha, a, lda, b, ldb, beta, c, ldc, g);
    return;
  }

  // Parallel path: the same pack pipeline and 2D tile grid as GEMM (see
  // blas/pack_pipeline.h) — the pre-pipeline schedule had every thread pack
  // its own duplicate of the full B block to stay barrier-free; the
  // cooperative ping/pong pack does the copy once per panel and overlaps it
  // with compute, and the stolen grid tiles rebalance the packing skew.
  const bool lower = uplo == Uplo::kLower;
  const std::size_t b_pack_elems = detail::b_panel_elems(ks, g.nc, m, g.kc);
  const std::size_t a_pack_elems = detail::a_panel_elems(ks, g.mc, g.kc);
  detail::SharedPair<T> pair = detail::carve_shared_pair<T>(b_pack_elems);

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
          detail::pack_b<T>(b + static_cast<long>(pc) * ldb + j0, ldb, kc_eff,
                            cols, ks.nr, dst);
        },
        [&](int jc, int pc, int nc_eff, int kc_eff, bool first_of_jc, int ic,
            int mc_eff, const T* b_buf) {
          if (first_of_jc) {
            detail::scale_rows_range(c + jc, static_cast<long>(ldc), ic,
                                     ic + mc_eff, nc_eff, beta);
          }
          detail::pack_a_sym<T>(a, lda, lower, ic, pc, mc_eff, kc_eff, ks.mr,
                                a_pack);
          symm_macro_kernel<T>(ks, mc_eff, nc_eff, kc_eff, alpha, a_pack,
                               b_buf, c + static_cast<long>(ic) * ldc + jc,
                               ldc);
        });
  });
}

void ssymm(Uplo uplo, int n, int m, float alpha, const float* a, int lda,
           const float* b, int ldb, float beta, float* c, int ldc,
           int nthreads) {
  symm<float>(uplo, n, m, alpha, a, lda, b, ldb, beta, c, ldc, nthreads);
}

void dsymm(Uplo uplo, int n, int m, double alpha, const double* a, int lda,
           const double* b, int ldb, double beta, double* c, int ldc,
           int nthreads) {
  symm<double>(uplo, n, m, alpha, a, lda, b, ldb, beta, c, ldc, nthreads);
}

template <typename T>
void reference_symm(Uplo uplo, int n, int m, T alpha, const T* a, int lda,
                    const T* b, int ldb, T beta, T* c, int ldc) {
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < m; ++j) {
      T acc = T(0);
      for (int p = 0; p < n; ++p) {
        const bool stored = uplo == Uplo::kLower ? p <= i : p >= i;
        const T aip = stored ? a[static_cast<long>(i) * lda + p]
                             : a[static_cast<long>(p) * lda + i];
        acc += aip * b[static_cast<long>(p) * ldb + j];
      }
      T& out = c[static_cast<long>(i) * ldc + j];
      out = alpha * acc + (beta == T(0) ? T(0) : beta * out);
    }
  }
}

template void symm<float>(Uplo, int, int, float, const float*, int,
                          const float*, int, float, float*, int, int,
                          const GemmTuning&);
template void symm<double>(Uplo, int, int, double, const double*, int,
                           const double*, int, double, double*, int, int,
                           const GemmTuning&);
template void reference_symm<float>(Uplo, int, int, float, const float*, int,
                                    const float*, int, float, float*, int);
template void reference_symm<double>(Uplo, int, int, double, const double*,
                                     int, const double*, int, double, double*,
                                     int);

}  // namespace adsala::blas

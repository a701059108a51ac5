#include "blas/gemm.h"

#include <algorithm>
#include <stdexcept>

#include "blas/kernels/dispatch.h"
#include "blas/level3_common.h"
#include "blas/pack.h"
#include "blas/pack_pipeline.h"
#include "common/pack_arena.h"
#include "common/thread_pool.h"

namespace adsala::blas {

namespace {

void validate(Trans trans_a, Trans trans_b, int m, int n, int k, int lda,
              int ldb, int ldc) {
  if (m < 0 || n < 0 || k < 0) {
    throw std::invalid_argument("gemm: negative dimension");
  }
  const int a_cols = trans_a == Trans::kNo ? k : m;
  const int b_cols = trans_b == Trans::kNo ? n : k;
  if (lda < std::max(1, a_cols) || ldb < std::max(1, b_cols) ||
      ldc < std::max(1, n)) {
    throw std::invalid_argument("gemm: leading dimension too small");
  }
}

/// Inner macro-kernel: multiplies one packed A block (mc x kc) by the packed
/// B block (kc x nc_eff) into C, tiling with the dispatched kernel geometry.
template <typename T>
void macro_kernel(const kernels::KernelSet<T>& ks, int mc, int nc_eff, int kc,
                  T alpha, const T* a_pack, const T* b_pack, T* c, int ldc) {
  const int mr = ks.mr;
  const int nr = ks.nr;
  for (int jr = 0; jr < nc_eff; jr += nr) {
    const int cols = std::min(nr, nc_eff - jr);
    const T* b_panel = b_pack + static_cast<long>(jr / nr) * kc * nr;
    for (int ir = 0; ir < mc; ir += mr) {
      const int rows = std::min(mr, mc - ir);
      const T* a_panel = a_pack + static_cast<long>(ir / mr) * kc * mr;
      T* c_tile = c + static_cast<long>(ir) * ldc + jr;
      if (rows == mr && cols == nr) {
        ks.full(kc, alpha, a_panel, b_panel, c_tile, ldc);
      } else {
        ks.edge(kc, alpha, a_panel, b_panel, c_tile, ldc, rows, cols);
      }
    }
  }
}

/// The serial macro-loop (p == 1, including nested-region degradation):
/// the classic single-buffer schedule with both panels carved from the
/// caller's thread slab. Kept alongside the pipelined parallel path so a
/// degraded call never touches the shared slab (two degraded-serial calls
/// could otherwise alias it). Pack/compute time still feeds the pipeline
/// stats when timing is enabled, so BM_PackComputeOverlap's pack-fraction
/// counter is meaningful at every thread count.
template <typename T>
void gemm_serial(const kernels::KernelSet<T>& ks, Trans trans_a,
                 Trans trans_b, int m, int n, int k, T alpha, const T* a,
                 int lda, const T* b, int ldb, T beta, T* c, int ldc,
                 const detail::BlockGeom& g) {
  const int mr = ks.mr;
  const int nr = ks.nr;
  detail::scale_rows_range(c, static_cast<long>(ldc), 0, m, n, beta);

  const auto carve = detail::carve_private_panels<T>(ks, g.mc, g.kc, g.nc, n);
  T* a_pack = carve.a_pack;
  T* b_pack = carve.b_pack;

  detail::PipelineStats& stats = detail::pipeline_stats();
  const bool timed = stats.timing_enabled.load(std::memory_order_relaxed);
  std::uint64_t pack_ns = 0, compute_ns = 0;

  for (int jc = 0; jc < n; jc += g.nc) {
    const int nc_eff = std::min(g.nc, n - jc);
    const int nc_panels = (nc_eff + nr - 1) / nr;
    for (int pc = 0; pc < k; pc += g.kc) {
      const int kc_eff = std::min(g.kc, k - pc);

      std::uint64_t t0 = timed ? detail::stats_now_ns() : 0;
      for (int q = 0; q < nc_panels; ++q) {
        const int j0 = jc + q * nr;
        const int cols = std::min(nr, n - j0);
        detail::pack_b_chunk<T>(trans_b == Trans::kYes, b, ldb, pc, j0,
                                kc_eff, cols, nr,
                                b_pack + static_cast<long>(q) * kc_eff * nr);
      }
      if (timed) {
        const std::uint64_t t1 = detail::stats_now_ns();
        pack_ns += t1 - t0;
        t0 = t1;
      }

      for (int ic = 0; ic < m; ic += g.mc) {
        const int mc_eff = std::min(g.mc, m - ic);
        if (trans_a == Trans::kNo) {
          detail::pack_a<T>(a + static_cast<long>(ic) * lda + pc, lda, mc_eff,
                            kc_eff, mr, a_pack);
        } else {
          detail::pack_a_trans<T>(a + static_cast<long>(pc) * lda + ic, lda,
                                  mc_eff, kc_eff, mr, a_pack);
        }
        macro_kernel<T>(ks, mc_eff, nc_eff, kc_eff, alpha, a_pack, b_pack,
                        c + static_cast<long>(ic) * ldc + jc, ldc);
      }
      if (timed) compute_ns += detail::stats_now_ns() - t0;
    }
  }
  if (timed) {
    stats.pack_ns.fetch_add(pack_ns, std::memory_order_relaxed);
    stats.compute_ns.fetch_add(compute_ns, std::memory_order_relaxed);
  }
}

}  // namespace

template <typename T>
void gemm(Trans trans_a, Trans trans_b, int m, int n, int k, T alpha,
          const T* a, int lda, const T* b, int ldb, T beta, T* c, int ldc,
          int nthreads, const GemmTuning& tuning) {
  validate(trans_a, trans_b, m, n, k, lda, ldb, ldc);
  if (m == 0 || n == 0) return;

  ThreadPool& pool = ThreadPool::global();
  const std::size_t p = detail::resolve_threads(nthreads);

  // Degenerate products reduce to the beta pass (deliberately ahead of any
  // tuning resolution: a beta-only call must not depend on blocking fields).
  if (k == 0 || alpha == T(0)) {
    detail::scale_rows_pass(p, m, n, beta, c, static_cast<long>(ldc));
    return;
  }

  // Micro-kernel geometry is a runtime property of the dispatched set.
  const kernels::KernelSet<T>& ks = kernels::kernel_set<T>(tuning.variant);
  const detail::BlockGeom g = detail::block_geometry(ks, tuning);

  if (p == 1) {  // includes nested-region degradation
    gemm_serial<T>(ks, trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta,
                   c, ldc, g);
    return;
  }

  // Parallel path: the pack pipeline. The shared packed-B block becomes a
  // ping/pong pair carved from the arena's shared slab by the orchestrating
  // thread; while the threads compute kc-panel i out of one half, the
  // cooperative pack of panel i+1 proceeds into the other. Each panel is
  // cut into a 2D tile grid — row tiles, plus column tiles when m is too
  // small to give every thread rows — claimed through a stealable deck, so
  // small-m calls, ragged shapes and packing skew keep every thread busy up
  // to the pipeline's single drain point (see blas/pack_pipeline.h).
  const std::size_t b_pack_elems = detail::b_panel_elems(ks, g.nc, n, g.kc);
  const std::size_t a_pack_elems = detail::a_panel_elems(ks, g.mc, g.kc);
  detail::SharedPair<T> pair = detail::carve_shared_pair<T>(b_pack_elems);

  const detail::TileGrid grid =
      detail::make_tile_grid(p, m, n, g, ks.mr, ks.nr);
  detail::PackPipeline pipe(p);
  detail::TileDeck deck(p, grid.max_tiles);

  pool.parallel_region(p, [&](std::size_t tid, std::size_t nt) {
    // One bare-A carve per participant; degrades to a per-call buffer when
    // arena growth throws (the fallback member keeps it alive).
    std::shared_ptr<AlignedBuffer<T>> a_fallback;
    T* a_pack = detail::thread_slab_or_fallback<T>(a_pack_elems, a_fallback);

    detail::pipelined_macro_loop<T>(
        tid, nt, n, k, g, grid, ks.nr, pair.bufs, pipe, deck,
        // Cooperative B pack: one NR-column micro-panel of the kc block.
        [&](int jc, int pc, int kc_eff, int q, T* dst) {
          const int j0 = jc + q * ks.nr;
          const int cols = std::min(ks.nr, n - j0);
          detail::pack_b_chunk<T>(trans_b == Trans::kYes, b, ldb, pc, j0,
                                  kc_eff, cols, ks.nr, dst);
        },
        // One grid tile: fold the beta scale into the jc-block's first
        // panel (first-touch, so no pre-scale barrier orders against
        // stolen tiles), pack this tile's A block, run the macro-kernel.
        [&](int jc, int pc, int nc_eff, int kc_eff, bool first_of_jc, int ic,
            int mc_eff, const T* b_buf) {
          if (first_of_jc) {
            detail::scale_rows_range(c + jc, static_cast<long>(ldc), ic,
                                     ic + mc_eff, nc_eff, beta);
          }
          if (trans_a == Trans::kNo) {
            detail::pack_a<T>(a + static_cast<long>(ic) * lda + pc, lda,
                              mc_eff, kc_eff, ks.mr, a_pack);
          } else {
            detail::pack_a_trans<T>(a + static_cast<long>(pc) * lda + ic, lda,
                                    mc_eff, kc_eff, ks.mr, a_pack);
          }
          macro_kernel<T>(ks, mc_eff, nc_eff, kc_eff, alpha, a_pack, b_buf,
                          c + static_cast<long>(ic) * ldc + jc, ldc);
        });
  });
}

void sgemm(Trans trans_a, Trans trans_b, int m, int n, int k, float alpha,
           const float* a, int lda, const float* b, int ldb, float beta,
           float* c, int ldc, int nthreads) {
  gemm<float>(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc,
              nthreads);
}

void dgemm(Trans trans_a, Trans trans_b, int m, int n, int k, double alpha,
           const double* a, int lda, const double* b, int ldb, double beta,
           double* c, int ldc, int nthreads) {
  gemm<double>(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc,
               nthreads);
}

template <typename T>
void reference_gemm(Trans trans_a, Trans trans_b, int m, int n, int k, T alpha,
                    const T* a, int lda, const T* b, int ldb, T beta, T* c,
                    int ldc) {
  validate(trans_a, trans_b, m, n, k, lda, ldb, ldc);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      T acc = T(0);
      for (int p = 0; p < k; ++p) {
        const T av = trans_a == Trans::kNo ? a[i * static_cast<long>(lda) + p]
                                           : a[p * static_cast<long>(lda) + i];
        const T bv = trans_b == Trans::kNo ? b[p * static_cast<long>(ldb) + j]
                                           : b[j * static_cast<long>(ldb) + p];
        acc += av * bv;
      }
      T& out = c[i * static_cast<long>(ldc) + j];
      out = alpha * acc + (beta == T(0) ? T(0) : beta * out);
    }
  }
}

template void gemm<float>(Trans, Trans, int, int, int, float, const float*,
                          int, const float*, int, float, float*, int, int,
                          const GemmTuning&);
template void gemm<double>(Trans, Trans, int, int, int, double, const double*,
                           int, const double*, int, double, double*, int, int,
                           const GemmTuning&);
template void reference_gemm<float>(Trans, Trans, int, int, int, float,
                                    const float*, int, const float*, int,
                                    float, float*, int);
template void reference_gemm<double>(Trans, Trans, int, int, int, double,
                                     const double*, int, const double*, int,
                                     double, double*, int);

}  // namespace adsala::blas

// Operand pools, the level-3 calls the benchmark issues, and the output
// checks applied to every call.
//
// Every call reads the leading elements of shared, seed-filled operand
// pools with tight leading dimensions (lda = row length), exactly like a
// caller passing freshly allocated matrices. The ADSALA side and the
// reference side write separate output buffers, so their results can be
// compared bit for bit after each pair.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/aligned_buffer.h"
#include "core/adsala.h"
#include "workload.h"

namespace perfbench {

template <typename T>
struct Operands {
  Operands(std::size_t max_elems, std::uint64_t seed);

  adsala::AlignedBuffer<T> a;        ///< A / triangle / symmetric operand
  adsala::AlignedBuffer<T> b;        ///< B, or the in-place ops' input
  adsala::AlignedBuffer<T> out_ad;   ///< ADSALA-dispatched result
  adsala::AlignedBuffer<T> out_ref;  ///< max-thread / oracle result
  adsala::AlignedBuffer<T> scratch;  ///< reference result for spot checks

  /// Per-call operand set-up, outside every timed region: TRSM gets a
  /// diagonally dominant triangle (its solve stays well conditioned).
  /// end_call restores the pool, so later calls see the seeded values.
  void begin_call(const Call& c);
  void end_call(const Call& c);

  /// In-place ops (TRSM, TRMM) overwrite B: copy the input into `out`
  /// before each execution. No-op for the others (beta = 0 outputs).
  void reset_output(const Call& c, T* out) const;

 private:
  std::vector<T> saved_diag_;
};

/// The call at a fixed thread count through the blas:: entry point
/// (sgemm/dgemm/dsyrk/dtrsm/dsymm/dtrmm and their fp32 twins). Lower
/// triangle, no transpose, non-unit diagonal, alpha 1, beta 0.
template <typename T>
void run_blas(const Call& c, const Operands<T>& ops, T* out, int p);

/// The ADSALA-dispatched call: the drop-in AdsalaGemm::sgemm/dgemm for GEMM
/// when `drop_in` is set, otherwise query(op, ...) plus run_blas at the
/// returned thread count.
template <typename T>
void run_adsala(adsala::core::AdsalaGemm& rt, const Call& c,
                const Operands<T>& ops, T* out, bool drop_in);

/// Bit-for-bit equality of two results over the op's output region
/// (SYRK: the lower triangle only; the rest of C is never written).
template <typename T>
bool same_output(const Call& c, const T* x, const T* y);

/// Compares `out` against blas::reference_* on the same operands within a
/// floating-point tolerance proportional to the accumulation depth.
template <typename T>
bool matches_reference(const Call& c, Operands<T>& ops, const T* out);

/// Self-test of both checks: a clean pair must pass, and a result with one
/// flipped bit (bit identity) or one perturbed element (reference) must be
/// counted as failed. Runs one small call per op of `spec`.
template <typename T>
bool checks_detect_corruption(const WorkloadSpec& spec, Operands<T>& ops,
                              int max_threads);

}  // namespace perfbench

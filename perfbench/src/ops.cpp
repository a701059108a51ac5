#include "ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "blas/gemm.h"
#include "blas/symm.h"
#include "blas/syrk.h"
#include "blas/trmm.h"
#include "blas/trsm.h"

namespace perfbench {
namespace {

using adsala::blas::Diag;
using adsala::blas::OpKind;
using adsala::blas::Trans;
using adsala::blas::Uplo;

constexpr Uplo kLo = Uplo::kLower;
constexpr Trans kNo = Trans::kNo;
constexpr Diag kNonUnit = Diag::kNonUnit;

int dim(long v) { return static_cast<int>(v); }

/// Output rows and row length of a call (row-major, tight stride).
void output_shape(const Call& c, int* rows, int* cols) {
  if (c.op == OpKind::kGemm) {
    *rows = dim(c.x);
    *cols = dim(c.z);
  } else if (c.op == OpKind::kSyrk) {
    *rows = dim(c.x);
    *cols = dim(c.x);
  } else {
    *rows = dim(c.x);
    *cols = dim(c.y);
  }
}

/// Elements of row i that belong to the op's output region.
int row_extent(const Call& c, int i, int cols) {
  return c.op == OpKind::kSyrk ? i + 1 : cols;
}

/// Accumulation depth of one output element (drives the tolerance).
int depth(const Call& c) {
  if (c.op == OpKind::kGemm || c.op == OpKind::kSyrk) return dim(c.y);
  return dim(c.x);
}

template <typename T>
void run_reference(const Call& c, const Operands<T>& ops, T* out) {
  const int x = dim(c.x), y = dim(c.y);
  switch (c.op) {
    case OpKind::kGemm:
      adsala::blas::reference_gemm<T>(kNo, kNo, x, dim(c.z), y, T(1),
                                      ops.a.data(), y, ops.b.data(),
                                      dim(c.z), T(0), out, dim(c.z));
      return;
    case OpKind::kSyrk:
      adsala::blas::reference_syrk<T>(kLo, kNo, x, y, T(1), ops.a.data(), y,
                                      T(0), out, x);
      return;
    case OpKind::kTrsm:
      adsala::blas::reference_trsm<T>(kLo, kNo, kNonUnit, x, y, T(1),
                                      ops.a.data(), x, out, y);
      return;
    case OpKind::kSymm:
      adsala::blas::reference_symm<T>(kLo, x, y, T(1), ops.a.data(), x,
                                      ops.b.data(), y, T(0), out, y);
      return;
    case OpKind::kTrmm:
      adsala::blas::reference_trmm<T>(kLo, kNo, kNonUnit, x, y, T(1),
                                      ops.a.data(), x, out, y);
      return;
  }
}

}  // namespace

template <typename T>
Operands<T>::Operands(std::size_t max_elems, std::uint64_t seed)
    : a(max_elems),
      b(max_elems),
      out_ad(max_elems),
      out_ref(max_elems),
      scratch(max_elems) {
  fill_uniform(seed, 1, a.data(), a.size());
  fill_uniform(seed, 2, b.data(), b.size());
  std::fill(out_ad.data(), out_ad.data() + out_ad.size(), T(0));
  std::fill(out_ref.data(), out_ref.data() + out_ref.size(), T(0));
}

template <typename T>
void Operands<T>::begin_call(const Call& c) {
  if (c.op != OpKind::kTrsm) return;
  const long n = c.x;
  saved_diag_.resize(static_cast<std::size_t>(n));
  for (long i = 0; i < n; ++i) {
    T& d = a[static_cast<std::size_t>(i * (n + 1))];
    saved_diag_[static_cast<std::size_t>(i)] = d;
    d = static_cast<T>(n + 1);
  }
}

template <typename T>
void Operands<T>::end_call(const Call& c) {
  if (c.op != OpKind::kTrsm) return;
  const long n = c.x;
  for (long i = 0; i < n; ++i) {
    a[static_cast<std::size_t>(i * (n + 1))] =
        saved_diag_[static_cast<std::size_t>(i)];
  }
}

template <typename T>
void Operands<T>::reset_output(const Call& c, T* out) const {
  if (c.op != OpKind::kTrsm && c.op != OpKind::kTrmm) return;
  std::memcpy(out, b.data(), static_cast<std::size_t>(c.x * c.y) * sizeof(T));
}

template <typename T>
void run_blas(const Call& c, const Operands<T>& ops, T* out, int p) {
  namespace blas = adsala::blas;
  const int x = dim(c.x), y = dim(c.y), z = dim(c.z);
  const T* a = ops.a.data();
  const T* b = ops.b.data();
  if constexpr (std::is_same_v<T, float>) {
    switch (c.op) {
      case OpKind::kGemm:
        return blas::sgemm(kNo, kNo, x, z, y, 1.0f, a, y, b, z, 0.0f, out, z,
                           p);
      case OpKind::kSyrk:
        return blas::ssyrk(kLo, kNo, x, y, 1.0f, a, y, 0.0f, out, x, p);
      case OpKind::kTrsm:
        return blas::strsm(kLo, kNo, kNonUnit, x, y, 1.0f, a, x, out, y, p);
      case OpKind::kSymm:
        return blas::ssymm(kLo, x, y, 1.0f, a, x, b, y, 0.0f, out, y, p);
      case OpKind::kTrmm:
        return blas::strmm(kLo, kNo, kNonUnit, x, y, 1.0f, a, x, out, y, p);
    }
  } else {
    switch (c.op) {
      case OpKind::kGemm:
        return blas::dgemm(kNo, kNo, x, z, y, 1.0, a, y, b, z, 0.0, out, z, p);
      case OpKind::kSyrk:
        return blas::dsyrk(kLo, kNo, x, y, 1.0, a, y, 0.0, out, x, p);
      case OpKind::kTrsm:
        return blas::dtrsm(kLo, kNo, kNonUnit, x, y, 1.0, a, x, out, y, p);
      case OpKind::kSymm:
        return blas::dsymm(kLo, x, y, 1.0, a, x, b, y, 0.0, out, y, p);
      case OpKind::kTrmm:
        return blas::dtrmm(kLo, kNo, kNonUnit, x, y, 1.0, a, x, out, y, p);
    }
  }
  throw std::logic_error("run_blas: unknown op");
}

template <typename T>
void run_adsala(adsala::core::AdsalaGemm& rt, const Call& c,
                const Operands<T>& ops, T* out, bool drop_in) {
  if (drop_in && c.op == OpKind::kGemm) {
    const int m = dim(c.x), k = dim(c.y), n = dim(c.z);
    if constexpr (std::is_same_v<T, float>) {
      rt.sgemm(m, n, k, 1.0f, ops.a.data(), k, ops.b.data(), n, 0.0f, out, n);
    } else {
      rt.dgemm(m, n, k, 1.0, ops.a.data(), k, ops.b.data(), n, 0.0, out, n);
    }
    return;
  }
  const auto d = rt.query(c.op, c.x, c.y, c.z, static_cast<int>(sizeof(T)));
  run_blas(c, ops, out, d.threads);
}

template <typename T>
bool same_output(const Call& c, const T* x, const T* y) {
  int rows = 0, cols = 0;
  output_shape(c, &rows, &cols);
  for (int i = 0; i < rows; ++i) {
    const std::size_t off = static_cast<std::size_t>(i) * cols;
    const auto bytes = static_cast<std::size_t>(row_extent(c, i, cols)) *
                       sizeof(T);
    if (std::memcmp(x + off, y + off, bytes) != 0) return false;
  }
  return true;
}

template <typename T>
bool matches_reference(const Call& c, Operands<T>& ops, const T* out) {
  T* ref = ops.scratch.data();
  ops.reset_output(c, ref);
  run_reference(c, ops, ref);
  int rows = 0, cols = 0;
  output_shape(c, &rows, &cols);
  double scale = 1.0;
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < row_extent(c, i, cols); ++j) {
      scale = std::max(scale, std::abs(static_cast<double>(
                                  ref[static_cast<std::size_t>(i) * cols + j])));
    }
  }
  const double tol = 64.0 * std::max(depth(c), 1) *
                     std::numeric_limits<T>::epsilon() * scale;
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < row_extent(c, i, cols); ++j) {
      const std::size_t at = static_cast<std::size_t>(i) * cols + j;
      const double diff =
          std::abs(static_cast<double>(out[at]) - static_cast<double>(ref[at]));
      if (!(diff <= tol)) return false;  // NaN fails too
    }
  }
  return true;
}

template <typename T>
bool checks_detect_corruption(const WorkloadSpec& spec, Operands<T>& ops,
                              int max_threads) {
  for (const OpKind op : spec.install_ops) {
    const Call c = op == OpKind::kGemm ? Call{op, 24, 20, 28}
                                       : Call{op, 24, 20, 0};
    ops.begin_call(c);
    ops.reset_output(c, ops.out_ad.data());
    run_blas(c, ops, ops.out_ad.data(), 1);
    ops.reset_output(c, ops.out_ref.data());
    run_blas(c, ops, ops.out_ref.data(), max_threads);
    bool ok = same_output(c, ops.out_ad.data(), ops.out_ref.data()) &&
              matches_reference(c, ops, ops.out_ad.data());

    // One flipped low mantissa bit in the last output element: invisible
    // to any tolerance, but not to the bit-identity check.
    int rows = 0, cols = 0;
    output_shape(c, &rows, &cols);
    const std::size_t last =
        static_cast<std::size_t>(rows - 1) * cols + (row_extent(c, rows - 1, cols) - 1);
    T* victim = ops.out_ad.data() + last;
    const T clean = *victim;
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, victim, sizeof(T));
    bytes[0] ^= 1u;
    std::memcpy(victim, bytes, sizeof(T));
    ok = ok && !same_output(c, ops.out_ad.data(), ops.out_ref.data());
    // A wrong value is caught against the reference.
    *victim = clean + T(1);
    ok = ok && !matches_reference(c, ops, ops.out_ad.data());
    *victim = clean;
    ops.end_call(c);
    if (!ok) return false;
  }
  return true;
}

#define PERFBENCH_INSTANTIATE(T)                                              \
  template struct Operands<T>;                                                \
  template void run_blas<T>(const Call&, const Operands<T>&, T*, int);        \
  template void run_adsala<T>(adsala::core::AdsalaGemm&, const Call&,         \
                              const Operands<T>&, T*, bool);                  \
  template bool same_output<T>(const Call&, const T*, const T*);              \
  template bool matches_reference<T>(const Call&, Operands<T>&, const T*);    \
  template bool checks_detect_corruption<T>(const WorkloadSpec&,              \
                                            Operands<T>&, int);
PERFBENCH_INSTANTIATE(float)
PERFBENCH_INSTANTIATE(double)
#undef PERFBENCH_INSTANTIATE

}  // namespace perfbench

// Seeded input generation for the benchmark workloads.
//
// The generator is the only place a workload seed is read. It produces the
// call stream (operation + family coordinates) and the operand values; the
// measured program receives nothing else. The same seed always yields the
// same stream, and every stream is independent of the install campaign's
// seed (kInstallSeed), so the model never trains on the shapes it is
// benchmarked on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "blas/op.h"
#include "sampling/domain.h"

namespace perfbench {

/// Seed of every install campaign's domain sampler. Workload seeds are
/// mixed through salted streams, so no workload reproduces these shapes.
inline constexpr std::uint64_t kInstallSeed = 31;

/// One level-3 call, in the family coordinates AdsalaGemm::query takes:
/// GEMM (m, k, n); SYRK (n, k); TRSM / SYMM / TRMM (n, m), with z unused.
struct Call {
  adsala::blas::OpKind op = adsala::blas::OpKind::kGemm;
  long x = 0;
  long y = 0;
  long z = 0;
};

/// Static description of a workload: the install it serves from and the
/// bound on any single operand, so operand pools can be sized up front.
struct WorkloadSpec {
  std::string name;
  int elem_bytes = 4;
  /// Install campaign: operations, per-op shape count, domain.
  std::vector<adsala::blas::OpKind> install_ops;
  std::size_t install_shapes = 0;
  adsala::sampling::DomainConfig install_domain;
  /// Largest element count of any one operand of any generated call.
  std::size_t max_operand_elems = 0;
  /// Dispatch through query(op, ...) plus the blas:: routine at the
  /// returned p, instead of the drop-in AdsalaGemm::sgemm.
  bool via_query = false;
  /// Why the workload exists (printed into the result file).
  std::string why;
};

/// The workload table; nullptr for an unknown name.
const WorkloadSpec* find_workload(const std::string& name);
std::vector<std::string> workload_names();

/// Deterministic, unbounded call stream of one workload. next() never
/// repeats a gemm_small_fresh shape and cycles gemm_repeat's layer list.
class CallStream {
 public:
  CallStream(const WorkloadSpec& spec, std::uint64_t seed);
  ~CallStream();
  CallStream(const CallStream&) = delete;
  CallStream& operator=(const CallStream&) = delete;

  Call next();

 private:
  Call next_small_fresh();
  Call next_mixed();

  const WorkloadSpec& spec_;
  std::uint64_t state_;
  std::size_t index_ = 0;
  std::unordered_set<std::uint64_t> seen_;
  /// level3_mixed: one registry sampler per op, refilled in batches.
  std::vector<std::unique_ptr<adsala::sampling::DomainSampler>> samplers_;
  std::vector<std::vector<Call>> pending_;
  std::vector<std::size_t> round_;  ///< shuffled op order of the current round
};

/// Fills dst[0, count) with uniform values in [-1, 1) from (seed, stream).
void fill_uniform(std::uint64_t seed, std::uint64_t stream, float* dst,
                  std::size_t count);
void fill_uniform(std::uint64_t seed, std::uint64_t stream, double* dst,
                  std::size_t count);

/// Useful flops of one call (computed from the shape).
double call_flops(const Call& c);
/// Compulsory operand traffic of one call in bytes: every input element
/// read once, every output element written once (computed, not measured).
double call_bytes(const Call& c, int elem_bytes);

}  // namespace perfbench

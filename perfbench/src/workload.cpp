#include "workload.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "blas/gemm.h"
#include "blas/symm.h"
#include "blas/syrk.h"
#include "blas/trmm.h"
#include "blas/trsm.h"
#include "core/op_registry.h"

namespace perfbench {
namespace {

using adsala::blas::OpKind;

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double unit(std::uint64_t& state) {
  return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

/// Independent stream of one (seed, purpose) pair; the salts keep the call
/// stream, the operand values and the registry samplers uncorrelated.
std::uint64_t stream_state(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t s = seed ^ (salt * 0xd1b54a32d192ed03ull);
  splitmix64(s);
  return s;
}

// The GEMM install domain: the fp32 corner of the paper's capped domain
// that a closed-loop native campaign can gather in a few seconds.
constexpr std::size_t kGemmInstallCapBytes = 4u << 20;
constexpr long kGemmInstallDimMax = 1024;
constexpr std::size_t kGemmInstallShapes = 120;

// gemm_small_fresh draws from the install domain's small corner: every
// dimension sqrt-scaled over [16, 384] and the operands capped at 1 MB, so
// a median call runs for tens of microseconds and a memo miss, a fork/join
// or a bad pick is a visible share of it.
constexpr long kSmallDimMin = 16;
constexpr long kSmallDimMax = 384;
constexpr std::size_t kSmallCapBytes = 1u << 20;

// level3_mixed's op-aware fp64 install domain; the benchmark's calls come
// from the same domain through each op's registry sampler.
constexpr std::size_t kMixedCapBytes = 2u << 20;
constexpr long kMixedDimMax = 1024;
constexpr std::size_t kMixedShapesPerOp = 40;
constexpr std::size_t kMixedBatch = 512;

// gemm_repeat: im2col-lowered conv layers of a small CNN on a 28x28 input
// (m = output channels, k = input channels x kernel area, n = output
// pixels), batch 1, ending in a fully-connected layer. Every layer lies
// inside the GEMM install domain (each dim <= 1024, operands <= 4 MB).
struct Layer {
  long m, k, n;
};
constexpr Layer kConvLayers[] = {
    {32, 27, 784},   // 3x3x3 -> 32 @ 28x28
    {32, 288, 784},  // 3x3x32 -> 32 @ 28x28
    {64, 288, 196},  // 3x3x32 -> 64 @ 14x14
    {64, 576, 196},  // 3x3x64 -> 64 @ 14x14
    {128, 576, 49},  // 3x3x64 -> 128 @ 7x7
    {128, 864, 49},  // 3x3x96 -> 128 @ 7x7
    {256, 128, 49},  // 1x1x128 -> 256 @ 7x7
    {1000, 512, 1},  // fully connected 512 -> 1000
};

adsala::sampling::DomainConfig gemm_install_domain() {
  adsala::sampling::DomainConfig d;
  d.memory_cap_bytes = kGemmInstallCapBytes;
  d.dim_max = kGemmInstallDimMax;
  d.elem_bytes = 4;
  d.seed = kInstallSeed;
  return d;
}

adsala::sampling::DomainConfig mixed_install_domain() {
  adsala::sampling::DomainConfig d;
  d.memory_cap_bytes = kMixedCapBytes;
  d.dim_max = kMixedDimMax;
  d.elem_bytes = 8;
  d.seed = kInstallSeed;
  return d;
}

std::size_t repeat_max_operand() {
  std::size_t out = 0;
  for (const Layer& l : kConvLayers) {
    out = std::max({out, static_cast<std::size_t>(l.m * l.k),
                    static_cast<std::size_t>(l.k * l.n),
                    static_cast<std::size_t>(l.m * l.n)});
  }
  return out;
}

std::vector<WorkloadSpec> make_table() {
  std::vector<WorkloadSpec> table;
  {
    WorkloadSpec w;
    w.name = "gemm_small_fresh";
    w.elem_bytes = 4;
    w.install_ops = {OpKind::kGemm};
    w.install_shapes = kGemmInstallShapes;
    w.install_domain = gemm_install_domain();
    w.max_operand_elems = kSmallCapBytes / 4;
    w.why =
        "fp32 GEMM, every call a distinct small shape: memo misses, "
        "fork/join and pick quality are a visible share of each call";
    table.push_back(std::move(w));
  }
  {
    WorkloadSpec w;
    w.name = "gemm_repeat";
    w.elem_bytes = 4;
    w.install_ops = {OpKind::kGemm};
    w.install_shapes = kGemmInstallShapes;
    w.install_domain = gemm_install_domain();
    w.max_operand_elems = repeat_max_operand();
    w.why =
        "fp32 conv-layer GEMMs cycled as forward passes: memo hits, so "
        "kernels, packing and fork/join do the work; control for selection";
    table.push_back(std::move(w));
  }
  {
    WorkloadSpec w;
    w.name = "level3_mixed";
    w.elem_bytes = 8;
    const auto ops = adsala::blas::all_ops();
    w.install_ops.assign(ops.begin(), ops.end());
    w.install_shapes = kMixedShapesPerOp;
    w.install_domain = mixed_install_domain();
    w.max_operand_elems = kMixedCapBytes / 8;
    w.via_query = true;
    w.why =
        "fp64 fresh shapes across GEMM/SYRK/TRSM/SYMM/TRMM on an op-aware "
        "install: both macro-loop schedules and the per-op selection rows";
    table.push_back(std::move(w));
  }
  return table;
}

const std::vector<WorkloadSpec>& table() {
  static const std::vector<WorkloadSpec> t = make_table();
  return t;
}

long sqrt_scaled(double u, long lo, long hi) {
  return lo + std::lround(u * u * static_cast<double>(hi - lo));
}

template <typename T>
void fill_typed(std::uint64_t seed, std::uint64_t stream, T* dst,
                std::size_t count) {
  std::uint64_t s = stream_state(seed, 0x0be5a7d5ull + stream);
  for (std::size_t i = 0; i < count; ++i) {
    dst[i] = static_cast<T>(2.0 * unit(s) - 1.0);
  }
}

}  // namespace

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : table()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> out;
  for (const WorkloadSpec& w : table()) out.push_back(w.name);
  return out;
}

CallStream::CallStream(const WorkloadSpec& spec, std::uint64_t seed)
    : spec_(spec), state_(stream_state(seed, 0xca11ull)) {
  if (spec_.name != "level3_mixed") return;
  adsala::sampling::DomainConfig d = spec_.install_domain;
  d.seed = stream_state(seed, 0x5a3b1e5ull);
  if (d.seed == kInstallSeed) ++d.seed;
  for (const OpKind op : spec_.install_ops) {
    samplers_.push_back(adsala::core::op_traits(op).make_sampler(d));
  }
  pending_.resize(samplers_.size());
}

CallStream::~CallStream() = default;

Call CallStream::next() {
  ++index_;
  if (spec_.name == "gemm_small_fresh") return next_small_fresh();
  if (spec_.name == "level3_mixed") return next_mixed();
  const Layer& l = kConvLayers[(index_ - 1) % std::size(kConvLayers)];
  return Call{OpKind::kGemm, l.m, l.k, l.n};
}

Call CallStream::next_small_fresh() {
  for (;;) {
    const long m = sqrt_scaled(unit(state_), kSmallDimMin, kSmallDimMax);
    const long k = sqrt_scaled(unit(state_), kSmallDimMin, kSmallDimMax);
    const long n = sqrt_scaled(unit(state_), kSmallDimMin, kSmallDimMax);
    if (adsala::blas::gemm_memory_bytes(m, k, n, 4) > kSmallCapBytes) continue;
    const auto key = static_cast<std::uint64_t>((m << 40) | (k << 20) | n);
    if (!seen_.insert(key).second) continue;
    return Call{OpKind::kGemm, m, k, n};
  }
}

Call CallStream::next_mixed() {
  if (round_.empty()) {
    // A fresh round visits every op once, in a seeded order.
    for (std::size_t i = 0; i < samplers_.size(); ++i) round_.push_back(i);
    for (std::size_t i = round_.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(unit(state_) * i);
      std::swap(round_[i - 1], round_[std::min(j, i - 1)]);
    }
  }
  const std::size_t slot = round_.back();
  round_.pop_back();
  std::vector<Call>& queue = pending_[slot];
  if (queue.empty()) {
    const OpKind op = spec_.install_ops[slot];
    const auto& traits = adsala::core::op_traits(op);
    const auto shapes = samplers_[slot]->sample(kMixedBatch);
    // Reversed so pop_back hands the sampler's order out.
    for (auto it = shapes.rbegin(); it != shapes.rend(); ++it) {
      Call c;
      c.op = op;
      traits.from_shape(*it, &c.x, &c.y, &c.z);
      queue.push_back(c);
    }
  }
  const Call c = queue.back();
  queue.pop_back();
  return c;
}

void fill_uniform(std::uint64_t seed, std::uint64_t stream, float* dst,
                  std::size_t count) {
  fill_typed(seed, stream, dst, count);
}

void fill_uniform(std::uint64_t seed, std::uint64_t stream, double* dst,
                  std::size_t count) {
  fill_typed(seed, stream, dst, count);
}

double call_flops(const Call& c) {
  const auto x = static_cast<double>(c.x);
  const auto y = static_cast<double>(c.y);
  switch (c.op) {
    case OpKind::kGemm:
      return adsala::blas::gemm_flops(x, y, static_cast<double>(c.z));
    case OpKind::kSyrk:
      return adsala::blas::syrk_flops(x, y);
    case OpKind::kTrsm:
      return adsala::blas::trsm_flops(x, y);
    case OpKind::kSymm:
      return adsala::blas::symm_flops(x, y);
    case OpKind::kTrmm:
      return adsala::blas::trmm_flops(x, y);
  }
  throw std::logic_error("call_flops: unknown op");
}

double call_bytes(const Call& c, int elem_bytes) {
  const auto x = static_cast<double>(c.x);
  const auto y = static_cast<double>(c.y);
  const double tri = x * (x + 1.0) / 2.0;
  double elems = 0.0;
  switch (c.op) {
    case OpKind::kGemm:  // A m x k, B k x n read; C m x n written (beta 0)
      elems = x * y + y * static_cast<double>(c.z) + x * static_cast<double>(c.z);
      break;
    case OpKind::kSyrk:  // A n x k read; lower C written
      elems = x * y + tri;
      break;
    case OpKind::kTrsm:  // triangle read; B n x m read and written
    case OpKind::kTrmm:
      elems = tri + 2.0 * x * y;
      break;
    case OpKind::kSymm:  // stored triangle and B read; C n x m written
      elems = tri + 2.0 * x * y;
      break;
  }
  return elems * elem_bytes;
}

}  // namespace perfbench

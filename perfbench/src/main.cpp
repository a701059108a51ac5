// perfbench_native: one workload, one seed, one run.
//
//   perfbench_native --workload <name> --seed <n> --seconds <s> --trace 0|1
//                    --out-dir <dir> [--git-sha <sha>] [--source-sha256 <h>]
//
// Installs ADSALA natively (setup_s), runs the timed pass for <s> seconds
// and, with --trace 1, the traced pass and layer probes. The last stdout
// line is the result object; the line before it carries the provenance.
// <dir>/results/ receives the full report, <dir>/spans/ the traced spans.
// Exit 2 on bad arguments or a debug build, 1 when set-up fails.
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "bench_util.h"
#include "blas/kernels/dispatch.h"
#include "common/thread_pool.h"
#include "metrics.h"
#include "ops.h"
#include "passes.h"
#include "workload.h"

namespace {

using namespace perfbench;

// Independent installs per run; setup_s is their median, and the passes
// serve from all of them. Fewer than eight left the run-to-run spread of
// gemm_small_fresh dominated by which model the installs happened to select.
constexpr int kSetupRepeats = 8;
// The traced pass's wall-time budget, as a multiple of --seconds.
constexpr double kTraceBudgetFactor = 1.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string out_dir;
  std::string git_sha = "unavailable";
  std::string source_sha256 = "unavailable";
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a->workload = val;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val.c_str(), &end, 10);
      if (end == val.c_str() || *end != '\0') return false;
    } else if (key == "--seconds") {
      a->seconds = std::strtod(val.c_str(), &end);
      if (end == val.c_str() || *end != '\0') return false;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      a->trace = val == "1" ? 1 : 0;
    } else if (key == "--out-dir") {
      a->out_dir = val;
    } else if (key == "--git-sha") {
      a->git_sha = val;
    } else if (key == "--source-sha256") {
      a->source_sha256 = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0.0 &&
         a->seconds <= 3600.0 && a->trace >= 0 && !a->out_dir.empty();
}

/// CPUs this process may run on (what `nproc` prints).
int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// {"name": {"value": v, "unit": u}, ...}
std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += quoted(metrics[i].name) + ": {\"value\": " +
           number(metrics[i].value) + ", \"unit\": " +
           quoted(metrics[i].unit) + "}";
  }
  return out + "}";
}

double metric(const std::vector<Metric>& metrics, const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

template <typename T>
int run(const Args& args, const WorkloadSpec& spec, int max_threads) {
  const std::string provenance =
      std::string("{") + "\"workload\": " + quoted(spec.name) +
      ", \"why\": " + quoted(spec.why) +
      ", \"git_sha\": " + quoted(args.git_sha) +
      ", \"source_sha256\": " + quoted(args.source_sha256) +
      ", \"cpu_model\": " + quoted(cpu_model()) +
      ", \"nproc\": " + std::to_string(nproc()) +
      ", \"max_threads\": " + std::to_string(max_threads) +
      ", \"kernel_variant\": " +
      quoted(adsala::blas::kernels::variant_name(
          adsala::blas::kernels::active_variant())) +
      ", \"build_type\": " + quoted(adsala::bench::build_type_stamp()) +
      ", \"load_avg_1m\": " + number(adsala::bench::load_avg_stamp()) +
      ", \"install_seed\": " + std::to_string(kInstallSeed) +
      ", \"workload_seed\": " + std::to_string(args.seed) +
      ", \"seconds\": " + number(args.seconds) +
      ", \"trace\": " + std::to_string(args.trace);

  Operands<T> ops(spec.max_operand_elems, args.seed);
  const bool checks_ok = checks_detect_corruption(spec, ops, max_threads);
  if (!checks_ok) {
    std::fprintf(stderr,
                 "[perfbench] output checks failed their corruption smoke "
                 "test\n");
  }

  std::fprintf(stderr, "[perfbench] %s: %d native installs...\n",
               spec.name.c_str(), kSetupRepeats);
  Setup setup = run_setup(spec, max_threads,
                          args.out_dir + "/artefacts/" + spec.name,
                          kSetupRepeats);

  std::fprintf(stderr, "[perfbench] timed pass, %.0f s...\n", args.seconds);
  CallStream stream(spec, args.seed);
  const TimedPass timed =
      run_timed(setup.runtimes, spec, stream, ops, max_threads, args.seconds);
  std::size_t failed = 0;
  for (const auto ok : timed.ok) failed += ok ? 0 : 1;
  bool correct = checks_ok && failed == 0;

  const std::vector<Metric> e2e = end_to_end_metrics(setup, timed);
  std::vector<Metric> layers;
  std::string trace_json = "null";
  if (args.trace == 1) {
    std::fprintf(stderr, "[perfbench] traced pass...\n");
    const TracedPass traced =
        run_traced(setup, spec, timed, ops, max_threads,
                   kTraceBudgetFactor * args.seconds);
    const SelectLayers select =
        measure_select_layers(setup.runtimes, timed.calls, spec.elem_bytes);
    const PoolTimes pool = measure_pool(max_threads);
    layers = per_layer_metrics(setup, timed, traced, select, pool,
                               max_threads, spec.elem_bytes);
    correct = correct && traced.mismatches == 0 && traced.exceptions == 0;
    if (metric(layers, "ledger.closed") != 1.0) {
      std::fprintf(stderr,
                   "[perfbench] ledger not closed: select+exec cover %.3f of "
                   "the untraced dispatched time (want %.2f..%.2f)\n",
                   metric(layers, "ledger.closure"), kClosureMin,
                   kClosureMax);
    }
    const std::string spans_dir = args.out_dir + "/spans";
    std::filesystem::create_directories(spans_dir);
    const std::string spans_path = spans_dir + "/" + spec.name + "-seed" +
                                   std::to_string(args.seed) + ".csv";
    write_spans(spans_path, traced);
    trace_json = "{\"calls\": " + std::to_string(traced.rows.size()) +
                 ", \"seconds\": " + number(traced.seconds) +
                 ", \"mismatches\": " + std::to_string(traced.mismatches) +
                 ", \"exceptions\": " + std::to_string(traced.exceptions) +
                 ", \"spans\": " + quoted(spans_path) + "}";
  }

  // Per-install view of the timed pass: the spread between installs is
  // the part of the run-to-run spread that comes from retraining.
  std::string models = "[";
  std::string installs = "[";
  const std::size_t k = setup.runtimes.size();
  for (std::size_t r = 0; r < k; ++r) {
    std::vector<double> speedups;
    for (std::size_t i = 0; i < timed.calls.size(); ++i) {
      if (install_for(i, k) == r && timed.ok[i]) {
        speedups.push_back(timed.max_ns[i] / timed.adsala_ns[i]);
      }
    }
    const std::string name = quoted(setup.runtimes[r].model_name());
    models += (r > 0 ? ", " : "") + name;
    installs += std::string(r > 0 ? ", " : "") + "{\"model\": " + name +
                ", \"setup_s\": " + number(setup.setup_s[r]) +
                ", \"speedup_vs_max_p50\": " + number(median(speedups)) + "}";
  }
  const std::string prov =
      provenance + ", \"selected_models\": " + models + "]}";
  const std::vector<Metric>& reported = args.trace == 1 ? layers : e2e;
  const std::string result =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(timed.calls.size()) +
      ", \"failed\": " + std::to_string(failed) +
      ", \"metrics\": " + metrics_json(reported) + "}";

  const std::string results_dir = args.out_dir + "/results";
  std::filesystem::create_directories(results_dir);
  std::ofstream report(results_dir + "/" + spec.name + "-seed" +
                       std::to_string(args.seed) + "-trace" +
                       std::to_string(args.trace) + ".json");
  report << "{\"provenance\": " << prov
         << ", \"end_to_end\": " << metrics_json(e2e)
         << ", \"per_layer\": " << metrics_json(layers)
         << ", \"checks\": {\"smoke_detects_corruption\": "
         << (checks_ok ? "true" : "false")
         << ", \"mismatches\": " << timed.mismatches
         << ", \"exceptions\": " << timed.exceptions
         << ", \"reference_checks\": " << timed.ref_checks
         << ", \"reference_failures\": " << timed.ref_failures << "}"
         << ", \"timed\": {\"calls\": " << timed.calls.size()
         << ", \"seconds\": " << number(timed.seconds)
         << ", \"max_thread_gflops\": "
         << number(windowed_gflops(timed, timed.max_ns)) << "}"
         << ", \"installs\": " << installs << "]"
         << ", \"traced\": " << trace_json << ", \"result\": " << result
         << "}\n";

  std::printf("{\"provenance\": %s}\n%s\n", prov.c_str(), result.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_native --workload <name> --seed <n> "
                 "--seconds <s> --trace 0|1 --out-dir <dir> "
                 "[--git-sha <sha>] [--source-sha256 <hash>]\n");
    return 2;
  }
  const WorkloadSpec* spec = find_workload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench_native: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  if (std::string(adsala::bench::build_type_stamp()) != "release") {
    std::fprintf(stderr,
                 "perfbench_native: refusing a debug build (it measures the "
                 "optimiser, not the code)\n");
    return 2;
  }
  const int max_threads = std::min(
      nproc(), static_cast<int>(adsala::ThreadPool::global().max_threads()));
  try {
    return spec->elem_bytes == 8 ? run<double>(args, *spec, max_threads)
                                 : run<float>(args, *spec, max_threads);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_native: %s\n", e.what());
    return 1;
  }
}

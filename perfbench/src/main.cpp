// perfbench: the repository's perf ledger. Runs one seeded workload
// against the public surfaces (ingest::Corpus, api::Session,
// serve::Server/Client over loopback, Trainer), checks the outputs and
// prints, as the last line of stdout, one JSON object:
//
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name:
//    {"value": .., "unit": ..}, ...}}
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
// metrics. Only the metrics a workload set are printed: perfbench/run.py
// completes the result against the lists in BENCHMARK.json.
//
//   perfbench --workload <corpus-embed|sweep-interactive|wire-hot-mix|
//             finetune> --seed N --seconds S --trace 0|1
//             [--size full|tiny] [--commit ID]

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>

#include "common.hpp"
#include "nn/executor.hpp"
#include "nn/kernels.hpp"

extern char** environ;

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <corpus-embed|"
               "sweep-interactive|wire-hot-mix|finetune> --seed N --seconds S "
               "--trace 0|1 [--size full|tiny] [--commit ID]\n",
               why);
  std::exit(2);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  return "unknown";
}

/// Host-wide CPU ticks from /proc/stat: {steal, all}. Steal is time the
/// hypervisor gave this machine's CPUs to other guests. On a shared host it
/// is one reason two runs of the same code differ, and the one the guest
/// can see.
std::pair<double, double> host_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double all = 0, steal = 0, v = 0;
  for (int i = 0; i < 8 && in >> v; ++i) {
    all += v;
    if (i == 7) steal = v;
  }
  return {steal, all};
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

/// Every DEEPSEQ_* variable in the environment. Any of them can steer the
/// program off its default path (scheduler, fusion, slabs, SIMD, threads,
/// backend, artifact, tracing), so a result taken with one set is not a
/// ledger figure: it is printed loudly with the host record.
std::string program_knobs() {
  std::string knobs;
  for (char** e = environ; *e != nullptr; ++e)
    if (std::strncmp(*e, "DEEPSEQ_", 8) == 0) {
      if (!knobs.empty()) knobs += " ";
      knobs += *e;
    }
  return knobs;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  std::string size = "full", commit = "unknown";
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::atof(v.c_str());
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      o.trace = v == "1";
      have_trace = true;
    } else if (a == "--size") {
      size = v;
    } else if (a == "--commit") {
      commit = v;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (o.workload.empty() || !have_trace || !(o.seconds > 0))
    usage("--workload, --seconds and --trace are required");
  if (size != "full" && size != "tiny") usage("--size takes full or tiny");
  o.sizes = size == "tiny" ? Sizes::tiny() : Sizes::full();

  const std::string knobs = program_knobs();
  if (!knobs.empty())
    std::fprintf(stderr,
                 "perfbench: WARNING: program knobs set (%s); these figures "
                 "are not comparable with a clean environment\n",
                 knobs.c_str());
  std::printf(
      "host {\"nproc\": %ld, \"cpu\": \"%s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"commit\": \"%s\", \"nn_threads\": %d, "
      "\"simd_lanes\": %d, \"knobs\": \"%s\"}\n",
      sysconf(_SC_NPROCESSORS_ONLN), json_escape(cpu_model()).c_str(),
      PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, json_escape(commit).c_str(),
      deepseq::nn::nn_threads_from_env(deepseq::api::SessionConfig{}.engine.threads),
      deepseq::nn::kernels::lanes(), json_escape(knobs).c_str());
  std::printf("run {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
              "\"trace\": %d, \"size\": \"%s\"}\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0, size.c_str());
  std::fflush(stdout);

  const auto ticks0 = host_ticks();
  Report r;
  try {
    if (o.workload == "corpus-embed") {
      r = run_corpus_embed(o);
    } else if (o.workload == "sweep-interactive") {
      r = run_sweep_interactive(o);
    } else if (o.workload == "wire-hot-mix") {
      r = run_wire_hot_mix(o);
    } else if (o.workload == "finetune") {
      r = run_finetune(o);
    } else {
      usage(("unknown workload " + o.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", o.workload.c_str(),
                 e.what());
    return 1;
  }

  for (const std::string& n : r.notes) std::printf("note: %s\n", n.c_str());
  const auto ticks1 = host_ticks();
  if (ticks1.second > ticks0.second)
    std::printf("note: host steal %.1f%% of CPU time during the run\n",
                100.0 * (ticks1.first - ticks0.first) /
                    (ticks1.second - ticks0.second));
  // Only the metrics the workload set; run.py checks them against
  // BENCHMARK.json and fills a layer the workload does not load with 0.
  std::string json;
  for (const auto& [name, m] : r.metrics) {
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("metric %-30s %16.6f %-8s samples=%llu\n", name.c_str(), value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json.empty() ? "" : ", ", name.c_str(), value, m.unit.c_str());
    json += buf;
  }
  const std::uint64_t attempted = std::max<std::uint64_t>(r.attempted, 1);
  std::printf("error_rate %.6f (%llu failed of %llu attempted)\n",
              static_cast<double>(r.failed) / static_cast<double>(attempted),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(attempted));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(r.failed), json.c_str());
  std::fflush(stdout);
  return 0;
}

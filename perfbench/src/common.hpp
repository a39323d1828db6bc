#pragma once

// Shared machinery of the perf ledger: run options, clocks, statistics,
// result digests, the metric report and the trace-span self-time analysis.
// Everything here observes the program from outside, through its public
// headers; nothing reaches into the library's internals.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace perfbench {

/// Input sizes of every workload. `full` is what the ledger measures;
/// `tiny` only proves the plumbing (smoke test), its numbers mean nothing.
struct Sizes {
  // corpus-embed
  int corpus_files = 4;
  int corpus_modules = 8;  // per file; every 10th module is a duplicate
  int corpus_gates = 260;  // mean gates per module
  // sweep-interactive: Table IV at the scale bench/ uses for Table VI
  // (bench_util's design_scale, 1/16).
  double design_scale = 1.0 / 16.0;
  // wire-hot-mix
  int hot_circuits = 64;
  int hot_workloads = 2;  // per circuit
  // finetune: one epoch (three batches of 8) takes ~0.3 s per job, so a
  // 25 s run of four jobs times over 300 epochs. A stolen core stalls an
  // epoch for up to ~0.25 s on a shared host: against a 0.1 s epoch that
  // tripled the tail of a run under steal, against 0.3 s it adds under 2x.
  int train_samples = 24;
  int train_sim_cycles = 500;
  double train_size_scale = 0.25;
  // every workload
  int setups = 5;  // set-ups per run; setup_s is their median
  int checks = 4;  // served results re-computed on the reference Session

  static Sizes full() { return {}; }
  static Sizes tiny();
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Sizes sizes;
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Process CPU time (all threads), seconds.
double process_cpu_s();
/// Peak resident set of this process, MB.
double peak_rss_mb();

double median(std::vector<double> v);
/// Nearest-rank percentile, p in [0, 1]; 0 for an empty sample.
double percentile(std::vector<double> v, double p);

/// FNV-1a over raw bytes: results are compared bit for bit.
struct Digest {
  std::uint64_t h = 1469598103934665603ULL;
  void bytes(const void* p, std::size_t n);
  template <typename T>
  void pod(const T& v) { bytes(&v, sizeof v); }
  void doubles(const std::vector<double>& v) {
    pod(v.size());
    bytes(v.data(), v.size() * sizeof(double));
  }
  void tensor(const deepseq::nn::Tensor& t);
};

/// Digest of a task's typed output (not its timings or cache flags).
std::uint64_t output_digest(const deepseq::api::TaskResult& r);

/// The single-threaded reference configuration results are checked
/// against: one engine thread, sequential forward passes.
deepseq::api::SessionConfig reference_config();

/// One timed window of a workload: per-op latencies plus the wall and
/// process CPU time the ops took. Throughput and CPU per op are totals
/// over the window, not medians of sub-windows: this host drifts between
/// fast and slow states that each last seconds, and a median would pick
/// one state per run where a total averages them.
struct Phase {
  std::vector<double> latency_ms;
  /// When set, latency percentiles are the median over these blocks of
  /// each block's percentile. wire-hot-mix cuts its replies, in completion
  /// order, into blocks of a fixed count and keeps every block, so a
  /// contention burst on the shared host moves a few blocks, not the run's
  /// figure. The result is a median of per-block percentiles, not the
  /// run's pooled p99: a stall that recurs in under half the blocks does
  /// not show in it.
  std::vector<std::vector<double>> latency_blocks;
  std::uint64_t ops = 0, attempted = 0, failed = 0;
  double wall_s = 0, cpu_s = 0;

  double ops_per_s() const { return wall_s > 0 ? static_cast<double>(ops) / wall_s : 0.0; }
  double cpu_ms_per_op() const {
    return ops > 0 ? cpu_s * 1e3 / static_cast<double>(ops) : 0.0;
  }
};

/// Wall clock and process CPU time over one timed stretch.
class Stopwatch {
 public:
  Stopwatch() : t0_(Clock::now()), cpu0_(process_cpu_s()) {}
  double elapsed_s() const { return seconds_since(t0_); }
  /// Add the stretch since construction to the phase's wall and CPU time.
  void add_to(Phase& p) const {
    p.wall_s += elapsed_s();
    p.cpu_s += process_cpu_s() - cpu0_;
  }

 private:
  Clock::time_point t0_;
  double cpu0_;
};

struct Metric {
  double value = 0;
  std::string unit;
  std::uint64_t samples = 0;  // 0 = a count or ratio, not a sample
};

/// What a workload run reports; main() prints it.
struct Report {
  std::uint64_t attempted = 0, failed = 0;
  bool correct = true;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> notes;  // printed before the result line

  void set(const std::string& name, double value, const std::string& unit,
           std::uint64_t samples = 0) {
    metrics[name] = Metric{value, unit, samples};
  }
  void note(const std::string& line) { notes.push_back(line); }
  /// Records `count` outputs that failed a correctness check (counted in
  /// `failed`).
  void wrong(const std::string& what, std::uint64_t count = 1);
};

/// End-to-end metrics common to every workload, from the timed phase.
void report_end_to_end(Report& r, const Phase& p, double setup_s);

// ---- tracing ---------------------------------------------------------------

/// Self time of every span name (duration minus the union of its child
/// spans of the same task), per task kind, from the global trace sink.
struct SpanStats {
  std::map<std::string, std::vector<double>> self_ms;  // by span name
  std::map<std::string, std::vector<double>> head_ms;  // by task kind
  std::vector<double> prepare_ms;  // self time of resolve spans that missed
  /// Per task: queue + resolve + embed + head self time, which should
  /// account for the client-observed latency of an in-process request.
  std::vector<double> staged_ms;
  std::uint64_t embeds = 0, flushes = 0;
  std::uint64_t dropped = 0;
};

/// Turns tracing on through the public obs switch and empties the sink;
/// the destructor turns it off again.
class TraceWindow {
 public:
  TraceWindow();
  ~TraceWindow();
  TraceWindow(const TraceWindow&) = delete;
  TraceWindow& operator=(const TraceWindow&) = delete;

  /// Fold the sink's retained events into `stats` and empty it.
  static void harvest(SpanStats& stats);
};

/// Runtime/nn/api per-layer metrics shared by the Session workloads.
void report_engine_layers(Report& r, const SpanStats& spans,
                          const deepseq::obs::Snapshot& window,
                          std::vector<double> queue_ms);
/// Cache hit rates and evictions over the window between two readings.
void report_cache(Report& r, const deepseq::runtime::CircuitCache::Stats& before,
                  const deepseq::runtime::CircuitCache::Stats& after);
/// A traced run's two halves: obs.trace_overhead (traced over untraced
/// ops_per_s), proc.cpu_util of the untraced half, and both halves' op
/// counts into `attempted`/`failed`.
void report_trace_overhead(Report& r, const Phase& untraced,
                           const Phase& traced);

/// The obs balance task.submitted == completed + failed over a window.
void check_task_balance(Report& r, const deepseq::obs::Snapshot& window);

std::uint64_t counter(const deepseq::obs::Snapshot& s, const std::string& name);
std::uint64_t counter_prefix(const deepseq::obs::Snapshot& s,
                             const std::string& prefix);

/// A directory under the current working directory, removed on
/// destruction (the benchmark writes nowhere else).
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// ---- workloads -------------------------------------------------------------

Report run_corpus_embed(const Options& o);
Report run_sweep_interactive(const Options& o);
Report run_wire_hot_mix(const Options& o);
Report run_finetune(const Options& o);

}  // namespace perfbench

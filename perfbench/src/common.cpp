#include "common.hpp"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <unordered_map>

namespace perfbench {

using namespace deepseq;

Sizes Sizes::tiny() {
  Sizes s;
  s.corpus_files = 2;
  s.corpus_modules = 6;
  s.corpus_gates = 60;
  s.design_scale = 1.0 / 256.0;
  s.hot_circuits = 4;
  s.hot_workloads = 1;
  s.train_samples = 4;
  s.train_sim_cycles = 200;
  s.train_size_scale = 0.2;
  s.setups = 1;
  s.checks = 1;
  return s;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const std::size_t i = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

void Digest::bytes(const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 1099511628211ULL;
  }
}

void Digest::tensor(const nn::Tensor& t) {
  pod(t.rows());
  pod(t.cols());
  bytes(t.data(), t.size() * sizeof(float));
}

std::uint64_t output_digest(const api::TaskResult& r) {
  Digest d;
  d.pod(static_cast<int>(r.task));
  std::visit(
      [&d](const auto& out) {
        using T = std::decay_t<decltype(out)>;
        if constexpr (std::is_same_v<T, api::EmbeddingOutput>) {
          d.tensor(*out.embedding);
        } else if constexpr (std::is_same_v<T, api::LogicProbOutput> ||
                             std::is_same_v<T, api::TransitionProbOutput>) {
          d.tensor(*out.prob);
        } else if constexpr (std::is_same_v<T, api::PowerOutput>) {
          d.pod(out.report.total_watts);
          d.pod(out.report.combinational_watts);
          d.pod(out.report.sequential_watts);
          d.pod(out.report.io_watts);
          d.pod(out.report.nets_matched);
          d.pod(out.report.nets_missing);
          d.doubles(out.logic1);
          d.doubles(out.toggle_rate);
        } else if constexpr (std::is_same_v<T, api::ReliabilityOutput>) {
          d.pod(out.circuit_reliability);
          d.doubles(out.node_reliability);
        } else {
          d.doubles(out.scoap.cc0);
          d.doubles(out.scoap.cc1);
          d.doubles(out.scoap.co);
        }
      },
      r.output);
  return d.h;
}

api::SessionConfig reference_config() {
  api::SessionConfig cfg;
  cfg.engine.threads = 1;
  cfg.engine.nn_threads = 1;
  return cfg;
}

void Report::wrong(const std::string& what, std::uint64_t count) {
  correct = false;
  failed += count;
  note("WRONG: " + what);
}

void report_end_to_end(Report& r, const Phase& p, double setup_s) {
  const auto n = static_cast<std::uint64_t>(p.latency_ms.size());
  const auto latency = [&p](double q) {
    if (p.latency_blocks.empty()) return percentile(p.latency_ms, q);
    std::vector<double> per_block;
    for (const std::vector<double>& b : p.latency_blocks)
      per_block.push_back(percentile(b, q));
    return median(per_block);
  };
  r.set("ops_per_s", p.ops_per_s(), "ops/s", p.ops);
  r.set("latency_p50_ms", latency(0.50), "ms", n);
  r.set("latency_p90_ms", latency(0.90), "ms", n);
  r.set("latency_p99_ms", latency(0.99), "ms", n);
  r.set("cpu_ms_per_op", p.cpu_ms_per_op(), "ms", p.ops);
  r.set("setup_s", setup_s, "s");
  r.set("peak_rss_mb", peak_rss_mb(), "MB");
  r.attempted += p.attempted;
  r.failed += p.failed;
  if (n < 1000)
    r.note("latency_p99_ms rests on " + std::to_string(n) +
           " samples (< 1000): read it as a tail estimate");
}

// ---- tracing ---------------------------------------------------------------

TraceWindow::TraceWindow() {
  obs::TraceSink::global().clear();
  obs::set_tracing_enabled(true);
}

TraceWindow::~TraceWindow() { obs::set_tracing_enabled(false); }

namespace {

std::int64_t arg_of(const obs::TraceEvent& e, const char* name) {
  for (int i = 0; i < obs::TraceEvent::kMaxArgs; ++i)
    if (e.arg_name[i] != nullptr && std::strcmp(e.arg_name[i], name) == 0)
      return e.arg[i];
  return 0;
}

}  // namespace

void TraceWindow::harvest(SpanStats& stats) {
  obs::TraceSink& sink = obs::TraceSink::global();
  std::vector<obs::TraceEvent> events = sink.events();
  stats.dropped += sink.dropped();
  sink.clear();

  std::unordered_map<std::uint64_t, std::vector<const obs::TraceEvent*>> tasks;
  for (const obs::TraceEvent& e : events)
    if (e.ph == 'X' && e.ctx.task_id != 0) tasks[e.ctx.task_id].push_back(&e);

  // Spans of one task nest by time containment (a 1 us tolerance absorbs
  // the task span's start being derived from a rounded total_ms).
  constexpr std::uint64_t kTol = 1000;
  for (auto& [id, spans] : tasks) {
    std::sort(spans.begin(), spans.end(), [](const auto* a, const auto* b) {
      return a->ts_ns != b->ts_ns ? a->ts_ns < b->ts_ns : a->dur_ns > b->dur_ns;
    });
    const std::size_t n = spans.size();
    std::vector<std::uint64_t> covered(n, 0), covered_until(n, 0);
    std::vector<std::size_t> stack;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t s0 = spans[i]->ts_ns, s1 = s0 + spans[i]->dur_ns;
      while (!stack.empty()) {
        const obs::TraceEvent* top = spans[stack.back()];
        if (s0 + kTol >= top->ts_ns && s1 <= top->ts_ns + top->dur_ns + kTol)
          break;
        stack.pop_back();
      }
      if (!stack.empty()) {
        const std::size_t p = stack.back();
        const std::uint64_t from = std::max(s0, covered_until[p]);
        if (s1 > from) covered[p] += s1 - from;
        covered_until[p] = std::max(covered_until[p], s1);
      }
      stack.push_back(i);
    }
    double staged = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const obs::TraceEvent& e = *spans[i];
      const double self =
          static_cast<double>(e.dur_ns - std::min(e.dur_ns, covered[i])) * 1e-6;
      const std::string name = e.name;
      stats.self_ms[name].push_back(self);
      if (name == "head" && e.ctx.kind != nullptr)
        stats.head_ms[e.ctx.kind].push_back(self);
      if (name == "resolve" && arg_of(e, "cache_hit") == 0)
        stats.prepare_ms.push_back(self);
      if (name == "embed") {
        ++stats.embeds;
        stats.flushes += static_cast<std::uint64_t>(arg_of(e, "flushes"));
      }
      if (name == "queue" || name == "resolve" || name == "embed" ||
          name == "head")
        staged += self;
    }
    stats.staged_ms.push_back(staged);
  }
}

std::uint64_t counter(const obs::Snapshot& s, const std::string& name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

std::uint64_t counter_prefix(const obs::Snapshot& s, const std::string& prefix) {
  std::uint64_t sum = 0;
  for (auto it = s.counters.lower_bound(prefix);
       it != s.counters.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it)
    sum += it->second;
  return sum;
}

void report_engine_layers(Report& r, const SpanStats& spans,
                          const obs::Snapshot& window,
                          std::vector<double> queue_ms) {
  const auto nq = static_cast<std::uint64_t>(queue_ms.size());
  r.set("runtime.queue_ms.p50", percentile(queue_ms, 0.50), "ms", nq);
  r.set("runtime.queue_ms.p99", percentile(queue_ms, 0.99), "ms", nq);

  double batch_mean = 0.0;
  const auto bh = window.histograms.find("engine.batch_size");
  if (bh != window.histograms.end() && bh->second.count > 0)
    batch_mean = static_cast<double>(bh->second.sum) /
                 static_cast<double>(bh->second.count);
  r.set("runtime.batch_size.mean", batch_mean, "requests");
  r.set("runtime.prepare_ms.p50", median(spans.prepare_ms), "ms",
        spans.prepare_ms.size());

  const auto embed_it = spans.self_ms.find("embed");
  const std::vector<double> embed_ms =
      embed_it == spans.self_ms.end() ? std::vector<double>{} : embed_it->second;
  r.set("nn.embed_ms.p50", percentile(embed_ms, 0.50), "ms", embed_ms.size());
  r.set("nn.embed_ms.p90", percentile(embed_ms, 0.90), "ms", embed_ms.size());
  const double embeds = static_cast<double>(spans.embeds);
  const auto per_embed = [&](double v) { return embeds > 0 ? v / embeds : 0.0; };
  const double steps = static_cast<double>(counter(window, "nn.steps"));
  r.set("nn.steps_per_embed", per_embed(steps), "count");
  r.set("nn.flushes_per_embed", per_embed(static_cast<double>(spans.flushes)),
        "count");
  r.set("nn.chains_per_embed",
        per_embed(static_cast<double>(counter(window, "nn.chains"))), "count");
  r.set("nn.global_syncs_per_embed",
        per_embed(static_cast<double>(counter(window, "nn.global_syncs"))),
        "count");
  double embed_total_ms = 0.0;
  for (double v : embed_ms) embed_total_ms += v;
  r.set("nn.ns_per_step", steps > 0 ? embed_total_ms * 1e6 / steps : 0.0, "ns");

  for (int k = 0; k < 6; ++k) {
    const std::string kind = api::task_name(static_cast<api::TaskKind>(k));
    const auto it = spans.head_ms.find(kind);
    const std::vector<double> v =
        it == spans.head_ms.end() ? std::vector<double>{} : it->second;
    r.set("api.head_ms." + kind, median(v), "ms", v.size());
  }
  if (spans.dropped > 0)
    r.note("trace sink dropped " + std::to_string(spans.dropped) +
           " events: span figures cover the retained tail only");
}

void report_cache(Report& r, const runtime::CircuitCache::Stats& before,
                  const runtime::CircuitCache::Stats& after) {
  std::uint64_t evictions = 0;
  const auto rate = [&](const runtime::CacheCounters& b,
                        const runtime::CacheCounters& a) {
    evictions += a.evictions - b.evictions;
    const runtime::CacheCounters d{a.hits - b.hits, a.misses - b.misses, 0};
    return d.hit_rate();
  };
  r.set("runtime.structure_hit_rate", rate(before.structures, after.structures),
        "ratio");
  r.set("runtime.embedding_hit_rate", rate(before.embeddings, after.embeddings),
        "ratio");
  r.set("runtime.regression_hit_rate",
        rate(before.regressions, after.regressions), "ratio");
  r.set("runtime.evictions", static_cast<double>(evictions), "count");
}

void report_trace_overhead(Report& r, const Phase& untraced,
                           const Phase& traced) {
  const double base = untraced.ops_per_s();
  r.set("obs.trace_overhead", base > 0 ? traced.ops_per_s() / base : 0.0,
        "ratio");
  r.set("proc.cpu_util", untraced.wall_s > 0 ? untraced.cpu_s / untraced.wall_s : 0.0,
        "cores");
  r.attempted += untraced.attempted + traced.attempted;
  r.failed += untraced.failed + traced.failed;
}

void check_task_balance(Report& r, const obs::Snapshot& window) {
  const std::uint64_t submitted = counter_prefix(window, "task.submitted.");
  const std::uint64_t completed = counter_prefix(window, "task.completed.");
  const std::uint64_t failed = counter_prefix(window, "task.failed.");
  if (submitted != completed + failed)
    r.wrong("obs balance: task.submitted " + std::to_string(submitted) +
            " != completed " + std::to_string(completed) + " + failed " +
            std::to_string(failed));
}

ScratchDir::ScratchDir(const std::string& tag) {
  path_ = ".bench_build/tmp/" + tag + "-" + std::to_string(::getpid());
  std::filesystem::remove_all(path_);
  std::filesystem::create_directories(path_);
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

}  // namespace perfbench

// sweep-interactive: one client in a closed loop asks for the power of a
// Table IV design under a fresh random workload (the paper's Table VI use:
// same design, many workloads). Requests cycle pll -> ac97_ctrl -> mem_ctrl
// so each design is an exact third of the traffic. After warm-up the
// structure cache hits and the embedding cache misses, so latency is one
// forward pass plus its record/plan overhead. One op is one request.

#include <memory>

#include "common.hpp"
#include "dataset/test_designs.hpp"
#include "netlist/aig.hpp"
#include "sim/workload.hpp"

namespace perfbench {

using namespace deepseq;

namespace {

// The designs are generated from a fixed seed so their structure, and with
// it every per-embed count, is the same for every --seed; the seed drives
// the workloads.
constexpr std::uint64_t kDesignSeed = 2024;

struct Sweep {
  std::vector<std::shared_ptr<const Circuit>> designs;
  std::uint64_t seed = 1;

  api::TaskRequest request(std::uint64_t i) const {
    api::TaskRequest r;
    r.circuit = designs[i % designs.size()];
    Rng rng(seed * 0x9E3779B97F4A7C15ULL + i);
    r.workload = random_workload(*r.circuit, rng);
    r.task = api::TaskKind::kPower;
    return r;
  }
  bool checked(std::uint64_t i) const {
    return (seed * 31 + i * 0x2545F4914F6CDD1DULL) % 16 == 0;
  }
};

struct Sample {
  std::uint64_t op;
  std::uint64_t digest;
};

Phase run_phase(api::Session& s, const Sweep& sw, std::uint64_t& next_op,
                double seconds, std::vector<double>& queue_ms,
                std::vector<Sample>& samples, std::size_t max_samples) {
  Phase p;
  const Stopwatch clock;
  // Stop on a whole design cycle so every window holds each design equally.
  while (clock.elapsed_s() < seconds || next_op % sw.designs.size() != 0) {
    const std::uint64_t op = next_op++;
    const api::TaskRequest req = sw.request(op);
    ++p.attempted;
    const Clock::time_point t0 = Clock::now();
    try {
      const api::TaskResult res = s.submit(req).get();
      p.latency_ms.push_back(seconds_since(t0) * 1e3);
      queue_ms.push_back(res.queue_ms);
      if (samples.size() < max_samples && sw.checked(op))
        samples.push_back({op, output_digest(res)});
      ++p.ops;
    } catch (const std::exception&) {
      ++p.failed;
    }
  }
  clock.add_to(p);
  return p;
}

}  // namespace

Report run_sweep_interactive(const Options& o) {
  Report r;
  Sweep sw;
  sw.seed = o.seed;
  for (const char* name : {"pll", "ac97_ctrl", "mem_ctrl"}) {
    const TestDesign d = build_test_design(name, o.sizes.design_scale, kDesignSeed);
    sw.designs.push_back(
        std::make_shared<const Circuit>(decompose_to_aig(d.netlist).aig));
  }
  r.note("designs pll/ac97_ctrl/mem_ctrl AIG nodes: " +
         std::to_string(sw.designs[0]->num_nodes()) + "/" +
         std::to_string(sw.designs[1]->num_nodes()) + "/" +
         std::to_string(sw.designs[2]->num_nodes()));

  // No embedding of a sweep is ever asked for twice, so the embedding and
  // regression caches hold one entry per cache shard: with the default
  // capacity they would keep every miss, and peak RSS would grow with the
  // number of requests a run completes instead of reaching a steady state.
  api::SessionConfig cfg;
  cfg.engine.cache.embedding_capacity = cfg.engine.cache.shards;
  cfg.engine.cache.regression_capacity = cfg.engine.cache.shards;
  // Two engine threads, so a forward pass runs on two nn threads drawn
  // from the same pool: intra-circuit parallelism is measured, and the
  // other cores of a 4-vCPU host absorb its neighbours' load. With one
  // helper per core, a stolen or slowed core stalls every flush, and the
  // latency tail followed host load instead of the program.
  cfg.engine.threads = 2;

  // Set-up: a Session plus one request per design, which fills the
  // structure cache. Repeated; the last one serves the timed window.
  std::uint64_t next_op = 0;
  std::vector<double> setups;
  std::unique_ptr<api::Session> session;
  for (int k = 0; k < o.sizes.setups; ++k) {
    session.reset();
    const Clock::time_point t0 = Clock::now();
    session = std::make_unique<api::Session>(cfg);
    for (std::size_t d = 0; d < sw.designs.size(); ++d)
      (void)session->submit(sw.request(next_op++)).get();
    setups.push_back(seconds_since(t0));
  }
  r.note("nn_threads " + std::to_string(session->nn_threads()) +
         ", engine threads " + std::to_string(session->num_threads()));

  const obs::Snapshot before = obs::Registry::global().snapshot();
  std::vector<double> queue_ms;
  std::vector<Sample> samples;
  const auto max_samples = static_cast<std::size_t>(o.sizes.checks);
  if (!o.trace) {
    const Phase p = run_phase(*session, sw, next_op, o.seconds, queue_ms,
                              samples, max_samples);
    report_end_to_end(r, p, median(setups));
  } else {
    const Phase plain = run_phase(*session, sw, next_op, o.seconds / 2,
                                  queue_ms, samples, max_samples);
    queue_ms.clear();
    const runtime::CircuitCache::Stats c0 = session->cache_stats();
    const obs::Snapshot t0 = obs::Registry::global().snapshot();
    SpanStats spans;
    Phase traced;
    {
      TraceWindow window;
      traced = run_phase(*session, sw, next_op, o.seconds / 2, queue_ms,
                         samples, max_samples);
      TraceWindow::harvest(spans);
    }
    const obs::Snapshot win = obs::delta(obs::Registry::global().snapshot(), t0);
    report_engine_layers(r, spans, win, queue_ms);
    report_cache(r, c0, session->cache_stats());
    report_trace_overhead(r, plain, traced);

    // The request's stages should account for what the client waited.
    const double staged = median(spans.staged_ms);
    const double lat = median(traced.latency_ms);
    const double share = lat > 0 ? staged / lat : 0.0;
    r.note(std::string(share < 0.9 ? "WARNING: " : "") +
           "queue+resolve+embed+head self time: median " +
           std::to_string(staged) + " ms of median latency " +
           std::to_string(lat) + " ms (" + std::to_string(100.0 * share) +
           "%)");
  }
  session->drain();
  check_task_balance(r, obs::delta(obs::Registry::global().snapshot(), before));

  // Seeded sample of served results, bit for bit against a
  // single-threaded reference Session.
  api::Session reference(reference_config());
  for (const Sample& s : samples) {
    if (output_digest(reference.run_sync(sw.request(s.op))) != s.digest)
      r.wrong("sweep op " + std::to_string(s.op) +
              " differs from the reference Session");
  }
  r.note("checked " + std::to_string(samples.size()) +
         " served results against the reference Session");
  return r;
}

}  // namespace perfbench

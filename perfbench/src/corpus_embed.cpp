// corpus-embed: the offline batch "estimate power for every design in a
// corpus". One iteration scans a generated multi-file Verilog tree with
// ingest::Corpus (seeded structural duplicates, so dedup runs), decomposes
// every design to AIG, submits one kPower task per design with a fresh
// workload to a fresh Session (so every prepare is a structure-cache miss
// and the engine batches across many distinct circuits) and drains. One op
// is one unique design; its latency runs from the burst's submit to the
// moment the benchmark holds its result, collected in submission order.

#include <fstream>
#include <future>
#include <memory>
#include <stdexcept>

#include "common.hpp"
#include "dataset/generator.hpp"
#include "ingest/corpus.hpp"
#include "netlist/aig.hpp"
#include "netlist/verilog_io.hpp"
#include "sim/workload.hpp"

namespace perfbench {

using namespace deepseq;

namespace {

constexpr int kDupEvery = 10;

/// The examples/gen_corpus family: module K of file F comes from a seed
/// derived from (seed, F, K); every kDupEvery-th module clones module
/// (0, 0) under a fresh name. Returns the number of duplicates written.
/// Unlike gen_corpus, a module's size (gates x0.5..x1.5 of the mean, PIs,
/// FFs) is a fixed function of its position, so the corpus costs the same
/// to serve under every seed; the seed drives the wiring and gate types.
int write_corpus(const std::string& dir, const Sizes& z, std::uint64_t seed) {
  int dups = 0;
  for (int f = 0; f < z.corpus_files; ++f) {
    std::ofstream out(dir + "/corpus_" + std::to_string(f) + ".v");
    bool any_ffs = false;
    for (int m = 0; m < z.corpus_modules; ++m) {
      const int ordinal = f * z.corpus_modules + m;
      const bool dup = ordinal > 0 && ordinal % kDupEvery == 0;
      const int src = dup ? 0 : ordinal;
      dups += dup ? 1 : 0;
      Rng rng(seed ^ (static_cast<std::uint64_t>(dup ? 0 : f) << 32) ^
              static_cast<std::uint64_t>(dup ? 0 : m) * 0x9E3779B97F4A7C15ULL);
      GeneratorSpec spec;
      spec.name = "m_" + std::to_string(f) + "_" + std::to_string(m);
      spec.num_gates = static_cast<int>(
          z.corpus_gates * (0.5 + ((src * 11) % 32 + 0.5) / 32.0));
      spec.num_pis = 4 + (src * 7) % 29;
      spec.num_ffs = 1 + static_cast<int>(spec.num_gates * 0.12 *
                                          (0.5 + ((src * 5) % 16 + 0.5) / 16.0));
      const Circuit c = generate_circuit(spec, rng);
      any_ffs = any_ffs || !c.ffs().empty();
      write_verilog_module(c, out);
      out << "\n";
    }
    if (any_ffs) write_dff_companion(out);
    if (!out) throw std::runtime_error("cannot write the generated corpus");
  }
  return dups;
}

struct Check {
  api::TaskRequest request;
  std::uint64_t digest;
};

struct Layers {
  std::vector<double> scan_s, aig_s, mb_per_s, queue_ms;
  double aig_nodes = 0, designs = 0, dup_dropped = 0;
  runtime::CircuitCache::Stats cache;
  SpanStats spans;
};

void add(runtime::CacheCounters& into, const runtime::CacheCounters& c) {
  into.hits += c.hits;
  into.misses += c.misses;
  into.evictions += c.evictions;
}

struct Run {
  Run(const Options& opts, std::string d) : o(opts), dir(std::move(d)) {}

  const Options& o;
  std::string dir;
  int expected_designs = 0, expected_dups = 0;
  std::uint64_t iteration = 0;
  std::vector<Check> checks;

  /// One timed iteration; `layers` collects per-layer readings.
  void iterate(Phase& p, Report& r, Layers& layers, bool traced) {
    const std::uint64_t it = iteration++;
    const Stopwatch clock;
    auto session = std::make_unique<api::Session>();
    Clock::time_point t = Clock::now();
    const ingest::Corpus corpus = ingest::Corpus::scan(dir);
    const double scan_s = seconds_since(t);

    t = Clock::now();
    std::vector<std::shared_ptr<const Circuit>> aigs;
    aigs.reserve(corpus.size());
    double aig_nodes = 0;
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      aigs.push_back(std::make_shared<const Circuit>(
          decompose_to_aig(corpus.circuit(i)).aig));
      aig_nodes += static_cast<double>(aigs.back()->num_nodes());
    }
    const double aig_s = seconds_since(t);

    std::vector<api::TaskRequest> requests(aigs.size());
    std::vector<std::future<api::TaskResult>> futures;
    futures.reserve(aigs.size());
    const Clock::time_point burst = Clock::now();
    for (std::size_t i = 0; i < aigs.size(); ++i) {
      api::TaskRequest& req = requests[i];
      req.circuit = aigs[i];
      Rng rng(o.seed * 0x9E3779B97F4A7C15ULL ^ (it << 20) ^ i);
      req.workload = random_workload(*req.circuit, rng);
      req.task = api::TaskKind::kPower;
      ++p.attempted;
      futures.push_back(session->submit(req));
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
      try {
        const api::TaskResult res = futures[i].get();
        p.latency_ms.push_back(seconds_since(burst) * 1e3);
        layers.queue_ms.push_back(res.queue_ms);
        ++p.ops;
        if (checks.size() < static_cast<std::size_t>(o.sizes.checks) &&
            (o.seed + it * 7 + i) % 11 == 0)
          checks.push_back({requests[i], output_digest(res)});
      } catch (const std::exception&) {
        ++p.failed;
      }
    }
    clock.add_to(p);

    if (traced) TraceWindow::harvest(layers.spans);
    const runtime::CircuitCache::Stats cs = session->cache_stats();
    add(layers.cache.structures, cs.structures);
    add(layers.cache.embeddings, cs.embeddings);
    add(layers.cache.regressions, cs.regressions);
    session.reset();

    layers.scan_s.push_back(scan_s);
    layers.mb_per_s.push_back(static_cast<double>(corpus.total_bytes()) / 1e6 /
                              scan_s);
    layers.aig_s.push_back(aig_s);
    layers.aig_nodes = aig_nodes;
    layers.designs = static_cast<double>(corpus.size());
    layers.dup_dropped = static_cast<double>(corpus.dup_dropped());
    if (static_cast<int>(corpus.size()) != expected_designs ||
        static_cast<int>(corpus.dup_dropped()) != expected_dups)
      r.wrong("corpus scan found " + std::to_string(corpus.size()) +
              " designs / " + std::to_string(corpus.dup_dropped()) +
              " duplicates, generated " + std::to_string(expected_designs) +
              " / " + std::to_string(expected_dups));
  }

  Phase phase(double seconds, Report& r, Layers& layers, bool traced) {
    Phase p;
    const Clock::time_point t0 = Clock::now();
    do {
      iterate(p, r, layers, traced);
    } while (seconds_since(t0) < seconds);
    return p;
  }
};

}  // namespace

Report run_corpus_embed(const Options& o) {
  Report r;
  ScratchDir scratch("corpus");
  Run run{o, scratch.path()};
  run.expected_dups = write_corpus(scratch.path(), o.sizes, o.seed);
  run.expected_designs =
      o.sizes.corpus_files * o.sizes.corpus_modules - run.expected_dups;

  // Set-up: one untimed iteration, which faults in the generated files and
  // warms the allocator. Each timed iteration builds its own Session, so
  // there are no caches to fill. Repeated; setup_s is the median.
  std::vector<double> setups;
  for (int k = 0; k < o.sizes.setups; ++k) {
    Layers warm;
    Phase p;
    const Clock::time_point t0 = Clock::now();
    run.iterate(p, r, warm, false);
    setups.push_back(seconds_since(t0));
    r.attempted += p.attempted;
    r.failed += p.failed;
  }

  const obs::Snapshot before = obs::Registry::global().snapshot();
  if (!o.trace) {
    Layers layers;
    const Phase p = run.phase(o.seconds, r, layers, false);
    report_end_to_end(r, p, median(setups));
  } else {
    Layers plain_layers, layers;
    const Phase plain = run.phase(o.seconds / 2, r, plain_layers, false);
    const obs::Snapshot t0 = obs::Registry::global().snapshot();
    Phase traced;
    {
      TraceWindow window;
      traced = run.phase(o.seconds / 2, r, layers, true);
    }
    const obs::Snapshot win = obs::delta(obs::Registry::global().snapshot(), t0);
    r.set("ingest.scan_s", median(layers.scan_s), "s", layers.scan_s.size());
    r.set("ingest.mb_per_s", median(layers.mb_per_s), "MB/s",
          layers.mb_per_s.size());
    r.set("ingest.designs", layers.designs, "count");
    r.set("ingest.dup_dropped", layers.dup_dropped, "count");
    r.set("netlist.aig_s", median(layers.aig_s), "s", layers.aig_s.size());
    r.set("netlist.aig_nodes", layers.aig_nodes, "count");
    report_engine_layers(r, layers.spans, win, layers.queue_ms);
    report_cache(r, runtime::CircuitCache::Stats{}, layers.cache);
    report_trace_overhead(r, plain, traced);
  }
  check_task_balance(r, obs::delta(obs::Registry::global().snapshot(), before));

  api::Session reference(reference_config());
  for (const Check& c : run.checks)
    if (output_digest(reference.run_sync(c.request)) != c.digest)
      r.wrong("corpus design differs from the reference Session");
  r.note("corpus: " + std::to_string(run.expected_designs) + " unique designs, " +
         std::to_string(run.iteration) + " iterations; checked " +
         std::to_string(run.checks.size()) +
         " served results against the reference Session");
  return r;
}

}  // namespace perfbench

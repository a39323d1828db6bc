// Bit-identity gate of the direct no-grad propagation: DeepSeqModel::embed
// on a no-grad Graph runs the sweeps as straight nn::kernels calls, and must
// equal the recorded grad-path forward (embed on a grad-enabled Graph) bit
// for bit — for every parity preset (both PropagationKinds, all three
// aggregators), at executor threads 1 and 4, with DEEPSEQ_NN_SIMD at 0 and
// 1, on the shared parity fixture and on pll at 1/64 scale. Session power
// and reliability results are pinned against the graph path too, and the
// direct path's trace counts against figures derived from the CircuitGraph.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "common/error.hpp"
#include "dataset/test_designs.hpp"
#include "netlist/aig.hpp"
#include "nn/executor.hpp"
#include "nn/kernels.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "power/pipeline.hpp"
#include "reliability/reliability_model.hpp"
#include "runtime/thread_pool.hpp"
#include "support/nn_parity.hpp"

namespace deepseq {
namespace {

using nn::Graph;
using nn::Tensor;
using testsupport::bit_identical;
using testsupport::parity_fixture;
using testsupport::parity_presets;

/// Restore the ambient DEEPSEQ_NN_SIMD (and the kernels' gate) on exit, so
/// the suite composes with the CI matrix's simd legs.
struct SimdGuard {
  SimdGuard()
      : had(std::getenv("DEEPSEQ_NN_SIMD") != nullptr),
        value(had ? std::getenv("DEEPSEQ_NN_SIMD") : "") {}
  ~SimdGuard() {
    if (had) {
      ::setenv("DEEPSEQ_NN_SIMD", value.c_str(), 1);
    } else {
      ::unsetenv("DEEPSEQ_NN_SIMD");
    }
    nn::kernels::refresh_from_env();
  }
  bool had;
  std::string value;
};

struct Fixture {
  Circuit aig;
  CircuitGraph graph;
  Workload workload;
};

const Fixture& pll_fixture() {
  static const Fixture f = [] {
    Fixture p;
    p.aig = optimize_aig(
                decompose_to_aig(build_test_design("pll", 1.0 / 64, 3).netlist)
                    .aig)
                .circuit;
    p.graph = build_circuit_graph(p.aig);
    Rng rng(17);
    p.workload = random_workload(p.aig, rng);
    return p;
  }();
  return f;
}

Tensor embed(const DeepSeqModel& model, const CircuitGraph& graph,
             const Workload& w, bool grad) {
  Graph g(grad);
  return model.embed(g, graph, w, 7)->value;
}

TEST(DirectPropagation, BitIdenticalToGraphPathForAllPresets) {
  SimdGuard guard;
  runtime::ThreadPool pool(4);
  const auto& parity = parity_fixture();
  struct Case {
    const char* name;
    const CircuitGraph* graph;
    const Workload* workload;
  };
  const Case cases[] = {
      {"parity fixture", &parity.graph, &parity.workload},
      {"pll@1/64", &pll_fixture().graph, &pll_fixture().workload}};
  for (const Case& c : cases) {
    ASSERT_FALSE(c.graph->ff_targets.empty()) << c.name;
    for (const ModelConfig& config : parity_presets()) {
      const DeepSeqModel model(config);
      for (const int threads : {1, 4}) {
        nn::Executor exec(&pool, threads);
        nn::ExecutorScope scope(exec);
        for (const bool simd : {false, true}) {
          ::setenv("DEEPSEQ_NN_SIMD", simd ? "1" : "0", 1);
          const Tensor graph_path = embed(model, *c.graph, *c.workload, true);
          const Tensor direct = embed(model, *c.graph, *c.workload, false);
          EXPECT_TRUE(bit_identical(graph_path, direct))
              << c.name << ", " << config.description() << ", threads "
              << threads << ", simd " << simd;
        }
      }
    }
  }
}

TEST(DirectPropagation, EmptyCircuitIsRejectedOnBothPaths) {
  const CircuitGraph empty = build_circuit_graph(Circuit{});
  ASSERT_EQ(empty.num_nodes, 0);
  const DeepSeqModel model(ModelConfig::deepseq(8, 1));
  for (const bool grad : {false, true})
    EXPECT_THROW(embed(model, empty, Workload{}, grad), CircuitError)
        << "grad " << grad;
}

/// Kernel calls of one direct level update: three state gathers, the
/// aggregator, the [message | features] concat, 20 GRU kernels, and the
/// write-back.
int direct_steps_per_level(AggregatorKind kind) {
  const int aggregator = kind == AggregatorKind::kConvSum     ? 4
                         : kind == AggregatorKind::kAttention ? 6
                                                              : 12;
  return 3 + aggregator + 1 + 20 + 1;
}

struct DirectCounts {
  int levels = 0, rows = 0, steps = 0;
};

/// What one direct embed must report, derived from the CircuitGraph alone.
DirectCounts expected_counts(const ModelConfig& config, const CircuitGraph& g) {
  const bool custom = config.propagation == PropagationKind::kDeepSeqCustom;
  DirectCounts c;
  for (const auto* sweep :
       {custom ? &g.comb_forward : &g.baseline_forward,
        custom ? &g.comb_reverse : &g.baseline_reverse})
    for (const LevelBatch& b : *sweep) {
      c.levels += config.iterations;
      c.rows += config.iterations * static_cast<int>(b.targets.size());
    }
  c.steps = c.levels * direct_steps_per_level(config.aggregator);
  if (custom && !g.ff_targets.empty()) c.steps += 2 * config.iterations;
  return c;
}

TEST(DirectPropagation, TraceCountsMatchCircuitGraph) {
  const auto& f = parity_fixture();
  for (const ModelConfig& config : parity_presets()) {
    const DeepSeqModel model(config);
    nn::ExecStats stats;
    {
      nn::ExecTraceScope trace(stats);
      embed(model, f.graph, f.workload, false);
    }
    const DirectCounts want = expected_counts(config, f.graph);
    EXPECT_GT(want.levels, 0);
    EXPECT_EQ(stats.levels, want.levels) << config.description();
    EXPECT_EQ(stats.rows, want.rows) << config.description();
    EXPECT_EQ(stats.steps, want.steps) << config.description();
    EXPECT_EQ(stats.simd_lanes, nn::kernels::lanes());
    // Nothing was recorded, planned or dispatched.
    EXPECT_EQ(stats.flushes, 0) << config.description();
    EXPECT_EQ(stats.chains, 0) << config.description();
  }
}

// ---- Session: served results and the embed span ----------------------------

api::SessionConfig small_session() {
  api::SessionConfig cfg;
  cfg.engine.threads = 2;
  cfg.backends.model = ModelConfig::deepseq(/*hidden=*/12, /*t=*/2);
  return cfg;
}

api::TaskRequest request(const Fixture& f, api::TaskKind task) {
  api::TaskRequest req;
  req.circuit = std::make_shared<const Circuit>(f.aig);
  req.workload = f.workload;
  req.task = task;
  req.init_seed = 7;
  return req;
}

TEST(DirectPropagation, SessionPowerMatchesGraphPath) {
  const api::SessionConfig cfg = small_session();
  api::Session session(cfg);
  const Fixture& f = pll_fixture();
  const api::TaskResult res =
      session.run_sync(request(f, api::TaskKind::kPower));
  const auto& out = res.as<api::PowerOutput>();

  const DeepSeqModel ref(cfg.backends.model);
  Graph g(/*grad_enabled=*/true);
  const auto pred = ref.regress(g, ref.embed(g, f.graph, f.workload, 7));
  const std::size_t n = f.aig.num_nodes();
  std::vector<double> logic1(n), rate(n);
  for (std::size_t v = 0; v < n; ++v) {
    const int row = static_cast<int>(v);
    logic1[v] = pred.lg->value.at(row, 0);
    rate[v] = pred.tr->value.at(row, 0) + pred.tr->value.at(row, 1);
  }
  const PowerReport want =
      power_from_activity(f.aig, logic1, rate, cfg.power_duration);
  EXPECT_EQ(out.logic1, logic1);
  EXPECT_EQ(out.toggle_rate, rate);
  EXPECT_EQ(out.report.total_watts, want.total_watts);
}

TEST(DirectPropagation, SessionReliabilityMatchesGraphPath) {
  const api::SessionConfig cfg = small_session();
  api::Session session(cfg);
  const Fixture& f = pll_fixture();
  const api::TaskResult res =
      session.run_sync(request(f, api::TaskKind::kReliability));
  const auto& out = res.as<api::ReliabilityOutput>();

  // ReliabilityModel::estimate's readout over grad-path forwards.
  const DeepSeqModel ref(cfg.backends.model);
  const ReliabilityModel ref_rel(ref);
  Graph g(/*grad_enabled=*/true);
  const Tensor err = ref_rel.forward(g, f.graph, f.workload, 7)->value;
  const Tensor lg =
      ref.regress(g, ref.embed(g, f.graph, f.workload, 7)).lg->value;
  std::vector<double> node(static_cast<std::size_t>(f.graph.num_nodes));
  for (int v = 0; v < f.graph.num_nodes; ++v) {
    const double p1 = lg.at(v, 0);
    node[v] = p1 * (1.0 - err.at(v, 1)) + (1.0 - p1) * (1.0 - err.at(v, 0));
  }
  double sum = 0.0;
  for (NodeId po : f.aig.pos()) sum += node[po];
  EXPECT_EQ(out.node_reliability, node);
  EXPECT_EQ(out.circuit_reliability,
            sum / static_cast<double>(f.aig.pos().size()));
}

TEST(DirectPropagation, EmbedSpanAndStepCounterReportDirectWork) {
  const api::SessionConfig cfg = small_session();
  const Fixture& f = pll_fixture();
  const obs::Snapshot base = obs::Registry::global().snapshot();
  obs::TraceSink::global().clear();
  const bool was_tracing = obs::tracing_enabled();
  obs::set_tracing_enabled(true);
  {
    api::Session session(cfg);
    session.run_sync(request(f, api::TaskKind::kEmbedding));
  }
  obs::set_tracing_enabled(was_tracing);

  const DirectCounts want = expected_counts(cfg.backends.model, f.graph);
  const auto arg = [](const obs::TraceEvent& e, const char* name) {
    for (int i = 0; i < obs::TraceEvent::kMaxArgs; ++i)
      if (e.arg_name[i] != nullptr && std::strcmp(e.arg_name[i], name) == 0)
        return e.arg[i];
    ADD_FAILURE() << "embed span has no arg " << name;
    return std::int64_t{-1};
  };
  int embeds = 0;
  for (const obs::TraceEvent& e : obs::TraceSink::global().events()) {
    if (std::strcmp(e.name, "embed") != 0) continue;
    ++embeds;
    EXPECT_EQ(arg(e, "steps"), want.steps);
    EXPECT_EQ(arg(e, "levels"), want.levels);
    EXPECT_EQ(arg(e, "rows"), want.rows);
    EXPECT_EQ(arg(e, "flushes"), 0);
  }
  EXPECT_EQ(embeds, 1);
  const obs::Snapshot d = obs::delta(obs::Registry::global().snapshot(), base);
  const auto it = d.counters.find("nn.steps");
  ASSERT_NE(it, d.counters.end());
  EXPECT_EQ(it->second, static_cast<std::uint64_t>(want.steps));
}

}  // namespace
}  // namespace deepseq

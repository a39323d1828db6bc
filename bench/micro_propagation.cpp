// Single-circuit propagation microbenchmark across the Table IV designs (at
// the bench design scale, DEEPSEQ_SCALE_DENOM, default 1/16), at two model
// scales: bench (DEEPSEQ_HIDDEN / DEEPSEQ_T, default H=32, T=4) and paper
// (H=64, T=10, §IV-A3). For every design and scale it times
//
//   * the direct no-grad embed — DeepSeqModel::embed on a no-grad Graph,
//     which runs the sweeps as straight nn::kernels calls on the calling
//     thread (no record, plan or dispatch), with SIMD on and off;
//   * the grad-path forward — the same embed recorded on a grad-enabled
//     Graph, planned and executed (no backward), sequentially and on the
//     widest nn executor; this is the path training runs;
//
// and checks every direct embed bit-identical to the grad-path forward. For
// the largest design it also reports the grad-path chain structure (fused
// vs unfused barriers), the record overhead per op, and sequential vs
// parallel backward parity.
//
// Emits a table and micro_propagation.json (bench_util::JsonWriter); the
// repo commits a snapshot as BENCH_micro_propagation.json at the root.
// `hardware_concurrency` is part of the JSON so thread speedups explain
// themselves.
//
// Knobs: DEEPSEQ_PROP_THREADS (widest executor, default 4),
// DEEPSEQ_PROP_REPS (timing repetitions, best-of, default 3), DEEPSEQ_FULL=1
// for paper-scale designs.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/env.hpp"
#include "common/timer.hpp"
#include "core/model.hpp"
#include "dataset/test_designs.hpp"
#include "netlist/aig.hpp"
#include "nn/executor.hpp"
#include "runtime/thread_pool.hpp"

using namespace deepseq;
using namespace deepseq::bench;

namespace {

struct Design {
  std::string name;
  Circuit aig;
  CircuitGraph graph;
  Workload workload;
  int levels = 0;
};

bool bit_identical(const nn::Tensor& a, const nn::Tensor& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

void set_fuse(bool on) { ::setenv("DEEPSEQ_NN_FUSE", on ? "1" : "0", 1); }
void set_simd(bool on) { ::setenv("DEEPSEQ_NN_SIMD", on ? "1" : "0", 1); }

/// Best-of-`reps` wall time of one embed: direct when !grad, the recorded
/// graph forward when grad. The first rep's output and ExecStats are kept.
double time_embed(const DeepSeqModel& model, const Design& d, bool grad,
                  nn::Executor& exec, int reps, nn::Tensor* out,
                  nn::ExecStats* stats) {
  nn::ExecutorScope scope(exec);
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    nn::ExecStats local;
    WallTimer t;
    nn::Graph g(grad);
    nn::Var e;
    {
      nn::ExecTraceScope ts(local);
      e = model.embed(g, d.graph, d.workload, 7);
    }
    best = std::min(best, t.millis());
    if (rep == 0) {
      if (out != nullptr) *out = e->value;
      if (stats != nullptr) *stats = std::move(local);
    }
  }
  return best;
}

/// Record-layer overhead: ns to record (not execute) one small op in a
/// steady-state no-grad graph — arena-recycled Ops, inline operand storage.
/// The timer covers only the recording loop; the flush happens on scope
/// exit, outside it. Best of several reps = warm free-list state.
double measure_record_ns_per_op() {
  set_fuse(true);
  nn::Executor sequential;
  nn::ExecutorScope scope(sequential);
  nn::Graph g(/*grad_enabled=*/false);
  const nn::Var a = nn::make_constant(nn::Tensor::full(8, 8, 0.5f));
  const nn::Var b = nn::make_constant(nn::Tensor::full(8, 8, 0.25f));
  constexpr int kOps = 4096;
  double best_ms = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    nn::BatchScope batch(g);
    WallTimer t;
    nn::Var x = g.add(a, b);
    for (int k = 1; k < kOps; k += 3) {
      x = g.mul(x, b);
      x = g.add(x, a);
      x = g.sigmoid(x);
    }
    best_ms = std::min(best_ms, t.millis());
  }  // scope exit flushes the recorded chain (excluded from the timer)
  return best_ms * 1e6 / kOps;
}

}  // namespace

int main() {
  const BenchConfig cfg = BenchConfig::from_env();
  print_banner("PROPAGATION",
               "single-circuit embed: direct no-grad sweeps vs the recorded "
               "grad-path forward",
               cfg);

  const int max_threads =
      std::max(1, static_cast<int>(env_int("DEEPSEQ_PROP_THREADS", 4)));
  const int reps =
      std::max(1, static_cast<int>(env_int("DEEPSEQ_PROP_REPS", 3)));

  std::vector<Design> designs;
  for (TestDesign& td :
       build_all_test_designs(cfg.design_scale, cfg.eval_seed)) {
    Design d;
    d.name = td.name;
    d.aig = optimize_aig(decompose_to_aig(td.netlist).aig).circuit;
    d.graph = build_circuit_graph(d.aig);
    Rng rng(cfg.eval_seed);
    d.workload = random_workload(d.aig, rng);
    d.levels = static_cast<int>(d.graph.comb_forward.size());
    designs.push_back(std::move(d));
  }
  std::size_t largest = 0;
  for (std::size_t i = 1; i < designs.size(); ++i)
    if (designs[i].aig.num_nodes() > designs[largest].aig.num_nodes())
      largest = i;

  struct Scale {
    const char* name;
    int hidden, iterations;
  };
  const Scale scales[] = {{"bench", cfg.hidden, cfg.iterations},
                          {"paper", 64, 10}};

  runtime::ThreadPool pool(max_threads);
  nn::Executor sequential;
  nn::Executor widest(&pool, max_threads);

  JsonWriter json;
  json.begin_object();
  json.field("bench", "micro_propagation");
  json.field("hardware_concurrency",
             static_cast<int>(std::thread::hardware_concurrency()));
  json.field("max_threads", max_threads);
  json.field("reps", reps);
  json.field("largest_design", designs[largest].name);
  json.begin_array("rows");

  std::printf("%-10s %-5s | %6s %6s | %9s %9s | %9s %9s | %7s | %5s\n",
              "design", "scale", "nodes", "levels", "direct", "scalar",
              "graph 1t", "graph Nt", "speedup", "biteq");
  std::printf("%.*s\n", 96, std::string(96, '-').c_str());

  bool all_identical = true;
  for (const Scale& sc : scales) {
    const DeepSeqModel model(ModelConfig::deepseq(sc.hidden, sc.iterations));
    for (const Design& d : designs) {
      set_fuse(true);
      set_simd(true);
      nn::Tensor direct, direct_scalar, graph_1t, graph_nt;
      nn::ExecStats direct_stats, graph_stats;
      const double direct_ms = time_embed(model, d, false, sequential, reps,
                                          &direct, &direct_stats);
      const double graph_1t_ms =
          time_embed(model, d, true, sequential, reps, &graph_1t, &graph_stats);
      const double graph_nt_ms =
          time_embed(model, d, true, widest, reps, &graph_nt, nullptr);
      set_simd(false);
      const double scalar_ms = time_embed(model, d, false, sequential, reps,
                                          &direct_scalar, nullptr);
      set_simd(true);
      const bool identical = bit_identical(direct, graph_1t) &&
                             bit_identical(direct, graph_nt) &&
                             bit_identical(direct, direct_scalar);
      all_identical = all_identical && identical;
      const double speedup = direct_ms > 0.0 ? graph_1t_ms / direct_ms : 0.0;
      std::printf(
          "%-10s %-5s | %6zu %6d | %9.2f %9.2f | %9.2f %9.2f | %6.2fx | %5s\n",
          d.name.c_str(), sc.name, d.aig.num_nodes(), d.levels, direct_ms,
          scalar_ms, graph_1t_ms, graph_nt_ms, speedup,
          identical ? "yes" : "NO");
      std::fflush(stdout);
      json.begin_object();
      json.field("design", d.name);
      json.field("scale", sc.name);
      json.field("hidden", sc.hidden);
      json.field("iterations", sc.iterations);
      json.field("nodes", static_cast<std::uint64_t>(d.aig.num_nodes()));
      json.field("levels", d.levels);
      json.field("direct_ms", direct_ms);
      json.field("direct_scalar_ms", scalar_ms);
      json.field("direct_steps", direct_stats.steps);
      json.field("direct_level_updates", direct_stats.levels);
      json.field("direct_rows", direct_stats.rows);
      json.field("simd_lanes", direct_stats.simd_lanes);
      json.field("graph_forward_ms_1t", graph_1t_ms);
      json.field("graph_forward_ms_max_threads", graph_nt_ms);
      json.field("graph_steps", graph_stats.steps);
      json.field("graph_flushes", graph_stats.flushes);
      json.field("graph_chains", graph_stats.chains);
      json.field("direct_speedup_vs_graph_1t", speedup);
      json.field("bit_identical", identical);
      json.end_object();
    }
  }
  std::printf("\n");
  json.end_array();  // rows
  json.field("all_bit_identical", all_identical);

  const DeepSeqModel model(ModelConfig::deepseq(cfg.hidden, cfg.iterations));

  // Grad-path chain structure of the largest design at the widest
  // executor: fused vs unfused barriers, the structural win chain fusion
  // exists for on the training path.
  {
    const Design& d = designs[largest];
    nn::ExecStats fused, unfused;
    set_fuse(true);
    time_embed(model, d, true, widest, 1, nullptr, &fused);
    set_fuse(false);
    time_embed(model, d, true, widest, 1, nullptr, &unfused);
    set_fuse(true);
    const double reduction =
        fused.barriers > 0 ? static_cast<double>(unfused.barriers) /
                                 static_cast<double>(fused.barriers)
                           : 0.0;
    std::printf(
        "%s grad-path forward at %d threads: %d flushes, %d barriers "
        "(unfused %d, %.1fx fewer), %d chains, %d steps, %d ops fused\n",
        d.name.c_str(), max_threads, fused.flushes, fused.barriers,
        unfused.barriers, reduction, fused.chains, fused.steps,
        fused.fused_ops);
    json.field("graph_barriers_fused", fused.barriers);
    json.field("graph_barriers_unfused", unfused.barriers);
    json.field("barrier_reduction_at_max_threads", reduction);
  }

  // Record-layer overhead: arena-allocated, inline-operand op recording.
  {
    const double ns = measure_record_ns_per_op();
    std::printf("record overhead: %.0f ns/op\n", ns);
    json.field("record_ns_per_op", ns);
  }

  // Grad-mode parity on the largest design: loss and every parameter
  // gradient bit-identical between sequential and parallel backward.
  {
    const Design& d = designs[largest];
    const nn::Tensor target_lg(d.graph.num_nodes, 1);
    const auto params = model.params();
    auto run = [&](nn::Executor& exec, std::vector<nn::Tensor>& grads) {
      nn::ExecutorScope scope(exec);
      for (const auto& [name, p] : params) {
        (void)name;
        if (p->has_grad()) p->grad.zero();
      }
      nn::Graph g(/*grad_enabled=*/true);
      const auto out = model.forward(g, d.graph, d.workload, 7);
      const nn::Var loss = g.l1_loss(out.lg, target_lg);
      g.backward(loss);
      grads.clear();
      for (const auto& [name, p] : params) {
        (void)name;
        grads.push_back(p->has_grad()
                            ? p->grad
                            : nn::Tensor(p->value.rows(), p->value.cols()));
      }
      return loss->value.at(0, 0);
    };
    std::vector<nn::Tensor> g_seq, g_par;
    const float loss_seq = run(sequential, g_seq);
    const float loss_par = run(widest, g_par);
    bool grads_identical = loss_seq == loss_par && g_seq.size() == g_par.size();
    for (std::size_t k = 0; grads_identical && k < g_seq.size(); ++k)
      grads_identical = bit_identical(g_seq[k], g_par[k]);
    std::printf("grad-mode parity on %s at %d threads: %s\n", d.name.c_str(),
                max_threads, grads_identical ? "bit-identical" : "DIVERGED");
    json.field("grad_bit_identical", grads_identical);
  }

  json.end_object();
  write_json_file("micro_propagation.json", json.str());
  if (!all_identical) {
    std::printf("direct embed DIVERGED from the grad-path forward\n");
    return 1;
  }
  return 0;
}

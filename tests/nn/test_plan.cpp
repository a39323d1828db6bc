// Structural tests of the chain-fused plan layer, plus the CI perf gate.
//
// The planner's contract has two halves. Structural: a union-find
// "gather-cut" pass fuses maximal single-consumer op chains into chain
// tasks, leaving cut-wave barriers only at true fan-in/fan-out points — on
// a pll-shaped deep-narrow graph the fused plan must carry >= 10x fewer
// barriers than the unfused (DEEPSEQ_NN_FUSE=0) wave plan, a property of
// the plan alone and therefore assertable on a 1-core CI box. Behavioral:
// fused execution is bit-identical to unfused and to sequential — values
// and gradients — for every ModelConfig preset at 1/2/4 threads and for
// the degenerate DAG shapes (single op, diamond fan-in/out, aliased
// operands, empty flush).

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "nn/executor.hpp"
#include "nn/op.hpp"
#include "runtime/thread_pool.hpp"
#include "support/nn_parity.hpp"

namespace deepseq {
namespace {

using nn::Chunk;
using nn::Graph;
using nn::Op;
using nn::OpKind;
using nn::Plan;
using nn::Tensor;
using nn::Var;
using testsupport::GradRun;
using testsupport::bit_identical;
using testsupport::parity_fixture;
using testsupport::parity_presets;
using testsupport::train_step_with;

void set_fuse(bool on) { ::setenv("DEEPSEQ_NN_FUSE", on ? "1" : "0", 1); }

/// Restore the ambient DEEPSEQ_NN_FUSE on test exit: the CI matrix runs
/// this binary under an explicit fuse leg whose setting must survive for
/// any test that doesn't pin fusion itself.
struct FuseGuard {
  FuseGuard() : had(std::getenv("DEEPSEQ_NN_FUSE") != nullptr),
                value(had ? std::getenv("DEEPSEQ_NN_FUSE") : "") {}
  ~FuseGuard() {
    if (had) {
      ::setenv("DEEPSEQ_NN_FUSE", value.c_str(), 1);
    } else {
      ::unsetenv("DEEPSEQ_NN_FUSE");
    }
  }
  bool had;
  std::string value;
};

/// Hand-built op DAGs for direct Plan::build structural checks.
struct OpFactory {
  std::vector<std::unique_ptr<Op>> pool;
  std::vector<Op*> ops;

  Var emit(OpKind kind, std::initializer_list<Var> inputs, int rows,
           int cols) {
    auto op = std::make_unique<Op>();
    op->kind = kind;
    op->inputs = inputs;
    op->scalar = 0.5f;  // kScale factor, harmless elsewhere
    Var out = nn::make_constant(Tensor(rows, cols));
    op->out = out;
    ops.push_back(op.get());
    pool.push_back(std::move(op));
    return out;
  }
};

TEST(Plan, EmptyBatchBuildsEmptyPlan) {
  const Plan plan = Plan::build({}, 4, /*fuse=*/true);
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.barrier_count(), 0u);
}

TEST(Plan, SingleOpIsOneCutOneTask) {
  OpFactory f;
  const Var a = nn::make_constant(Tensor::full(4, 4, 1.0f));
  f.emit(OpKind::kSigmoid, {a}, 4, 4);
  for (const bool fuse : {true, false}) {
    const Plan plan = Plan::build(f.ops, 4, fuse);
    EXPECT_EQ(plan.barrier_count(), 1u);
    ASSERT_EQ(plan.tasks().size(), 1u);  // small kernel: no row split
    EXPECT_EQ(plan.tasks()[0].count, 1u);
    EXPECT_EQ(plan.stats().chains, 1u);
  }
}

TEST(Plan, LinearChainFusesToOneTask) {
  // Six small elementwise ops in a single-consumer chain: unfused they are
  // six barriers; fused they are one cut with one six-step chain task.
  OpFactory f;
  const Var a = nn::make_constant(Tensor::full(4, 4, 1.0f));
  Var x = f.emit(OpKind::kSigmoid, {a}, 4, 4);
  for (int i = 0; i < 5; ++i) x = f.emit(OpKind::kScale, {x}, 4, 4);

  const Plan fused = Plan::build(f.ops, 4, /*fuse=*/true);
  EXPECT_EQ(fused.barrier_count(), 1u);
  ASSERT_EQ(fused.tasks().size(), 1u);
  EXPECT_EQ(fused.tasks()[0].count, 6u);
  EXPECT_EQ(fused.stats().chains, 1u);
  EXPECT_EQ(fused.stats().fused_ops, 6u);
  EXPECT_EQ(fused.stats().chain_len_hist[nn::chain_len_bucket(6)], 1u);

  const Plan unfused = Plan::build(f.ops, 4, /*fuse=*/false);
  EXPECT_EQ(unfused.barrier_count(), 6u);
  EXPECT_EQ(unfused.stats().fused_ops, 0u);
}

TEST(Plan, DiamondKeepsFanOutCut) {
  // a -> {b, c} -> d: a's fan-out is a true cut (its two consumers may run
  // concurrently), so a stays alone; b, c and d share one fused chain
  // (every escape of b and c points at d). Two cuts fused, three unfused.
  OpFactory f;
  const Var leaf = nn::make_constant(Tensor::full(4, 4, 1.0f));
  const Var a = f.emit(OpKind::kSigmoid, {leaf}, 4, 4);
  const Var b = f.emit(OpKind::kScale, {a}, 4, 4);
  const Var c = f.emit(OpKind::kTanh, {a}, 4, 4);
  f.emit(OpKind::kAdd, {b, c}, 4, 4);

  const Plan fused = Plan::build(f.ops, 4, /*fuse=*/true);
  EXPECT_EQ(fused.barrier_count(), 2u);
  EXPECT_EQ(fused.stats().chains, 2u);
  EXPECT_EQ(fused.stats().fused_ops, 3u);

  const Plan unfused = Plan::build(f.ops, 4, /*fuse=*/false);
  EXPECT_EQ(unfused.barrier_count(), 3u);
}

TEST(Plan, AliasedOperandsPlanOnce) {
  // add(x, x): the producer edge must dedupe — one producer, one consumer,
  // a two-op chain, and execution must read the aliased operand correctly.
  OpFactory f;
  const Var a = nn::make_constant(Tensor::full(4, 4, 1.0f));
  const Var x = f.emit(OpKind::kSigmoid, {a}, 4, 4);
  f.emit(OpKind::kAdd, {x, x}, 4, 4);
  const Plan fused = Plan::build(f.ops, 4, /*fuse=*/true);
  EXPECT_EQ(fused.barrier_count(), 1u);
  EXPECT_EQ(fused.stats().fused_ops, 2u);
}

TEST(Plan, WideAlignedChainRowSplitsDeterministically) {
  // A heavy matmul -> add -> sigmoid chain over many rows stays
  // row-splittable after fusion: K row-range tasks in one cut, each
  // carrying every step, covering all rows disjointly.
  OpFactory f;
  const Var x = nn::make_constant(Tensor::full(512, 64, 0.01f));
  const Var w = nn::make_constant(Tensor::full(64, 64, 0.02f));
  const Var m = f.emit(OpKind::kMatmul, {x, w}, 512, 64);
  const Var s = f.emit(OpKind::kAdd, {m, m}, 512, 64);
  f.emit(OpKind::kSigmoid, {s}, 512, 64);

  const int threads = 4;
  const Plan fused = Plan::build(f.ops, threads, /*fuse=*/true);
  ASSERT_EQ(fused.barrier_count(), 1u);
  const auto& tasks = fused.tasks();
  ASSERT_EQ(tasks.size(), 4u);  // work >> kSplitWork: split caps at threads
  int rows_covered = 0;
  for (const auto& t : tasks) {
    ASSERT_EQ(t.count, 3u);  // every task carries the whole chain
    const Chunk* steps = fused.steps() + t.first;
    for (std::uint32_t s = 1; s < t.count; ++s) {
      EXPECT_EQ(steps[s].begin, steps[0].begin);  // shared row slice
      EXPECT_EQ(steps[s].end, steps[0].end);
    }
    rows_covered += steps[0].end - steps[0].begin;
  }
  EXPECT_EQ(rows_covered, 512);
}

TEST(Plan, GatherAbsorbsIntoSequentialChainOnlyWhenCheap) {
  // gather reading rows of an in-batch tensor cannot row-split (arbitrary
  // row fan-in), but a narrow chain fuses it sequentially — while a row
  // of heavy aligned work refuses the merge to keep its split.
  OpFactory f;
  const Var a = nn::make_constant(Tensor::full(8, 8, 1.0f));
  const Var x = f.emit(OpKind::kSigmoid, {a}, 8, 8);
  {
    auto op = std::make_unique<Op>();
    op->kind = OpKind::kGather;
    op->inputs = {x};
    for (int r = 0; r < 8; ++r) op->refs.push_back(nn::RowRef{x, 7 - r});
    op->out = nn::make_constant(Tensor(8, 8));
    f.ops.push_back(op.get());
    f.pool.push_back(std::move(op));
  }
  const Plan fused = Plan::build(f.ops, 4, /*fuse=*/true);
  EXPECT_EQ(fused.barrier_count(), 1u);  // tiny work: sequential fuse
  EXPECT_EQ(fused.stats().fused_ops, 2u);
}

// ---- behavioral parity: fused vs unfused vs sequential ---------------------
// (fixture, presets and the train step are shared with test_executor.cpp via
// tests/support/nn_parity.hpp so both suites pin the same contract)

TEST(PlanParity, FusedMatchesUnfusedForAllPresetsAndThreadCounts) {
  // Embeddings and gradients bit-identical across DEEPSEQ_NN_FUSE={1,0} x
  // threads={1,2,4} for every ModelConfig preset. Embeddings come from a
  // grad-enabled graph, the recorded forward the executor runs (a no-grad
  // embed bypasses it). The reference is the fused sequential run;
  // everything else must memcmp-match it.
  FuseGuard guard;
  runtime::ThreadPool pool(4);
  for (const ModelConfig& config : parity_presets()) {
    const DeepSeqModel model(config);

    set_fuse(true);
    nn::Executor sequential;
    Tensor reference;
    {
      nn::ExecutorScope scope(sequential);
      Graph g(/*grad_enabled=*/true);
      reference = model.embed(g, parity_fixture().graph, parity_fixture().workload, 7)->value;
    }
    const GradRun ref_grads = train_step_with(model, sequential);

    for (const bool fused : {true, false}) {
      set_fuse(fused);
      for (const int threads : {1, 2, 4}) {
        nn::Executor exec(&pool, threads);
        Tensor got;
        {
          nn::ExecutorScope scope(exec);
          Graph g(/*grad_enabled=*/true);
          got = model.embed(g, parity_fixture().graph, parity_fixture().workload, 7)->value;
        }
        EXPECT_TRUE(bit_identical(reference, got))
            << config.description() << " embed diverges at " << threads
            << " threads, fused=" << fused;
        const GradRun grads = train_step_with(model, exec);
        EXPECT_EQ(ref_grads.loss, grads.loss)
            << config.description() << " fused=" << fused;
        ASSERT_EQ(ref_grads.grads.size(), grads.grads.size());
        for (std::size_t i = 0; i < ref_grads.grads.size(); ++i)
          EXPECT_TRUE(bit_identical(ref_grads.grads[i], grads.grads[i]))
              << config.description() << " grad " << i << " diverges at "
              << threads << " threads, fused=" << fused;
      }
    }
  }
}

TEST(PlanParity, DegenerateGraphShapesMatchAcrossFuseModes) {
  // Diamond fan-in/out, aliased operands and an empty flush, executed
  // through the Graph in both fuse modes at 1 and 4 threads.
  FuseGuard guard;
  runtime::ThreadPool pool(4);
  auto run = [&](bool fused, int threads, float* aliased_grad) {
    set_fuse(fused);
    nn::Executor exec(&pool, threads);
    nn::ExecutorScope scope(exec);
    Graph g(/*grad_enabled=*/true);
    g.flush();  // empty flush: must be a no-op
    Var p = nn::make_param(Tensor::full(3, 3, 0.5f));
    Var a = g.sigmoid(p);
    Var b = g.scale(a, 2.0f);
    Var c = g.tanh_(a);       // diamond fan-out from a
    Var d = g.add(b, c);      // fan-in
    Var e = g.mul(d, d);      // aliased operands
    Var loss = g.l1_loss(e, Tensor(3, 3));
    g.backward(loss);
    *aliased_grad = p->grad.at(1, 1);
    return loss->value.at(0, 0);
  };
  float ref_grad = 0.0f;
  const float ref = run(true, 1, &ref_grad);
  for (const bool fused : {true, false}) {
    for (const int threads : {1, 4}) {
      float grad = 0.0f;
      const float loss = run(fused, threads, &grad);
      EXPECT_EQ(ref, loss) << "fused=" << fused << " threads=" << threads;
      EXPECT_EQ(ref_grad, grad) << "fused=" << fused << " threads=" << threads;
    }
  }
}

// ---- the CI structural perf gate -------------------------------------------

TEST(PlanStructure, PllShapedGraphCutsBarriersTenfold) {
  // A pll-shaped graph: deep (320 levels) and narrow (16 rows), each level
  // a gather off the previous level's output followed by a thin elementwise
  // chain — the shape whose per-wave barriers erased PR 3's speedup. The
  // fused plan must carry at most a tenth of the unfused plan's barriers.
  // Both plans are built at 4 planner threads regardless of host cores:
  // the assertion is structural, not a timing.
  FuseGuard guard;
  runtime::ThreadPool pool(4);
  constexpr int kLevels = 320;
  constexpr int kRows = 16;
  constexpr int kLevelsPerFlush = 32;

  auto trace = [&](bool fused) {
    set_fuse(fused);
    nn::Executor exec(&pool, 4);
    nn::ExecutorScope scope(exec);
    nn::ExecStats stats;
    nn::ExecTraceScope ts(stats);
    Graph g(/*grad_enabled=*/false);
    Var h = g.constant(Tensor::full(kRows, 8, 0.3f));
    int level = 0;
    while (level < kLevels) {
      nn::BatchScope group(g);
      for (int k = 0; k < kLevelsPerFlush && level < kLevels; ++k, ++level) {
        std::vector<nn::RowRef> refs;
        for (int r = 0; r < kRows; ++r)
          refs.push_back(nn::RowRef{h, kRows - 1 - r});
        Var x = g.gather(refs);
        for (int i = 0; i < 6; ++i) {
          x = g.scale(x, 1.01f);
          x = g.sigmoid(x);
        }
        h = x;
      }
    }
    return std::pair<nn::ExecStats, Tensor>(std::move(stats), h->value);
  };

  const auto [fused, fused_out] = trace(true);
  const auto [unfused, unfused_out] = trace(false);
  EXPECT_TRUE(bit_identical(fused_out, unfused_out));
  ASSERT_GT(fused.barriers, 0);
  ASSERT_GT(unfused.barriers, fused.barriers);
  // The gate: >= 10x fewer barriers, independent of host core count.
  EXPECT_LE(fused.barriers * 10, unfused.barriers)
      << "fused=" << fused.barriers << " unfused=" << unfused.barriers;
  // Fusion actually built long chains, not just fewer one-op tasks.
  EXPECT_GT(fused.fused_ops, (kLevels * 13) / 2);
}

// ---- dependency-counted scheduling -----------------------------------------

/// Save/restore one env knob (DEEPSEQ_NN_DEPSCHED), so these tests compose
/// with any ambient CI matrix leg.
struct EnvVarGuard {
  explicit EnvVarGuard(const char* n)
      : name(n),
        had(std::getenv(n) != nullptr),
        value(had ? std::getenv(n) : "") {}
  ~EnvVarGuard() {
    if (had) {
      ::setenv(name, value.c_str(), 1);
    } else {
      ::unsetenv(name);
    }
  }
  const char* name;
  bool had;
  std::string value;
};

TEST(DepSchedParity, DepCountedMatchesBarrierForAllPresetsAndThreadCounts) {
  // Embeddings and gradients bit-identical across DEEPSEQ_NN_DEPSCHED={1,0}
  // x threads={1,2,4} for every ModelConfig preset, embeddings from the
  // recorded forward of a grad-enabled graph. The reference is the
  // dep-scheduled sequential run.
  FuseGuard fuse_guard;
  EnvVarGuard dep_guard("DEEPSEQ_NN_DEPSCHED");
  set_fuse(true);
  runtime::ThreadPool pool(4);
  auto embed_with = [](const DeepSeqModel& model, nn::Executor& exec) {
    nn::ExecutorScope scope(exec);
    Graph g(/*grad_enabled=*/true);
    return model.embed(g, parity_fixture().graph, parity_fixture().workload, 7)
        ->value;
  };
  for (const ModelConfig& config : parity_presets()) {
    const DeepSeqModel model(config);
    ::setenv("DEEPSEQ_NN_DEPSCHED", "1", 1);
    nn::Executor sequential;
    const Tensor reference = embed_with(model, sequential);
    const GradRun ref_grads = train_step_with(model, sequential);

    for (const bool dep : {true, false}) {
      ::setenv("DEEPSEQ_NN_DEPSCHED", dep ? "1" : "0", 1);
      for (const int threads : {1, 2, 4}) {
        nn::Executor exec(&pool, threads);
        EXPECT_TRUE(bit_identical(reference, embed_with(model, exec)))
            << config.description() << " embed diverges at " << threads
            << " threads, depsched=" << dep;
        const GradRun grads = train_step_with(model, exec);
        EXPECT_EQ(ref_grads.loss, grads.loss)
            << config.description() << " depsched=" << dep;
        ASSERT_EQ(ref_grads.grads.size(), grads.grads.size());
        for (std::size_t i = 0; i < ref_grads.grads.size(); ++i)
          EXPECT_TRUE(bit_identical(ref_grads.grads[i], grads.grads[i]))
              << config.description() << " grad " << i << " diverges at "
              << threads << " threads, depsched=" << dep;
      }
    }
  }
}

TEST(PlanStructure, DepNodesCoverTasksWithProducerFirstEdges) {
  // The dependency layer of a built plan must be a consistent DAG covering
  // every task: task_node maps each task into its node, a node's in_tasks
  // equals the summed task_count of its distinct producers, and consumer
  // ids always exceed producer ids (nodes are emitted producers-first).
  OpFactory f;
  const Var leaf = nn::make_constant(Tensor::full(64, 32, 1.0f));
  const Var w = nn::make_constant(Tensor::full(32, 32, 0.1f));
  Var a = f.emit(OpKind::kMatmul, {leaf, w}, 64, 32);
  const Var b = f.emit(OpKind::kScale, {a}, 64, 32);
  const Var c = f.emit(OpKind::kTanh, {a}, 64, 32);
  const Var d = f.emit(OpKind::kAdd, {b, c}, 64, 32);
  f.emit(OpKind::kSigmoid, {d}, 64, 32);

  for (const bool fuse : {true, false}) {
    const Plan plan = Plan::build(f.ops, 4, fuse);
    ASSERT_TRUE(plan.dep_linked());
    const auto& nodes = plan.dep_nodes();
    ASSERT_EQ(plan.task_node().size(), plan.tasks().size());
    std::vector<std::uint32_t> in_tasks(nodes.size(), 0);
    std::uint32_t covered = 0;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      covered += nodes[i].task_count;
      for (std::uint32_t t = 0; t < nodes[i].task_count; ++t)
        EXPECT_EQ(plan.task_node()[nodes[i].first_task + t], i);
      for (std::uint32_t c2 = nodes[i].consumers_begin;
           c2 < nodes[i].consumers_end; ++c2) {
        const std::uint32_t peer = plan.dep_consumers()[c2];
        EXPECT_GT(peer, i);  // producers-first emission
        in_tasks[peer] += nodes[i].task_count;
      }
    }
    EXPECT_EQ(covered, plan.tasks().size());
    for (std::size_t i = 0; i < nodes.size(); ++i)
      EXPECT_EQ(nodes[i].in_tasks, in_tasks[i]) << "node " << i;
  }
}

TEST(PlanStructure, DepSchedulingCollapsesGlobalSyncsToOnePerFlush) {
  // The same pll-shaped deep-narrow graph as the barrier gate above, traced
  // under both schedulers. Dependency-counted scheduling must pay exactly
  // one global sync per flush — independent of host core count, since the
  // counter is structural — where the barrier scheduler pays one per cut
  // (hundreds on this graph). This is the PR's structural CI gate.
  FuseGuard fuse_guard;
  EnvVarGuard dep_guard("DEEPSEQ_NN_DEPSCHED");
  set_fuse(true);
  runtime::ThreadPool pool(4);
  constexpr int kLevels = 320;
  constexpr int kRows = 16;
  constexpr int kLevelsPerFlush = 32;

  // Each level gathers the previous level AND adds a skip connection from
  // two levels back: the two-consumer fan-out is a true cut chain fusion
  // cannot contract (a purely linear recurrence would fuse whole flushes
  // into single chains, hiding the scheduler difference).
  auto trace = [&](bool dep) {
    ::setenv("DEEPSEQ_NN_DEPSCHED", dep ? "1" : "0", 1);
    nn::Executor exec(&pool, 4);
    nn::ExecutorScope scope(exec);
    nn::ExecStats stats;
    nn::ExecTraceScope ts(stats);
    Graph g(/*grad_enabled=*/false);
    Var prev = g.constant(Tensor::full(kRows, 8, 0.3f));
    Var skip = prev;
    int level = 0;
    while (level < kLevels) {
      nn::BatchScope group(g);
      for (int k = 0; k < kLevelsPerFlush && level < kLevels; ++k, ++level) {
        std::vector<nn::RowRef> refs;
        for (int r = 0; r < kRows; ++r)
          refs.push_back(nn::RowRef{prev, kRows - 1 - r});
        Var x = g.gather(refs);
        for (int i = 0; i < 3; ++i) {
          x = g.scale(x, 1.01f);
          x = g.sigmoid(x);
        }
        x = g.add(x, skip);
        skip = prev;
        prev = x;
      }
    }
    return std::pair<nn::ExecStats, Tensor>(std::move(stats), prev->value);
  };

  const auto [dep, dep_out] = trace(true);
  const auto [barrier, barrier_out] = trace(false);
  EXPECT_TRUE(bit_identical(dep_out, barrier_out));
  // One end-of-flush sync per flush, nothing else — however many cuts the
  // plans carry.
  EXPECT_EQ(dep.global_syncs, dep.flushes);
  EXPECT_EQ(dep.flushes, (kLevels + kLevelsPerFlush - 1) / kLevelsPerFlush);
  // The barrier scheduler pays per cut: at least tenfold on this shape.
  EXPECT_GE(barrier.global_syncs, dep.global_syncs * 10)
      << "dep=" << dep.global_syncs << " barrier=" << barrier.global_syncs;
  // Dep scheduling actually released chains downstream of the roots; the
  // barrier scheduler held those same chains behind barriers instead.
  EXPECT_GT(dep.released_chains, 0);
  EXPECT_EQ(barrier.released_chains, 0);
  EXPECT_GT(barrier.barriered_chains, 0);
  EXPECT_EQ(dep.barriered_chains, 0);
}

}  // namespace
}  // namespace deepseq

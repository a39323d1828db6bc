#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/plan.hpp"

namespace deepseq::runtime {
class ThreadPool;
}

namespace deepseq::nn {

/// Resolve the DEEPSEQ_NN_THREADS knob (strict env_int): the explicit value
/// when set, else `fallback` (the shared pool's size, or hardware
/// concurrency for the process-global executor). 1 selects the sequential
/// path; values < 1 fall back too.
int nn_threads_from_env(int fallback);

/// DEEPSEQ_NN_DEPSCHED knob (env_int): 0 falls back to the per-cut barrier
/// scheduler (ChainDriver, the PR 5 behavior) for A/B benching and parity
/// testing; any other value (and unset) selects dependency-counted
/// scheduling with a single end-of-flush sync. Read per flush.
bool nn_depsched_from_env();

/// Per-flush execution counters, collected when an ExecTraceScope is active
/// on the calling thread (benches and the structural CI gate use this).
/// `barriers`/`chains`/`global_syncs`/`released_chains`/`barriered_chains`
/// are structural properties of the built plans and the selected scheduler —
/// independent of how many cores actually ran them.
struct ExecStats {
  int flushes = 0;
  int barriers = 0;       // cut waves planned (what the barrier scheduler pays)
  int chains = 0;         // chain clusters planned (fused chains + singletons)
  int steps = 0;          // kernel steps executed (plan steps + direct calls)
  int levels = 0;         // level updates of direct (never-flushing) propagation
  int rows = 0;           // node rows those level updates rewrote
  int fused_ops = 0;      // ops that rode inside a multi-op chain
  int parallel_cuts = 0;  // cuts dispatched to the pool with > 1 task
  /// Global synchronization points the active scheduler actually pays: one
  /// end-of-flush completion wait per flush under dependency-counted
  /// scheduling, one per cut under DEEPSEQ_NN_DEPSCHED=0.
  int global_syncs = 0;
  /// Chain tasks released straight to the claim queue by a finishing
  /// producer (dependency-counted scheduling only).
  int released_chains = 0;
  /// Chain tasks that waited behind a cut barrier instead (barrier
  /// scheduling only: every task beyond the first cut).
  int barriered_chains = 0;
  int simd_lanes = 1;  // kernel lane width of the last run (8 = AVX2)
};

/// The execute layer: runs a Plan's cut waves of chain tasks — and taped
/// ops' backward kernels — over a shared runtime::ThreadPool. The calling
/// thread always participates in a cut (it drains the same task queue the
/// pool helpers do), so executors may safely share the pool that is running
/// their caller: a saturated pool degrades to inline execution instead of
/// deadlocking.
///
/// Results are bit-identical to sequential execution at any thread count
/// and any DEEPSEQ_NN_FUSE / DEEPSEQ_NN_DEPSCHED / DEEPSEQ_NN_SIMD setting:
/// every output element is produced by exactly one step with the same
/// per-element operation order as the single-chunk scalar kernel (the SIMD
/// layer guarantees this per kernel), concurrent chain tasks write disjoint
/// outputs (distinct ops, or disjoint row ranges of a row-split chain), the
/// dependency-counted schedule releases a task only after every producer
/// task finished, and backward kernels are chunked only where gradient
/// scatter targets are provably disjoint (aliased operands fall back to the
/// sequential order).
class Executor {
 public:
  /// Sequential executor (the DEEPSEQ_NN_THREADS=1 path).
  Executor();
  /// Run plans with up to `threads` workers on `pool` (non-owning; must
  /// outlive the executor). threads <= 1 never touches the pool.
  Executor(runtime::ThreadPool* pool, int threads);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  int threads() const { return threads_; }
  runtime::ThreadPool* pool() const { return pool_; }

  /// Execute a flushed batch: cuts in order, chain tasks of a cut
  /// potentially in parallel, each task's steps sequentially on one thread.
  /// Fills taped ops' backward byproducts (argmax, saved). Takes the plan
  /// by value: pool helpers share the schedule and may outlive the call.
  void run(Plan plan);

  /// Run the backward kernels of `ops` (already in reverse topological
  /// order). Chunkable ops (disjoint scatter targets) keep their own
  /// prep + parts cuts; consecutive non-chunkable ops fuse into one
  /// sequential chain task — one barrier per run instead of one per op.
  /// Ops whose output never received a gradient are skipped, exactly as in
  /// sequential backward.
  void run_backward(const std::vector<Op*>& ops);

  /// Process-global executor: owns a pool sized by DEEPSEQ_NN_THREADS
  /// (default: hardware concurrency). DEEPSEQ_NN_THREADS=1 keeps everything
  /// on the calling thread.
  static Executor& global();

  /// The executor Graph flushes use on this thread: the innermost active
  /// ExecutorScope's, or global().
  static Executor& current();

 private:
  friend class ExecutorScope;

  /// Dispatch one plan: inline when small/sequential; otherwise the
  /// dependency-counted DepDriver (tasks released to one claim queue as
  /// their producers finish, a single end-of-flush completion wait) or,
  /// under DEEPSEQ_NN_DEPSCHED=0, the per-cut barrier ChainDriver. The
  /// caller participates; up to threads-1 pool helpers are enlisted once
  /// for the whole plan and stay hot across releases.
  void run_plan(Plan plan);

  runtime::ThreadPool* pool_ = nullptr;
  std::unique_ptr<runtime::ThreadPool> owned_pool_;
  int threads_ = 1;
};

/// RAII thread-local executor override: Graphs flushed on this thread while
/// the scope is alive use `e` (the serving layer threads its shared worker
/// pool into the nn layer this way).
class ExecutorScope {
 public:
  explicit ExecutorScope(Executor& e);
  ~ExecutorScope();
  ExecutorScope(const ExecutorScope&) = delete;
  ExecutorScope& operator=(const ExecutorScope&) = delete;

 private:
  Executor* prev_;
};

/// The stats the innermost ExecTraceScope on this thread collects into, or
/// null when none is active (work that bypasses the executor reports here).
ExecStats* active_exec_trace();

/// RAII per-flush stats collection on the calling thread (benches only).
class ExecTraceScope {
 public:
  explicit ExecTraceScope(ExecStats& stats);
  ~ExecTraceScope();
  ExecTraceScope(const ExecTraceScope&) = delete;
  ExecTraceScope& operator=(const ExecTraceScope&) = delete;

 private:
  ExecStats* prev_;
};

}  // namespace deepseq::nn
